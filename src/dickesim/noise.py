"""Coherent over-rotation error model and fidelity sweeps.

Every controlled gate in a circuit picks up an extra X-axis rotation by a
fixed angle theta on its target qubit, composed after the intended target
operation; the control structure stays exact and uncontrolled single-qubit
gates stay ideal. Fidelity between the ideal and noisy runs of the expansion
circuit quantifies robustness, either on the full pre-measurement state or on
the renormalized success branches.
"""
from __future__ import annotations

import enum
import functools
import math
from typing import Sequence

import numpy as np

from .dicke import dicke_state
from .gates import CircuitProgram, GateSpec, _check_target_matrix, rx_matrix
from .protocols import FLAG_QUBIT, _expansion_input, build_d4_to_d5_circuit
from .sim import (
    NORM_ATOL,
    StateVector,
    _axis_index,
    _check_branch,
    _check_normalized,
    _evolve,
    postselect,
)


class FidelityMode(enum.Enum):
    """What to compare between the ideal and noisy runs."""

    PRE_MEASUREMENT = "pre-measurement"
    POST_SELECTED_SUCCESS = "post-selected"


def _check_angle(theta: float) -> None:
    if not math.isfinite(theta):
        raise ValueError("over-rotation angle must be finite")
    if abs(theta) > math.pi:
        raise ValueError(f"over-rotation angle {theta!r} outside [-pi, pi]")


def noisify_gate(gate: GateSpec, theta: float) -> GateSpec:
    """Compose an extra Rx(theta) after the target operation of a controlled gate.

    Gates without controls are returned unchanged; control structure, order
    and labels are preserved exactly.
    """
    _check_angle(theta)
    if not gate.controls:
        return gate
    return GateSpec(
        gate.controls,
        gate.target,
        rx_matrix(theta) @ gate.matrix,
        label=gate.label,
    )


def noisify_circuit(circuit: CircuitProgram, theta: float) -> CircuitProgram:
    """Apply :func:`noisify_gate` to every gate, keeping order and labels."""
    return CircuitProgram(
        circuit.n_qubits,
        tuple(noisify_gate(g, theta) for g in circuit.gates),
        circuit.qubit_labels,
    )


def _noisy_matrices(circuit: CircuitProgram, thetas: np.ndarray) -> list[np.ndarray]:
    """The matrices of :func:`noisify_circuit` for every angle at once: a
    ``(T, 2, 2)`` stack ``rx_matrix(theta) @ gate.matrix`` per controlled gate,
    checked as :class:`GateSpec` checks one matrix, and the plain matrix of
    every uncontrolled gate."""
    c, s = np.cos(thetas / 2.0), -1j * np.sin(thetas / 2.0)
    rx = np.stack([c, s, s, c], axis=-1).reshape(-1, 2, 2)
    matrices = [gate.matrix for gate in circuit.gates]
    controlled = [i for i, gate in enumerate(circuit.gates) if gate.controls]
    stacks = rx @ np.array([matrices[i] for i in controlled])[:, None]
    _check_target_matrix(stacks)
    for i, stack in zip(controlled, stacks):
        matrices[i] = stack
    return matrices


def _fourier_coefficients(
    circuit: CircuitProgram, source: StateVector
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The noisy output as a trigonometric polynomial in the over-rotation angle.

    Each of the D controlled gates adds ``Rx(theta) = z^-1 (I + X)/2 + z (I - X)/2``
    with ``z = exp(i theta / 2)``, so the output is ``psi(theta) = sum_m a_m z^m``
    over m = -D..D. Returns ``(m, a, ideal)``: row ``r`` of ``a`` is the
    coefficient of ``z^m[r]``, taken with one FFT over the outputs at the
    2D + 1 node angles ``theta_k = 4 pi k / (2D + 1)``, which are internal and
    lie outside [-pi, pi] by design; ``ideal`` is the output at node
    ``theta_0 = 0``, the noiseless run. All nodes run through the kernel in
    one call; their matrices and output states are checked as in a one-angle
    run.
    """
    n = source.n_qubits
    degree = sum(1 for gate in circuit.gates if gate.controls)
    nodes = 2 * degree + 1
    thetas = 4.0 * math.pi * np.arange(nodes) / nodes
    psi = np.tile(source.amplitudes, (nodes, 1))
    _evolve(psi.reshape((nodes,) + (2,) * n), n, circuit.gates, _noisy_matrices(circuit, thetas))
    _check_normalized(psi)
    m = (np.arange(nodes) + degree) % nodes - degree
    return m, np.fft.fft(psi, axis=0, norm="forward"), psi[0]


def _horner(coefficients: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``sum_j coefficients[j] * z**j`` at every ``z``."""
    acc = np.full_like(z, coefficients[-1])
    for c in coefficients[-2::-1]:
        acc *= z
        acc += c
    return acc


def _norm_polynomial(m: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``p`` with ``sum_j |sum_r a[r, j] z^m[r]|^2 = Re sum_d p[d] z^d`` on ``|z| = 1``.

    ``p[d]``, d = 0..2D, sums the Gram matrix entries ``<a_r|a_s>`` with
    ``m[s] - m[r] = d``, doubled for d > 0 to stand for their conjugate
    mirror terms at -d.
    """
    lag = m[None, :] - m[:, None]
    upper = lag >= 0
    p = np.zeros(len(a), dtype=complex)
    np.add.at(p, lag[upper], (a.conj() @ a.T)[upper])
    p[1:] *= 2.0
    return p


@functools.cache
def _expansion_fit() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fit the paper's instance once per process, on the first call: the
    noisy expansion of D(4,2) with |00> ancillas as polynomials in
    ``z = exp(i theta / 2)``, returned as ``(branch_norm, overlap,
    branch_overlap)``: the squared norm of its flag-0 branch
    (:func:`_norm_polynomial`), and the overlap coefficients with the ideal
    output and with the post-selected ideal, by increasing m. Every array is
    read-only, as it is shared by every later call.

    Runs :func:`_fourier_coefficients` on ``build_d4_to_d5_circuit()`` and
    that input, built on this call, so the node matrices and states are
    checked then; the post-selected ideal goes through :func:`postselect`.

    The output norm is checked here, once for every angle: on ``|z| = 1`` its
    square ``Re sum_d p_d z^d`` lies within ``s = sum_{d >= 1} |p_d|`` of
    ``Re p_0``, so the norms at both ends must be 1 within ``NORM_ATOL``, as
    a state's are; the message names the end farther from 1. A NaN fit fails.
    """
    source = _expansion_input(dicke_state(4, 2))
    n = source.n_qubits
    m, a, ideal = _fourier_coefficients(build_d4_to_d5_circuit(), source)
    ideal = StateVector(n, ideal)
    _, selected = postselect(ideal, FLAG_QUBIT, 0)
    branch = a.reshape((len(a),) + (2,) * n)[_axis_index(n, [(FLAG_QUBIT, 0)])]
    norm = _norm_polynomial(m, a)
    center, spread = float(norm[0].real), float(np.abs(norm[1:]).sum())
    # A negative end is clipped to norm 0, which fails as well; max keeps NaN.
    low, high = (math.sqrt(max(end, 0.0)) for end in (center - spread, center + spread))
    worst = high if abs(high - 1.0) > abs(low - 1.0) else low
    if not abs(worst - 1.0) <= NORM_ATOL:
        raise ValueError(f"state is not normalized: |psi| = {worst!r}")
    # b_m by increasing m gives z^D sum_m b_m z^m, whose modulus is the same.
    order = np.argsort(m)
    fit = (
        _norm_polynomial(m, branch.reshape(len(a), -1)),
        (a @ ideal.amplitudes.conj())[order],
        (a @ selected.amplitudes.conj())[order],
    )
    for array in fit:
        array.flags.writeable = False
    return fit


def fidelity_sweep(
    theta_grid: Sequence[float] | np.ndarray,
    mode: FidelityMode | str = FidelityMode.POST_SELECTED_SUCCESS,
) -> np.ndarray:
    """Fidelity of the noisy expansion against the ideal one, per grid angle.

    ``theta_grid`` is a nonempty sequence or 1-D array of integer or float
    angles, converted once to float64; anything else, such as a complex,
    bool or string grid, raises ``ValueError``. ``mode`` is a
    :class:`FidelityMode` or its string value; an unknown one raises
    ``ValueError``.

    The input is always D(4,2) with |00> ancillas.
    PRE_MEASUREMENT compares the full 6-qubit outputs; POST_SELECTED_SUCCESS
    compares the renormalized flag-0 branches. Both give fidelity 1 at
    theta = 0. Returns one float64 array of fidelities in grid order.

    The kernel evolves 2D + 1 node states once per process, D the number
    of controlled gates, on the first call in either mode and whatever the
    grid length (:func:`_expansion_fit`); later calls evolve none. The ideal
    output is node ``theta_0 = 0``, not a run of its own. On each grid
    angle, ``z = exp(i theta / 2)``, the overlap with the ideal output is
    ``sum_m b_m z^m`` with ``b_m = <ideal|a_m>``, and the squared norm of its
    flag-0 branch is a polynomial read off the Gram matrix of the branch's
    coefficients; Horner's rule evaluates each. Every grid angle is checked
    as :func:`noisify_gate` checks one before any work. When the fit is
    made, the node matrices and states are checked as :class:`GateSpec` and
    ``StateVector`` check one, and the output norm is bounded at every angle
    in [-pi, pi] (:func:`_expansion_fit`). Post-selected, on every call,
    the grid's smallest flag-0 probability goes through the check that
    :func:`~dickesim.sim.postselect` makes, so every angle's probability
    must be at least ``IMPOSSIBLE_BRANCH``, with the same message.
    """
    mode = FidelityMode(mode)
    thetas = np.asarray(theta_grid)
    if thetas.dtype.kind not in "iuf":
        raise ValueError(f"theta grid must hold real numbers, got dtype {thetas.dtype}")
    thetas = thetas.astype(float, copy=False)
    if thetas.ndim != 1:
        raise ValueError(f"theta grid must be one-dimensional, got shape {thetas.shape}")
    if not thetas.size:
        raise ValueError("theta grid is empty")
    bad = ~(np.abs(thetas) <= math.pi)  # NaN fails the comparison too
    if bad.any():
        _check_angle(float(thetas[int(np.argmax(bad))]))
    branch_norm, overlap, branch_overlap = _expansion_fit()
    # numpy multiplies a one-element array in its scalar loop, which rounds
    # differently from the vector loop of every longer array; a one-angle
    # grid is evaluated twice over, so its angle gets the bits any grid gives
    # it, and the copy is sliced off.
    z = np.exp(0.5j * (thetas.repeat(2) if thetas.size == 1 else thetas))
    if mode is FidelityMode.POST_SELECTED_SUCCESS:
        probs = _horner(branch_norm, z).real.copy()  # frees the complex accumulator
        _check_branch(float(probs.min()), FLAG_QUBIT, 0)
        overlap = branch_overlap
    else:
        probs = 1.0
    fidelities = np.abs(_horner(overlap, z))
    np.divide(np.square(fidelities, out=fidelities), probs, out=fidelities)  # ** 2 is np.square
    return fidelities[: thetas.size]
