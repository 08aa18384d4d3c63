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
import math
from typing import Iterable, NamedTuple

import numpy as np

from . import sim
from .dicke import dicke_state
from .gates import CircuitProgram, GateSpec, is_unitary, rx_matrix
from .protocols import EXPANSION_LAYOUT, build_d4_to_d5_circuit
from .sim import (
    IMPOSSIBLE_BRANCH,
    _axis_index,
    _check_normalized,
    _evolve,
    apply_circuit,
    new_basis_state,
    postselect,
    tensor,
)


class FidelityMode(enum.Enum):
    """What to compare between the ideal and noisy runs."""

    PRE_MEASUREMENT = "pre-measurement"
    POST_SELECTED_SUCCESS = "post-selected"


class SweepRow(NamedTuple):
    theta: float
    fidelity: float


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
    if not np.all(np.isfinite(stacks.view(float))):
        raise ValueError("target matrix has non-finite entries")
    if not is_unitary(stacks):
        raise ValueError("target matrix is not unitary")
    for i, stack in zip(controlled, stacks):
        matrices[i] = stack
    return matrices


def fidelity_sweep(
    theta_grid: Iterable[float],
    mode: FidelityMode = FidelityMode.POST_SELECTED_SUCCESS,
) -> list[SweepRow]:
    """Fidelity of the noisy expansion against the ideal one, per grid angle.

    The input is always the 4-qubit Dicke state with |00> ancillas appended.
    PRE_MEASUREMENT compares the full 6-qubit outputs; POST_SELECTED_SUCCESS
    compares the renormalized flag-0 branches. Both give fidelity 1 at
    theta = 0. Rows follow the input grid order.

    The angles run through the circuit ``sim.BATCH_CHUNK`` at a time, as one
    batch with a ``(T, 2, 2)`` matrix stack per controlled gate. Every angle,
    noisy matrix, output state and flag-0 branch is checked as
    :func:`noisify_gate`, :class:`GateSpec`, ``StateVector`` and
    :func:`postselect` check one.
    """
    grid = [float(t) for t in theta_grid]
    if not grid:
        raise ValueError("theta grid is empty")
    thetas = np.array(grid)
    bad = ~(np.abs(thetas) <= math.pi)  # NaN fails the comparison too
    if bad.any():
        _check_angle(grid[int(np.argmax(bad))])
    circuit = build_d4_to_d5_circuit()
    source = tensor(dicke_state(4, 2), new_basis_state(2, "00"))
    n = source.n_qubits
    flag = EXPANSION_LAYOUT.index(EXPANSION_LAYOUT.flag)
    ideal = apply_circuit(source, circuit)
    post_selected = mode is FidelityMode.POST_SELECTED_SUCCESS
    if post_selected:
        _, ideal = postselect(ideal, flag, 0)
    branch = _axis_index(n, [(flag, 0)])
    fidelities = []
    for start in range(0, len(grid), sim.BATCH_CHUNK):
        chunk = thetas[start:start + sim.BATCH_CHUNK]
        shape = (len(chunk),) + (2,) * n
        psi = np.broadcast_to(source.amplitudes.reshape(shape[1:]), shape).copy()
        _evolve(psi, n, circuit.gates, _noisy_matrices(circuit, chunk))
        _check_normalized(psi.reshape(len(chunk), -1))
        if post_selected:
            probs = np.sum(np.abs(psi[branch]) ** 2, axis=tuple(range(1, n)))
            low = int(np.argmin(probs))
            if probs[low] < IMPOSSIBLE_BRANCH:
                raise ValueError(
                    f"outcome 0 on qubit {flag} has probability {float(probs[low])!r}"
                )
            selected = np.zeros_like(psi)
            selected[branch] = psi[branch] / np.sqrt(probs).reshape((-1,) + (1,) * (n - 1))
            psi = selected
            _check_normalized(psi.reshape(len(chunk), -1))
        # One np.vdot per row, as fidelity_pure takes it: a batched product
        # sums in another order and moves the last bit of some fidelities.
        fidelities.extend(
            float(abs(np.vdot(ideal.amplitudes, row)) ** 2)
            for row in psi.reshape(len(chunk), -1)
        )
    return [SweepRow(theta, fidelity) for theta, fidelity in zip(grid, fidelities)]
