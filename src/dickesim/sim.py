"""Dense statevector engine.

Basis convention: a bitstring ``b0 b1 ... b_{n-1}`` (qubit 0 written leftmost)
maps to amplitude index ``sum_i b_i * 2**(n-1-i)``, i.e. qubit 0 is the most
significant bit. States are immutable; every operation returns a new value.

One kernel, :func:`_evolve`, applies gates in place to a ``(2,) * n`` view
of the amplitudes, with optional leading batch axes. A circuit runs as a
list of kernel steps (:func:`_circuit_steps`): each run of two or more
consecutive X-type gates is one cached permutation of the basis indices,
applied as a single gather, and every other gate is applied on its own.
The gather moves each amplitude bit for bit, as the gates' own slice swaps
do, so the output is the same byte for byte as gate by gate.

Above ``BLOCK_AMPLITUDES`` amplitudes per slice, a gate runs in blocks over
its leading free qubits. A gate whose lowest qubit is ``n - 2`` also fixes
the last qubit as a block bit: its slices would otherwise be runs of 2
contiguous amplitudes, which numpy iterates two at a time, while each half
is one long run of stride 4. Every other gate keeps its blocks: splitting
contiguous runs of 4 or more amplitudes the same way measured slower.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from itertools import groupby, product
from typing import Sequence

import numpy as np

from .gates import X_MATRIX, CircuitProgram, GateSpec, _index, _numbers

NORM_ATOL = 1e-12
# Post-selection rejects a branch whose probability is below this, rather
# than renormalize by ~0.
IMPOSSIBLE_BRANCH = 1e-15
# The full-matrix oracle materializes 4^n complex entries.
UNITARY_ORACLE_MAX_QUBITS = 12
# The kernel applies a gate in blocks of at most this many amplitudes per
# slice (256 KiB of complex128), so a block's two slices and the temporaries
# of its update fit in one core's 2 MiB L2 cache.
BLOCK_AMPLITUDES = 1 << 14
_X_BYTES = X_MATRIX.tobytes()


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized complex amplitudes over the computational basis.

    The amplitudes are validated once, here. An array that is complex128,
    C-contiguous, owns its data (``base is None``) and is already read-only
    is adopted as it is; every other input is copied. Setting a fresh array
    read-only is how a producer hands it over: the ones in this module and
    in ``dicke`` allocate one flat array, write it, set it read-only and
    pass it in, so each state is allocated once.
    """

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        n_qubits = _index(self.n_qubits)
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
        amps = self.amplitudes
        if not (
            isinstance(amps, np.ndarray)
            and amps.dtype == complex
            and amps.base is None
            and amps.flags.c_contiguous
            and not amps.flags.writeable
        ):
            amps = np.array(_numbers(amps), dtype=complex)
        if amps.shape != (1 << n_qubits,):
            raise ValueError(f"expected {1 << n_qubits} amplitudes, got shape {amps.shape}")
        _check_normalized(amps)
        amps.flags.writeable = False
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "amplitudes", amps)

    def bitstring(self, index: int) -> str:
        return format(index, f"0{self.n_qubits}b")


def _check_normalized(amps: np.ndarray) -> None:
    """Raise unless every row of ``amps`` (shape ``(batch..., dim)``) is finite
    with norm 1 within ``NORM_ATOL``; a batch names its first failing row. A
    single state of shape ``(dim,)`` is a batch of one row, checked by the
    same loop.

    Each norm is the square root of one dot product of the row's float view,
    compared as a Python float: on the 705,432 equal amplitudes of
    D(22, 11) that rounds to 2e-13, where ``np.linalg.norm``'s
    near-sequential sum is off by 1.1e-12. A NaN or infinite amplitude
    makes its row's norm NaN or infinite, so finiteness is checked only when
    a norm fails, to name the cause."""
    f = amps.view(float)
    for row in f.reshape(-1, f.shape[-1]):
        norm = math.sqrt(row @ row)
        if not abs(norm - 1.0) <= NORM_ATOL:
            if not np.all(np.isfinite(f)):
                raise ValueError("amplitudes contain NaN or Inf")
            raise ValueError(f"state is not normalized: |psi| = {norm!r}")


def new_basis_state(n_qubits: int, bits: str) -> StateVector:
    """Computational basis state |bits>, qubit 0 leftmost."""
    n_qubits = _index(n_qubits)
    if len(bits) != n_qubits:
        raise ValueError(f"expected {n_qubits} bits, got {len(bits)}")
    if not bits or any(b not in "01" for b in bits):
        raise ValueError(f"bitstring must be nonempty over {{0,1}}, got {bits!r}")
    amps = np.zeros(1 << n_qubits, dtype=complex)
    amps[int(bits, 2)] = 1.0
    amps.flags.writeable = False
    return StateVector(n_qubits, amps)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product with ``a``'s qubits first (most significant). The
    factors' norm errors add up, so a product whose norm misses 1 by more than
    ``NORM_ATOL`` is divided by its norm; any other keeps its bits."""
    a_amps, b_amps = a.amplitudes, b.amplitudes
    amps = np.empty(a_amps.size * b_amps.size, dtype=complex)
    np.multiply.outer(a_amps, b_amps, out=amps.reshape(a_amps.size, b_amps.size))
    norm = math.sqrt(amps.view(float) @ amps.view(float))
    if not abs(norm - 1.0) <= NORM_ATOL:
        amps /= norm
    amps.flags.writeable = False
    return StateVector(a.n_qubits + b.n_qubits, amps)


def _axis_index(n_qubits: int, fixed: Sequence[tuple[int, int]]) -> tuple:
    """Index into the ``(2,) * n_qubits`` view of a state that fixes the axis
    of each ``(qubit, bit)`` pair to that bit and keeps every other axis whole."""
    index: list = [slice(None)] * n_qubits
    for qubit, bit in fixed:
        index[qubit] = bit
    # The Ellipsis keeps leading batch axes whole and a fully fixed index a
    # 0-d array view.
    return (..., *index)


def _evolve(
    psi: np.ndarray,
    n_qubits: int,
    steps: Sequence[GateSpec | np.ndarray],
    matrices: Sequence[np.ndarray] | None = None,
) -> None:
    """Apply ``steps`` in order, in place, to ``psi`` of shape
    ``(batch..., 2, ..., 2)`` with one trailing axis per qubit.

    A step is a gate (:func:`_apply_gate_slices`) or the read-only index
    table ``perm`` of a fused run of X-type gates (:func:`_circuit_steps`).
    A table is applied as one gather over the flattened qubit axes, for every
    batch row at once, and written back into ``psi``: the new amplitude at
    index ``i`` is the old one at ``perm[i]``, moved bit for bit.
    ``matrices[i]``, if given, replaces ``steps[i].matrix``: either one
    ``(2, 2)`` matrix for the whole batch or a ``(T, 2, 2)`` stack with one
    matrix per index of the single batch axis. Only gates take matrices.
    """
    for i, step in enumerate(steps):
        if isinstance(step, np.ndarray):
            flat = psi.reshape(psi.shape[: psi.ndim - n_qubits] + (-1,))
            psi[...] = np.take(flat, step, axis=-1).reshape(psi.shape)
        else:
            u = step.matrix if matrices is None else matrices[i]
            _apply_gate_slices(psi, n_qubits, step, u)


def _apply_gate_slices(psi: np.ndarray, n_qubits: int, gate: GateSpec, u: np.ndarray) -> None:
    """Apply ``gate`` with target matrix ``u`` in place to ``psi`` as
    :func:`_evolve` takes it.

    The gate rewrites the two slices where every control axis is 1 and the
    target axis is 0 or 1, over all batch axes at once; all other amplitudes
    are left bit-identical. A ``(2, 2)`` matrix equal to ``X_MATRIX`` byte
    for byte swaps the two slices (one copy, two stores, no arithmetic); any
    other matrix computes ``u00 * a0 + u01 * a1`` and ``u10 * a0 + u11 * a1``.
    When a slice, batch included, holds more than ``BLOCK_AMPLITUDES``
    amplitudes, the gate runs block by block over the bit patterns of the
    leading free qubits (neither control nor target), so each block's
    operands and temporaries stay in the L2 cache instead of streaming
    through memory once per operation. If the gate's lowest qubit is
    ``n_qubits - 2``, the last qubit is fixed too, as the fastest-varying
    block bit: each block's slice is then one run of stride 4 instead of
    runs of 2 contiguous amplitudes, which cost about twice as much per
    amplitude. Fixing a higher qubit to break up runs of 4 or more measured
    slower, so those gates keep the leading blocks alone. Blocking only
    splits the same elementwise expressions, so results do not depend on
    the blocks.
    """
    fixed = [(c, 1) for c in gate.controls]
    blocks = [fixed]
    size = psi.size >> len(fixed) + 1
    if size > BLOCK_AMPLITUDES:
        # Fix the fewest leading free qubits that bring a slice down to
        # BLOCK_AMPLITUDES, or all of them if the batch alone is larger.
        free = [q for q in range(n_qubits) if q not in gate.qubits]
        split = free[: (-(-size // BLOCK_AMPLITUDES) - 1).bit_length()]
        # A split that already holds the last qubit (a large batch) keeps it once.
        if max(gate.qubits) == n_qubits - 2 and split[-1] != n_qubits - 1:
            split.append(n_qubits - 1)
        blocks = [
            fixed + list(zip(split, bits)) for bits in product((0, 1), repeat=len(split))
        ]
    swap = u.ndim == 2 and u.tobytes() == _X_BYTES
    if u.ndim == 3:
        kept = psi.ndim - len(blocks[0]) - 2
        u = u.reshape((len(u),) + (1,) * kept + (2, 2))
    if not swap:
        u00, u01, u10, u11 = u[..., 0, 0], u[..., 0, 1], u[..., 1, 0], u[..., 1, 1]
    for block in blocks:
        zero = _axis_index(n_qubits, block + [(gate.target, 0)])
        one = _axis_index(n_qubits, block + [(gate.target, 1)])
        a0, a1 = psi[zero], psi[one]
        if swap:
            psi[zero], psi[one] = a1, a0.copy()
        else:
            psi[zero], psi[one] = u00 * a0 + u01 * a1, u10 * a0 + u11 * a1


# Kernel steps of each circuit object, dropped when the circuit is.
_STEPS: weakref.WeakKeyDictionary[CircuitProgram, tuple[GateSpec | np.ndarray, ...]] = (
    weakref.WeakKeyDictionary()
)


def _circuit_steps(circuit: CircuitProgram) -> Sequence[GateSpec | np.ndarray]:
    """The steps :func:`_evolve` runs for ``circuit``.

    Each maximal run of two or more consecutive gates whose matrix is byte
    for byte ``X_MATRIX`` (X, CNOT, Toffoli, C³NOT) is an exact permutation
    of the basis, so it becomes one index table (:func:`_x_permutation`);
    every other gate is a step of its own. The steps are computed on the
    first call for a circuit object and kept until that object is freed.
    A register of more than ``BLOCK_AMPLITUDES`` amplitudes gets the gates
    as they are: there the blocked per-gate kernel is bound by memory
    traffic, and no 2^n index table is built.
    """
    if 1 << circuit.n_qubits > BLOCK_AMPLITUDES:
        return circuit.gates
    steps = _STEPS.get(circuit)
    if steps is None:
        built: list[GateSpec | np.ndarray] = []
        for is_x, group in groupby(circuit.gates, lambda g: g.matrix.tobytes() == _X_BYTES):
            run = tuple(group)
            if is_x and len(run) > 1:
                built.append(_x_permutation(circuit.n_qubits, run))
            else:
                built.extend(run)
        steps = _STEPS[circuit] = tuple(built)
    return steps


def _x_permutation(n_qubits: int, run: Sequence[GateSpec]) -> np.ndarray:
    """The read-only index table ``perm`` of a run of X-type gates: the run
    maps any state ``psi`` to ``psi[perm]``. It is the basis indices
    ``0 .. 2^n - 1`` carried through the run's own slice swaps."""
    perm = np.arange(1 << n_qubits)
    for gate in run:
        _apply_gate_slices(perm.reshape((2,) * n_qubits), n_qubits, gate, gate.matrix)
    perm.flags.writeable = False
    return perm


def _run(state: StateVector, steps: Sequence[GateSpec | np.ndarray]) -> StateVector:
    """Copy the amplitudes once, evolve them through ``steps`` and validate
    the result once."""
    amps = state.amplitudes.copy()
    _evolve(amps.reshape((2,) * state.n_qubits), state.n_qubits, steps)
    amps.flags.writeable = False
    return StateVector(state.n_qubits, amps)


def apply_gate(state: StateVector, gate: GateSpec) -> StateVector:
    """Apply the target unitary where every control bit is 1.

    Amplitudes whose control bits are not all 1 are copied bit-identically.
    """
    gate.check_fits(state.n_qubits)
    return _run(state, (gate,))


def apply_circuit(state: StateVector, circuit: CircuitProgram) -> StateVector:
    """Apply the circuit's gates left to right; the result is validated once,
    not after every gate. Runs of X-type gates are applied as one
    permutation each (:func:`_circuit_steps`), which moves every amplitude
    exactly as the gates one by one would."""
    if circuit.n_qubits != state.n_qubits:
        raise ValueError(
            f"circuit has {circuit.n_qubits} qubits, state has {state.n_qubits}"
        )
    return _run(state, _circuit_steps(circuit))


def postselect(state: StateVector, qubit: int, outcome: int) -> tuple[float, StateVector]:
    """Project onto ``qubit == outcome`` and renormalize.

    Returns ``(probability, collapsed_state)``. Raises if the branch
    probability is below the impossible-branch threshold. ``qubit`` and
    ``outcome`` must be integers; a float or bool raises ``TypeError``.

    The branch is copied into a zeroed output. The probability is one dot
    product ``f @ f`` of the output's float view ``f``, as
    :func:`_check_normalized` takes a norm, and ``f`` is then multiplied in
    place by ``1 / sqrt(probability)``. That is numpy's complex-by-real
    division up to the sign of a zero, and every amplitude outside the
    branch stays ``+0.0``.
    """
    qubit, outcome = _index(qubit), _index(outcome)
    if not 0 <= qubit < state.n_qubits:
        raise ValueError(f"qubit {qubit} out of range for {state.n_qubits} qubits")
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    psi = state.amplitudes.reshape((2,) * state.n_qubits)
    branch = _axis_index(state.n_qubits, [(qubit, outcome)])
    amps = np.zeros(psi.size, dtype=complex)
    amps.reshape(psi.shape)[branch] = psi[branch]
    f = amps.view(float)
    prob = float(f @ f)
    _check_branch(prob, qubit, outcome)
    f *= 1 / math.sqrt(prob)
    amps.flags.writeable = False
    return prob, StateVector(state.n_qubits, amps)


def _check_branch(prob: float, qubit: int, outcome: int) -> None:
    """Raise unless the branch ``qubit == outcome`` of probability ``prob``
    can be renormalized: ``prob`` must be at least ``IMPOSSIBLE_BRANCH``. A
    NaN fails the comparison, so it passes."""
    if prob < IMPOSSIBLE_BRANCH:
        raise ValueError(f"outcome {outcome} on qubit {qubit} has probability {prob!r}")


def fidelity_pure(a: StateVector, b: StateVector) -> float:
    """Squared inner product |<a|b>|^2 of two pure states."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"dimension mismatch: {a.n_qubits} vs {b.n_qubits} qubits")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def gate_unitary(gate: GateSpec, n_qubits: int) -> np.ndarray:
    """Full 2^n x 2^n matrix of one gate, assembled from Kronecker factors.

    Independent of the :func:`_evolve` kernel that every circuit runs
    through, so the two paths cross-check each other: the full matrix is
    I + (U - I)_target (x) P1_controls.
    Each factor is ``np.kron``'s own definition, an outer product reshaped,
    without its per-call overhead.
    """
    gate.check_fits(n_qubits)
    projector_one = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    delta = gate.matrix - np.eye(2)
    factor = np.ones((1, 1), dtype=complex)
    for q in range(n_qubits):
        if q == gate.target:
            part = delta
        elif q in gate.controls:
            part = projector_one
        else:
            part = np.eye(2, dtype=complex)
        rows, cols = factor.shape
        factor = (factor[:, None, :, None] * part[None, :, None, :]).reshape(2 * rows, 2 * cols)
    return np.eye(1 << n_qubits, dtype=complex) + factor


def circuit_unitary(circuit: CircuitProgram) -> np.ndarray:
    """Full-circuit matrix (later gates multiplied on the left)."""
    if circuit.n_qubits > UNITARY_ORACLE_MAX_QUBITS:
        raise ValueError(
            f"matrix oracle supports up to {UNITARY_ORACLE_MAX_QUBITS} qubits, "
            f"got {circuit.n_qubits}"
        )
    total = np.eye(1 << circuit.n_qubits, dtype=complex)
    for gate in circuit.gates:
        total = gate_unitary(gate, circuit.n_qubits) @ total
    return total
