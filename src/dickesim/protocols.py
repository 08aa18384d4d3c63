"""Builders and runners for the state-preparation and expansion circuits.

Three circuits are provided:

* a 3-qubit preparation of the single-excitation entangled state from |000>,
* the deterministic 4-qubit expansion that turns that state plus one fresh
  |0> qubit into the two-excitation Dicke state, and
* the 6-qubit restricted-access expansion that grows the four-qubit Dicke
  state into the five-qubit one while leaving qubit d4 completely untouched,
  using two ancillas a1 (the new Dicke qubit) and a2 (the flag).

Measuring the flag decides the run: outcome 0 (probability 5/6) leaves
(d1,d2,d3,d4,a1) in the five-qubit Dicke state; outcome 1 leaves a W-like
remnant on (d1,d2,d3) that can be recycled, with d4 and a1 separable.

The expansion register is recorded once, in ``EXPANSION_LAYOUT``, and nothing
is built at import. Each circuit is built and validated once per process, on
the first call of its builder; every later call returns that same immutable
object. The expansion's output on D(4,2) with |00> ancillas, and its outcome
distribution, are computed on the first ``run_protocol_stats`` call.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import gates
from .dicke import dicke_state
from .gates import CircuitProgram, _index
from .sim import StateVector, _axis_index, apply_circuit, new_basis_state, postselect, tensor

# |0> -> sqrt(2/3)|0> + sqrt(1/3)|1> seeds the three-term superposition.
W3_ROTATION_ANGLE = 2.0 * math.acos(1.0 / math.sqrt(3.0))


@dataclass(frozen=True)
class RegisterLayout:
    """Labeled register of the restricted-access expansion circuit."""

    qubit_labels: tuple[str, ...] = ("d1", "d2", "d3", "d4", "a1", "a2")
    flag: str = "a2"
    index = CircuitProgram.qubit_index  # the same lookup over qubit_labels


EXPANSION_LAYOUT = RegisterLayout()
FLAG_QUBIT = EXPANSION_LAYOUT.index(EXPANSION_LAYOUT.flag)


@functools.cache
def build_w3_circuit() -> CircuitProgram:
    """Prepare (|001> + |010> + |100>)/sqrt(3) from |000>.

    Uses one Y rotation and three two-qubit controlled gates (CH, CNOT, CNOT).
    """
    w1, w2, w3 = 0, 1, 2
    steps = (
        gates.ry(W3_ROTATION_ANGLE, w1, "P1"),
        gates.ch(w1, w2, "P2"),
        gates.cnot(w2, w3, "P3"),
        gates.cnot(w1, w2, "P4"),
        gates.x(w1, "P5"),
    )
    return CircuitProgram(3, steps, ("w1", "w2", "w3"))


@functools.cache
def build_w3_to_d4_circuit() -> CircuitProgram:
    """Deterministically expand the 3-qubit single-excitation state plus a
    fresh |0> on d4 into the 4-qubit two-excitation Dicke state.

    Gate sequence: H on d4, then CNOTs from d4 onto d1, d2, d3, then X on d4.
    """
    d1, d2, d3, d4 = 0, 1, 2, 3
    steps = (
        gates.h(d4, "E1"),
        gates.cnot(d4, d1, "E2"),
        gates.cnot(d4, d2, "E3"),
        gates.cnot(d4, d3, "E4"),
        gates.x(d4, "E5"),
    )
    return CircuitProgram(4, steps, ("d1", "d2", "d3", "d4"))


@functools.cache
def build_d4_prep_circuit() -> CircuitProgram:
    """Full 4-qubit Dicke preparation from |0000>: the 3-qubit preparation
    followed by the deterministic expansion. Six two-qubit controlled gates."""
    prep = build_w3_circuit()
    expand = build_w3_to_d4_circuit()
    return CircuitProgram(4, prep.gates + expand.gates, expand.qubit_labels)


@functools.cache
def build_d4_to_d5_circuit() -> CircuitProgram:
    """Restricted-access expansion circuit over (d1, d2, d3, d4, a1, a2).

    24 labeled steps G1..G24; steps G9, G11, G13 and G22 are products of
    disjoint single-qubit gates and expand to one record per factor. Steps
    G10 and G18 repeat G8. No gate touches d4.
    """
    d1, d2, d3, a1, a2 = map(EXPANSION_LAYOUT.index, ("d1", "d2", "d3", "a1", "a2"))
    steps = (
        gates.h(a1, "G1"),
        gates.x(a1, "G2"),
        gates.cnot(a1, d1, "G3"),
        gates.cnot(a1, d2, "G4"),
        gates.cnot(a1, d3, "G5"),
        gates.ccnot(a1, d3, d2, "G6"),
        gates.ccnot(a1, d3, d1, "G7"),
        gates.ccnot(d1, a1, a2, "G8"),
        gates.x(d1, "G9"),
        gates.cnot(a1, a2, "G9"),
        gates.ccnot(d1, a1, a2, "G10"),
        gates.x(d1, "G11"),
        gates.x(d2, "G11"),
        gates.x(d3, "G11"),
        gates.cccnot(d2, d3, a1, a2, "G12"),
        gates.x(d2, "G13"),
        gates.x(d3, "G13"),
        gates.ch(a2, d2, "G14"),
        gates.x(d2, "G15"),
        gates.ccnot(d2, a2, d3, "G16"),
        gates.x(d2, "G17"),
        gates.ccnot(d1, a1, a2, "G18"),
        gates.ccnot(d2, a1, a2, "G19"),
        gates.ccnot(d3, a1, a2, "G20"),
        gates.cccnot(d1, d2, d3, a2, "G21"),
        gates.x(d1, "G22"),
        gates.x(a1, "G22"),
        gates.ccnot(d1, a2, d3, "G23"),
        gates.x(d1, "G24"),
    )
    labels = EXPANSION_LAYOUT.qubit_labels
    return CircuitProgram(len(labels), steps, labels)


def verify_untouched(circuit: CircuitProgram, label: str) -> bool:
    """True iff no gate uses the labeled qubit as control or target."""
    qubit = circuit.qubit_index(label)
    return all(qubit not in gate.qubits for gate in circuit.gates)


def _phase_anchored(vec: np.ndarray) -> StateVector:
    """``vec`` as a state, its largest-magnitude amplitude made real positive."""
    anchor = int(np.argmax(np.abs(vec)))
    vec = vec * (abs(vec[anchor]) / vec[anchor])
    vec = vec / np.linalg.norm(vec)
    return StateVector(vec.size.bit_length() - 1, vec)


def _expansion_input(state: StateVector) -> StateVector:
    """A 4-qubit ``state`` on (d1, d2, d3, d4) with |00> on (a1, a2) appended."""
    if state.n_qubits != 4:
        raise ValueError(f"expansion input must have 4 qubits, got {state.n_qubits}")
    return tensor(state, new_basis_state(2, "00"))


def expansion_premeasurement(state: StateVector) -> StateVector:
    """Append |00> ancillas and run the expansion circuit (no measurement)."""
    return apply_circuit(_expansion_input(state), build_d4_to_d5_circuit())


def run_expansion(state: StateVector, outcome: int) -> tuple[float, StateVector]:
    """Run the restricted-access expansion on a 4-qubit input and post-select
    the flag on ``outcome``: 0 is the success branch, 1 the failure branch.

    Returns ``(probability, branch)`` as :func:`sim.postselect` does, with
    ``branch`` the renormalized 5-qubit state on (d1, d2, d3, d4, a1), and
    raises ``ValueError`` if that branch is impossible for this input."""
    return _expansion_branch(expansion_premeasurement(state), outcome)


def _expansion_branch(pre: StateVector, outcome: int) -> tuple[float, StateVector]:
    """Post-select the flag of a pre-measurement state
    (:func:`expansion_premeasurement`) on ``outcome``, as :func:`run_expansion`
    does; both branches can be read from one evolved state.

    Raises ``ValueError`` if that branch is impossible for this state.
    """
    n = pre.n_qubits
    probability, collapsed = postselect(pre, FLAG_QUBIT, outcome)
    branch = collapsed.amplitudes.reshape((2,) * n)[_axis_index(n, [(FLAG_QUBIT, outcome)])]
    return probability, StateVector(n - 1, branch.ravel())


def split_failure(branch: StateVector) -> tuple[StateVector, StateVector, float]:
    """Split a flag-1 branch of :func:`run_expansion` across (d1, d2, d3) |
    (d4, a1) by one SVD, its Schmidt decomposition, into ``(remnant,
    separated, purity)``: the dominant Schmidt vector on (d1, d2, d3), the
    recyclable remnant, and its partner on (d4, a1), each phase-anchored, and
    Tr(rho^2) of either reduced state (they share a spectrum), 1 when the
    factors separate. Raises ``ValueError`` unless ``branch`` has 5 qubits.
    """
    if branch.n_qubits != 5:
        raise ValueError(f"failure branch must have 5 qubits, got {branch.n_qubits}")
    # Rows index (d1, d2, d3), columns (d4, a1): branch = sum_k s_k u_k (x) vh_k.
    u, s, vh = np.linalg.svd(branch.amplitudes.reshape(8, 4))
    return _phase_anchored(u[:, 0]), _phase_anchored(vh[0]), float(np.sum(s**4))


def run_recycling(remnant: StateVector) -> StateVector:
    """Feed a 3-qubit state back through the deterministic expansion.

    Appends a fresh |0> qubit and applies the 4-qubit expansion circuit. An
    exact single-excitation input reproduces the 4-qubit Dicke state; the
    W-like failure remnant must first be mapped to single-excitation form by
    an X on each of its qubits, after which the output fidelity to the Dicke
    state is (3 + 2*sqrt(2))/6, about 0.9714.
    """
    if remnant.n_qubits != 3:
        raise ValueError(f"recycling input must have 3 qubits, got {remnant.n_qubits}")
    four = tensor(remnant, new_basis_state(1, "0"))
    return apply_circuit(four, build_w3_to_d4_circuit())


@dataclass(frozen=True)
class ProtocolStats:
    """Seeded shot statistics of the full expansion-and-measure protocol."""

    shots: int
    successes: int
    counts: dict[str, int] = field(repr=False)

    @property
    def estimated_success_probability(self) -> float:
        return self.successes / self.shots


@functools.cache
def _nominal_distribution() -> tuple[StateVector, np.ndarray]:
    """The expansion circuit's output on D(4,2) with |00> ancillas and its
    Born probabilities, normalized and read-only; computed on the first call."""
    pre = expansion_premeasurement(dicke_state(4, 2))
    probs = np.abs(pre.amplitudes) ** 2
    # Normalized within NORM_ATOL only; multinomial rejects a sum above 1.
    probs /= probs.sum()
    probs.flags.writeable = False
    return pre, probs


def run_protocol_stats(shots: int, seed: int) -> ProtocolStats:
    """Sample ``shots`` full-register measurements of the expansion circuit.

    Each shot measures all six qubits of the pre-measurement state in the
    computational basis; the flag is the last bit of the reported bitstring.
    The histogram of independent shots is Multinomial(shots, |psi_i|^2), so
    it is drawn in one call of
    ``np.random.Generator(np.random.Philox(key=seed)).multinomial``: a pure
    function of (seed, shots), at a cost that does not grow with ``shots``.
    The distribution is computed once per process, on the first call.
    ``shots`` and ``seed`` must be integers; a float or bool raises ``TypeError``.
    ``shots`` must lie in [1, 2**63), the range of numpy's int64 count, and
    ``seed`` in [0, 2**128), the range of a Philox key.
    """
    shots, seed = _index(shots), _index(seed)
    if not 1 <= shots < 1 << 63:
        raise ValueError(f"shots must be an integer in [1, 2**63), got {shots}")
    if not 0 <= seed < 1 << 128:
        raise ValueError(f"seed must be an integer in [0, 2**128), got {seed}")
    pre, probs = _nominal_distribution()
    totals = np.random.Generator(np.random.Philox(key=seed)).multinomial(shots, probs)
    counts = {pre.bitstring(int(i)): int(totals[i]) for i in np.flatnonzero(totals)}
    flag_zero = totals.reshape((2,) * pre.n_qubits)[_axis_index(pre.n_qubits, [(FLAG_QUBIT, 0)])]
    return ProtocolStats(shots=shots, successes=int(flag_zero.sum()), counts=counts)
