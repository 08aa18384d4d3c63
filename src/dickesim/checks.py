"""Analytic (non-sampled) verification checks behind the ``verify`` subcommand.

Each check compares a simulated quantity against its closed-form value and
reports name, expected, actual and tolerance; ``dickesim verify`` renders the
list through the CLI's one table type, with 12 significant digits.

The fixed references of the paper's instance, the expansion circuit's
full-matrix oracle, its commutator with a bit flip on its untouched qubit and
the recycling flips, are built once per process, on the first call
(:func:`_expansion_references`); every call runs the kernel and checks it
against them. A call evolves D(4,2) with |00> ancillas once and reads both
flag branches from that one state, and applies the three recycling flips as
one circuit, which the kernel runs as a single permutation.
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .dicke import (
    BipartitionParams,
    decompose_source,
    decompose_target,
    dicke_state,
    max_success_probability,
    verify_decomposition,
    wlike_state,
)
from .noise import FidelityMode, fidelity_sweep
from .protocols import (
    _expansion_branch,
    build_d4_prep_circuit,
    build_d4_to_d5_circuit,
    build_w3_circuit,
    expansion_premeasurement,
    run_recycling,
    split_failure,
    verify_untouched,
)
from .sim import (
    _evolve,
    apply_circuit,
    fidelity_pure,
    new_basis_state,
)
from . import gates, sim

# Oracle-check basis columns per kernel call, which bounds a call's peak memory.
BATCH_CHUNK = 16


class Check(NamedTuple):
    name: str
    expected: float
    actual: float
    tolerance: float | None
    comparison: str  # "eq" (within tolerance), "ge", or "le"
    passed: bool


class _References(NamedTuple):
    """The expansion circuit's full matrix ``U``; max |UP - PU| for the bit
    flip ``P`` on its untouched qubit; and the three flips that map the
    W-like remnant to single-excitation form, as one circuit."""

    oracle: np.ndarray
    d4_commutator: float
    recycling_flips: gates.CircuitProgram


@functools.cache
def _expansion_references() -> _References:
    """Build the paper instance's verification references once per process,
    on the first call, through the Kronecker-product oracle
    (:func:`sim.circuit_unitary`, :func:`sim.gate_unitary`). The oracle is
    read-only, as it is shared by every later call."""
    circuit = build_d4_to_d5_circuit()
    oracle = sim.circuit_unitary(circuit)
    oracle.flags.writeable = False
    flip = sim.gate_unitary(gates.x(circuit.qubit_index("d4")), circuit.n_qubits)
    return _References(
        oracle,
        float(np.max(np.abs(oracle @ flip - flip @ oracle))),
        gates.CircuitProgram(3, tuple(gates.x(qubit) for qubit in range(3)), ("d1", "d2", "d3")),
    )


def run_all_checks() -> list[Check]:
    checks: list[Check] = []
    oracle, d4_commutator, recycling_flips = _expansion_references()

    def eq(name: str, expected: float, actual: float, tolerance: float) -> None:
        expected, actual = float(expected), float(actual)
        passed = abs(actual - expected) <= tolerance
        checks.append(Check(name, expected, actual, tolerance, "eq", passed))

    def ge(name: str, bound: float, actual: float) -> None:
        bound, actual = float(bound), float(actual)
        checks.append(Check(name, bound, actual, None, "ge", actual >= bound))

    def le(name: str, bound: float, actual: float) -> None:
        bound, actual = float(bound), float(actual)
        checks.append(Check(name, bound, actual, None, "le", actual <= bound))

    # The paper's fixed states, built once per call and shared by the checks.
    d4_state, d5_state, remnant = dicke_state(4, 2), dicke_state(5, 3), wlike_state()

    # Expansion protocol branches, both read from one evolved state.
    pre = expansion_premeasurement(d4_state)
    probability, success = _expansion_branch(pre, 0)
    eq("flag_probability", 5.0 / 6.0, probability, 1e-12)
    ge("success_fidelity", 1.0 - 1e-10, fidelity_pure(success, d5_state))
    probability, failure = _expansion_branch(pre, 1)
    eq("failure_probability", 1.0 / 6.0, probability, 1e-12)
    failure_remnant, _, purity = split_failure(failure)
    ge("remnant_fidelity", 1.0 - 1e-10, fidelity_pure(failure_remnant, remnant))
    # One Schmidt spectrum gives both reduced states' purity; both rows stay.
    eq("remnant_purity", 1.0, purity, 1e-10)
    eq("separated_purity", 1.0, purity, 1e-10)

    # Overlap of the W-like remnant with the two-excitation 3-qubit state.
    overlap = fidelity_pure(remnant, dicke_state(3, 2))
    eq("remnant_overlap", (1.0 + 1.0 / math.sqrt(2.0)) ** 2 / 3.0, overlap, 1e-12)

    # Deterministic preparation chain.
    w3 = apply_circuit(new_basis_state(3, "000"), build_w3_circuit())
    ge("w3_preparation_fidelity", 1.0 - 1e-10, fidelity_pure(w3, dicke_state(3, 1)))
    d4_prep = build_d4_prep_circuit()
    d4 = apply_circuit(new_basis_state(4, "0000"), d4_prep)
    ge("d4_preparation_fidelity", 1.0 - 1e-10, fidelity_pure(d4, d4_state))
    eq("two_qubit_controlled_gate_count", 6, d4_prep.count_gates(1), 0.0)

    # Recycling the W-like remnant (after mapping it to single-excitation form).
    flipped = apply_circuit(remnant, recycling_flips)
    recycled = fidelity_pure(run_recycling(flipped), d4_state)
    ge("recycled_fidelity", 0.9, recycled)

    # Exact combinatorics.
    params = BipartitionParams(
        total=4, excitations=2, accessible=3, added=1, added_excitations=1
    )
    pmax = max_success_probability(params)
    eq("max_success_probability", 5.0 / 6.0, float(pmax), 0.0)
    source_ok = verify_decomposition(
        d4_state, (0, 1, 2), (3,), decompose_source(params)
    )
    eq("source_decomposition", 1.0, float(source_ok), 0.0)
    target_ok = verify_decomposition(
        d5_state, (0, 1, 2, 3), (4,), decompose_target(params)
    )
    eq("target_decomposition", 1.0, float(target_ok), 0.0)

    # Structure of the expansion circuit.
    circuit = build_d4_to_d5_circuit()
    untouched = verify_untouched(circuit, "d4")
    eq("untouched_d4", 1.0, float(untouched), 0.0)
    eq("step_count", 24, len(circuit.step_labels()), 0.0)

    # Full-matrix oracle against the kernel, run on the basis columns in batches.
    n, dim = circuit.n_qubits, 1 << circuit.n_qubits
    steps = sim._circuit_steps(circuit)
    worst = 0.0
    for start in range(0, dim, BATCH_CHUNK):
        count = min(BATCH_CHUNK, dim - start)
        columns = np.zeros((count, dim), dtype=complex)
        columns[np.arange(count), start + np.arange(count)] = 1.0
        _evolve(columns.reshape((count,) + (2,) * n), n, steps)
        expected = oracle[:, start:start + count].T
        worst = max(worst, float(np.max(np.abs(expected - columns))))
    eq("oracle_equivalence", 0.0, worst, 1e-12)

    # The circuit matrix commutes with a bit flip on the untouched qubit.
    eq("untouched_commutes", 0.0, d4_commutator, 1e-12)

    # Robustness anchors.
    fidelities = fidelity_sweep([0.0, 0.01, 0.1], mode=FidelityMode.POST_SELECTED_SUCCESS)
    eq("sweep_fidelity_at_zero", 1.0, fidelities[0], 1e-12)
    ge("sweep_fidelity_at_0.01", 0.99, fidelities[1])
    le("sweep_decay", fidelities[1], fidelities[2])

    return checks
