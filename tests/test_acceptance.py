"""Acceptance criteria for the full deliverable, one test per criterion.

Each test prints a single pass line once its assertions hold, so running
``pytest tests/test_acceptance.py -v -s`` yields a per-criterion report.
"""
import math
from fractions import Fraction

import numpy as np

from conftest import random_named_circuit, random_state
from dickesim.dicke import (
    BipartitionParams,
    decompose_source,
    decompose_target,
    dicke_state,
    max_success_probability,
    verify_decomposition,
    wlike_state,
)
from dickesim.noise import FidelityMode, fidelity_sweep
from dickesim.protocols import (
    build_d4_prep_circuit,
    build_d4_to_d5_circuit,
    build_w3_circuit,
    build_w3_to_d4_circuit,
    expansion_premeasurement,
    run_expansion,
    run_protocol_stats,
    split_failure,
    verify_untouched,
)
from dickesim.sim import (
    StateVector,
    apply_circuit,
    circuit_unitary,
    fidelity_pure,
    new_basis_state,
    postselect,
)


def report(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_exact_success_probability():
    """Analytic flag statistics: P(flag=0) equals 5/6 within 1e-12, matching
    the closed-form maximum success probability exactly."""
    pre = expansion_premeasurement(dicke_state(4, 2))
    probability, _ = postselect(pre, 5, 0)
    assert abs(probability - 5 / 6) <= 1e-12
    closed_form = max_success_probability(
        BipartitionParams(total=4, excitations=2, accessible=3, added=1, added_excitations=1)
    )
    assert closed_form == Fraction(5, 6)
    assert abs(probability - float(closed_form)) <= 1e-12
    report("1 exact success probability 5/6")


def test_criterion_2_target_state_fidelity():
    """Post-selected success branch reproduces the 5-qubit Dicke state."""
    _, branch = run_expansion(dicke_state(4, 2), 0)
    assert fidelity_pure(branch, dicke_state(5, 3)) >= 1 - 1e-10
    report("2 success-branch fidelity to the 5-qubit Dicke state")


def test_criterion_3_recyclable_branch():
    """Failure branch: W-like remnant on (d1,d2,d3), pure (d4,a1) factor."""
    remnant, _, purity = split_failure(run_expansion(dicke_state(4, 2), 1)[1])
    assert fidelity_pure(remnant, wlike_state()) >= 1 - 1e-10
    assert abs(purity - 1.0) <= 1e-10
    report("3 recyclable failure branch")


def test_criterion_4_overlap_claim():
    """|<2-excitation state|W-like remnant>|^2 = (1 + 1/sqrt(2))^2 / 3."""
    overlap = fidelity_pure(dicke_state(3, 2), wlike_state())
    assert abs(overlap - (1 + 1 / math.sqrt(2)) ** 2 / 3) <= 1e-12
    assert abs(overlap - 0.97) <= 0.005
    report("4 remnant overlap 0.9714")


def test_criterion_5_deterministic_expansion():
    """The 4-qubit expansion is exact with 3 two-qubit gates; 6 in total with prep."""
    expansion = build_w3_to_d4_circuit()
    source = StateVector(4, np.kron(dicke_state(3, 1).amplitudes, [1, 0]))
    out = apply_circuit(source, expansion)
    assert fidelity_pure(out, dicke_state(4, 2)) >= 1 - 1e-10
    assert expansion.count_gates(1) == 3
    combined = build_w3_circuit().count_gates(1) + expansion.count_gates(1)
    assert combined == 6
    assert build_d4_prep_circuit().count_gates(1) == 6
    report("5 deterministic expansion with six two-qubit gates")


def test_criterion_6_decomposition_identities():
    """Closed-form split coefficients, checked against tensor expansion."""
    params = BipartitionParams(
        total=4, excitations=2, accessible=3, added=1, added_excitations=1
    )
    source = decompose_source(params)
    assert [t.weight for t in source.terms] == [Fraction(1, 2), Fraction(1, 2)]
    target = decompose_target(params)
    assert [t.weight for t in target.terms] == [Fraction(2, 5), Fraction(3, 5)]
    assert verify_decomposition(dicke_state(4, 2), (0, 1, 2), (3,), source)
    assert verify_decomposition(dicke_state(5, 3), (0, 1, 2, 3), (4,), target)
    for total in range(2, 7):
        for excitations in range(total + 1):
            for accessible in range(1, total):
                sweep_params = BipartitionParams(
                    total=total, excitations=excitations, accessible=accessible
                )
                assert verify_decomposition(
                    dicke_state(total, excitations),
                    tuple(range(accessible)),
                    tuple(range(accessible, total)),
                    decompose_source(sweep_params),
                )
    report("6 decomposition identities and exhaustive sweep")


def test_criterion_7_monte_carlo_statistics():
    """100,000 seeded shots: success rate within 5/6 +/- 0.005 and a uniform
    1/12 share for each of the ten success strings (within 5 sigma)."""
    shots = 100_000
    stats = run_protocol_stats(shots, seed=42)
    assert abs(stats.estimated_success_probability - 5 / 6) <= 0.005
    # 4-sigma binomial interval around 5/6 at 100k shots
    assert 0.8286 <= stats.estimated_success_probability <= 0.8380
    success_strings = [bits for bits in stats.counts if bits[-1] == "0"]
    assert len(success_strings) == 10
    expected = shots / 12
    bound = 5 * math.sqrt(shots * (1 / 12) * (11 / 12))
    for bits in success_strings:
        assert abs(stats.counts[bits] - expected) <= bound
    report("7 Monte-Carlo shot statistics")


def test_criterion_8_robustness_anchors():
    """Fidelity sweep anchors in the pinned (post-selected) mode; the full
    101-point curve is produced as data."""
    grid = np.linspace(0.0, 0.1, 101)
    fidelities = fidelity_sweep(grid, mode=FidelityMode.POST_SELECTED_SUCCESS)
    assert len(fidelities) == 101
    by_theta = {round(theta, 10): fidelity for theta, fidelity in zip(grid.tolist(), fidelities)}
    assert abs(by_theta[0.0] - 1.0) <= 1e-12
    assert by_theta[0.01] >= 0.99
    assert by_theta[0.1] <= by_theta[0.01]
    report("8 robustness anchors F(0)=1, F(0.01)>=0.99, F(0.1)<=F(0.01)")


def test_criterion_9_oracle_equivalence():
    """Full-matrix oracle agrees with gate-by-gate application."""
    protocol = build_d4_to_d5_circuit()
    matrix = circuit_unitary(protocol)
    for index in range(64):
        basis = new_basis_state(6, format(index, "06b"))
        evolved = apply_circuit(basis, protocol)
        assert np.max(np.abs(matrix[:, index] - evolved.amplitudes)) <= 1e-12
    rng = np.random.default_rng(99)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        circuit = random_named_circuit(rng, n, int(rng.integers(1, 11)))
        state = random_state(rng, n)
        via_matrix = circuit_unitary(circuit) @ state.amplitudes
        direct = apply_circuit(state, circuit).amplitudes
        assert np.max(np.abs(via_matrix - direct)) <= 1e-12
    report("9 oracle equivalence on the protocol circuit and 50 random circuits")


def test_criterion_10_structural_claims():
    """d4 untouched; 24 labeled steps with the G8 pattern repeated at G10, G18."""
    circuit = build_d4_to_d5_circuit()
    assert verify_untouched(circuit, "d4")
    labels = circuit.step_labels()
    assert labels == tuple(f"G{i}" for i in range(1, 25))
    by_label = {}
    for gate in circuit.gates:
        by_label.setdefault(gate.label, []).append(gate)
    reference = by_label["G8"][0]
    for repeat in ("G10", "G18"):
        (gate,) = by_label[repeat]
        assert gate.controls == reference.controls
        assert gate.target == reference.target
        np.testing.assert_array_equal(gate.matrix, reference.matrix)
    report("10 structural claims (untouched qubit, step inventory)")
