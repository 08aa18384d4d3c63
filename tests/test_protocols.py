"""Circuit builders, the flag-post-selected expansion, recycling, and shot statistics."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_state
from dickesim import gates, protocols
from dickesim.dicke import dicke_state, wlike_state
from dickesim.gates import CircuitProgram
from dickesim.protocols import (
    build_d4_prep_circuit,
    build_d4_to_d5_circuit,
    build_w3_circuit,
    build_w3_to_d4_circuit,
    expansion_premeasurement,
    run_expansion,
    run_protocol_stats,
    run_recycling,
    split_failure,
    verify_untouched,
)
from dickesim.sim import (
    StateVector,
    apply_circuit,
    apply_gate,
    circuit_unitary,
    fidelity_pure,
    gate_unitary,
    new_basis_state,
    postselect,
    tensor,
)

SQRT1_2 = 1 / math.sqrt(2)


# ---------------------------------------------------------------------------
# three-qubit preparation


def test_w3_circuit_prepares_w_state():
    out = apply_circuit(new_basis_state(3, "000"), build_w3_circuit())
    assert fidelity_pure(out, dicke_state(3, 1)) >= 1 - 1e-10


def test_w3_circuit_uses_three_two_qubit_gates():
    assert build_w3_circuit().count_gates(1) == 3


def test_w3_circuit_unitary_is_unitary():
    matrix = circuit_unitary(build_w3_circuit())
    assert np.max(np.abs(matrix.conj().T @ matrix - np.eye(8))) <= 1e-10


# ---------------------------------------------------------------------------
# deterministic expansion to four qubits


def test_w3_to_d4_maps_w_state_to_dicke():
    four = apply_circuit(
        StateVector(4, np.kron(dicke_state(3, 1).amplitudes, [1, 0])),
        build_w3_to_d4_circuit(),
    )
    assert fidelity_pure(four, dicke_state(4, 2)) >= 1 - 1e-10


def test_w3_to_d4_on_all_zeros():
    out = apply_circuit(new_basis_state(4, "0000"), build_w3_to_d4_circuit())
    expected = np.zeros(16, dtype=complex)
    expected[0b1110] = SQRT1_2
    expected[0b0001] = SQRT1_2
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)


def test_w3_to_d4_gate_inventory():
    circuit = build_w3_to_d4_circuit()
    assert circuit.count_gates(1) == 3
    assert circuit.count_gates(0) == 2  # one H, one X
    names = [g.name for g in circuit.gates]
    assert names == ["H", "X", "X", "X", "X"]
    assert circuit.gates[0].controls == ()


def test_w3_to_d4_deterministic_across_phases():
    circuit = build_w3_to_d4_circuit()
    rng = np.random.default_rng(41)
    for _ in range(100):
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        source = StateVector(4, np.kron(dicke_state(3, 1).amplitudes * phase, [1, 0]))
        out = apply_circuit(source, circuit)
        assert fidelity_pure(out, dicke_state(4, 2)) == pytest.approx(1.0, abs=1e-12)


def test_combined_preparation_has_six_two_qubit_gates():
    circuit = build_d4_prep_circuit()
    assert circuit.count_gates(1) == 6
    out = apply_circuit(new_basis_state(4, "0000"), circuit)
    assert fidelity_pure(out, dicke_state(4, 2)) >= 1 - 1e-10


# ---------------------------------------------------------------------------
# the shared instance


@pytest.mark.parametrize(
    "builder",
    [build_w3_circuit, build_w3_to_d4_circuit, build_d4_prep_circuit, build_d4_to_d5_circuit],
)
def test_builders_return_one_read_only_circuit(builder):
    circuit = builder()
    assert builder() is circuit
    for gate in circuit.gates:
        with pytest.raises(ValueError):
            gate.matrix[0, 0] = 2.0


def test_nominal_input_is_d42_with_two_zero_ancillas():
    expected = np.kron(dicke_state(4, 2).amplitudes, new_basis_state(2, "00").amplitudes)
    source = protocols._expansion_input(dicke_state(4, 2))
    assert source.amplitudes.tobytes() == expected.tobytes()
    with pytest.raises(ValueError):
        source.amplitudes[0] = 1.0
    for n_qubits in (3, 5):
        with pytest.raises(ValueError, match="expansion input must have 4 qubits"):
            protocols._expansion_input(dicke_state(n_qubits, 1))


# ---------------------------------------------------------------------------
# restricted-access expansion circuit structure


def test_the_layout_places_every_qubit_of_the_expansion_circuit():
    circuit = build_d4_to_d5_circuit()
    layout = protocols.EXPANSION_LAYOUT
    assert circuit.qubit_labels == layout.qubit_labels
    assert [layout.index(label) for label in layout.qubit_labels] == list(range(6))
    assert protocols.FLAG_QUBIT == circuit.qubit_index(layout.flag) == 5
    with pytest.raises(ValueError, match="^unknown qubit label 'nope'$"):
        layout.index("nope")


def test_untouched_qubit_is_never_referenced():
    circuit = build_d4_to_d5_circuit()
    assert verify_untouched(circuit, "d4")
    assert not verify_untouched(circuit, "a1")
    with pytest.raises(ValueError):
        verify_untouched(circuit, "nope")


def test_untouched_on_empty_circuit():
    assert verify_untouched(CircuitProgram(2, (), ("a", "b")), "a")


def test_step_labels_are_complete_and_ordered():
    circuit = build_d4_to_d5_circuit()
    assert circuit.step_labels() == tuple(f"G{i}" for i in range(1, 25))


def test_repeated_steps_share_structure():
    circuit = build_d4_to_d5_circuit()
    by_label = {}
    for gate in circuit.gates:
        by_label.setdefault(gate.label, []).append(gate)
    for label in ("G8", "G10", "G18"):
        (gate,) = by_label[label]
        assert gate.controls == (0, 4)
        assert gate.target == 5
        np.testing.assert_array_equal(gate.matrix, gates.X_MATRIX)


def test_three_control_gate_inventory():
    circuit = build_d4_to_d5_circuit()
    triples = [g for g in circuit.gates if len(g.controls) == 3]
    assert [g.label for g in triples] == ["G12", "G21"]
    assert circuit.count_gates(2) == 9
    assert circuit.count_gates(1) == 5  # four CNOTs and one CH
    assert circuit.count_gates(0) == 13


def test_circuit_matrix_commutes_with_flip_on_untouched_qubit():
    circuit = build_d4_to_d5_circuit()
    matrix = circuit_unitary(circuit)
    flip = gate_unitary(gates.x(3), 6)
    assert np.max(np.abs(matrix @ flip - flip @ matrix)) <= 1e-12


# ---------------------------------------------------------------------------
# flag-post-selected expansion


def test_flag_probability_is_exactly_five_sixths():
    pre = expansion_premeasurement(dicke_state(4, 2))
    p_success, _ = postselect(pre, 5, 0)
    p_failure, _ = postselect(pre, 5, 1)
    assert abs(p_success - 5 / 6) <= 1e-12
    assert abs(p_failure - 1 / 6) <= 1e-12


# P(flag = 0) on D(4,2)|00> after each of the expansion circuit's 29 gate
# records, in order; G9's two records are its X on d1 and its CNOT.
FLAG0_AFTER_EACH_RECORD = (
    [("G1", 1), ("G2", 1), ("G3", 1), ("G4", 1), ("G5", 1), ("G6", 1), ("G7", 1)]
    + [("G8", Fraction(2, 3)), ("G9", Fraction(2, 3)), ("G9", Fraction(5, 6))]
    + [("G10", 1), ("G11", 1), ("G11", 1), ("G11", 1)]
    + [(label, Fraction(11, 12)) for label in ("G12", "G13", "G13", "G14", "G15", "G16", "G17")]
    + [("G18", Fraction(3, 4)), ("G19", Fraction(17, 24)), ("G20", Fraction(3, 4))]
    + [(label, Fraction(5, 6)) for label in ("G21", "G22", "G22", "G23", "G24")]
)


def test_flag_probability_after_every_gate_record():
    # every prefix, so both X runs are also cut at every point
    circuit = build_d4_to_d5_circuit()
    source = protocols._expansion_input(dicke_state(4, 2))
    assert [gate.label for gate in circuit.gates] == [label for label, _ in FLAG0_AFTER_EACH_RECORD]
    for length, (_, expected) in enumerate(FLAG0_AFTER_EACH_RECORD, start=1):
        prefix = CircuitProgram(6, circuit.gates[:length], circuit.qubit_labels)
        out = apply_circuit(source, prefix).amplitudes
        # the flag is the last qubit, so flag-0 amplitudes sit at even indices
        assert abs(float(np.sum(np.abs(out[::2]) ** 2)) - expected) <= 1e-12, length


def test_expansion_success_branch():
    probability, branch = run_expansion(dicke_state(4, 2), 0)
    assert probability == pytest.approx(5 / 6, abs=1e-12)
    assert branch.n_qubits == 5
    assert fidelity_pure(branch, dicke_state(5, 3)) >= 1 - 1e-10


def test_expansion_failure_branch():
    probability, branch = run_expansion(dicke_state(4, 2), 1)
    assert probability == pytest.approx(1 / 6, abs=1e-12)
    remnant, separated, purity = split_failure(branch)
    assert fidelity_pure(remnant, wlike_state()) >= 1 - 1e-10
    assert purity == pytest.approx(1.0, abs=1e-10)
    # d4 and the first ancilla come out in |00>
    np.testing.assert_allclose(separated.amplitudes, [1, 0, 0, 0], atol=1e-10)


def _flag_branch(source, outcome):
    """The normalized flag-``outcome`` branch of the expansion on (d1, d2, d3,
    d4, a1), read off the pre-measurement state's flag axis."""
    branch = expansion_premeasurement(source).amplitudes.reshape((2,) * 6)[..., outcome].ravel()
    return branch / np.linalg.norm(branch)


def _reduced_density_matrix(amplitudes, keep):
    """Partial trace of a 5-qubit state down to the ``keep`` qubits, M M^dagger."""
    view = np.moveaxis(amplitudes.reshape((2,) * 5), keep, range(len(keep)))
    m = view.reshape(1 << len(keep), -1)
    return m @ m.conj().T


@pytest.mark.parametrize("outcome", [0, 1])
def test_branch_state_is_the_flag_axis(outcome):
    rng = np.random.default_rng(2203)
    for source in [dicke_state(4, 2)] + [random_state(rng, 4) for _ in range(3)]:
        _, collapsed = postselect(expansion_premeasurement(source), 5, outcome)
        expected = collapsed.amplitudes.reshape((2,) * 6)[..., outcome].ravel()
        amplitudes = run_expansion(source, outcome)[1].amplitudes
        assert amplitudes.tobytes() == expected.tobytes()
        assert amplitudes.base is None and not amplitudes.flags.writeable


def test_failure_split_matches_density_matrix_oracle():
    # random inputs have entangled failure branches, so the Schmidt split
    # is checked where it is not a plain product
    rng = np.random.default_rng(2205)
    gapped = 0
    for _ in range(40):
        source = random_state(rng, 4)
        remnant, separated, purity = split_failure(run_expansion(source, 1)[1])
        assert purity < 0.999
        branch = _flag_branch(source, 1)
        for keep, factor in (((0, 1, 2), remnant), ((3, 4), separated)):
            rho = _reduced_density_matrix(branch, keep)
            assert abs(np.trace(rho @ rho).real - purity) <= 1e-12
            amplitudes = factor.amplitudes
            anchor = amplitudes[np.argmax(np.abs(amplitudes))]
            assert anchor.real > 0 and abs(anchor.imag) <= 1e-15
            values, vectors = np.linalg.eigh(rho)
            if values[-1] - values[-2] > 1e-6:
                gapped += 1
                assert abs(np.vdot(vectors[:, -1], amplitudes)) ** 2 >= 1 - 1e-12
    assert gapped == 80


def test_failure_factors_reproduce_the_nominal_branch():
    remnant, separated, _ = split_failure(run_expansion(dicke_state(4, 2), 1)[1])
    product = tensor(remnant, separated).amplitudes
    np.testing.assert_allclose(product, _flag_branch(dicke_state(4, 2), 1), rtol=0, atol=1e-12)


def test_run_expansion_equals_both_branches_of_one_evolved_state():
    rng = np.random.default_rng(1907)
    for source in [dicke_state(4, 2)] + [random_state(rng, 4) for _ in range(3)]:
        pre = expansion_premeasurement(source)
        for outcome in (0, 1):
            alone_probability, alone = run_expansion(source, outcome)
            shared_probability, shared = protocols._expansion_branch(pre, outcome)
            assert alone_probability == shared_probability
            assert alone.amplitudes.tobytes() == shared.amplitudes.tobytes()
            if outcome == 1:
                *alone_factors, alone_purity = split_failure(alone)
                *shared_factors, shared_purity = split_failure(shared)
                assert alone_purity == shared_purity
                for a, b in zip(alone_factors, shared_factors):
                    assert a.amplitudes.tobytes() == b.amplitudes.tobytes()


def test_expansion_rejects_wrong_register_size():
    with pytest.raises(ValueError):
        run_expansion(dicke_state(3, 1), 0)


@pytest.mark.parametrize("n_qubits", [4, 6])
def test_split_failure_rejects_wrong_register_size(n_qubits):
    with pytest.raises(ValueError, match="failure branch must have 5 qubits"):
        split_failure(dicke_state(n_qubits, 1))


def test_expansion_rejects_an_impossible_or_invalid_flag_outcome():
    # |1100> never raises the flag, so its failure branch has probability 0
    with pytest.raises(ValueError, match="has probability"):
        run_expansion(new_basis_state(4, "1100"), 1)
    with pytest.raises(ValueError, match="outcome must be 0 or 1"):
        run_expansion(dicke_state(4, 2), 2)
    # True selected the whole register and failed as an unnormalized state
    for outcome in (True, 0.0):
        with pytest.raises(TypeError):
            run_expansion(dicke_state(4, 2), outcome)


def test_success_state_is_permutation_symmetric():
    amps = run_expansion(dicke_state(4, 2), 0)[1].amplitudes
    rng = np.random.default_rng(43)
    for _ in range(5):
        perm = rng.permutation(5)
        permuted = np.zeros_like(amps)
        for index in range(32):
            target = 0
            for q in range(5):
                if (index >> (4 - q)) & 1:
                    target |= 1 << (4 - int(perm[q]))
            permuted[target] = amps[index]
        relabeled = StateVector(5, permuted)
        assert fidelity_pure(relabeled, dicke_state(5, 3)) >= 1 - 1e-10


# ---------------------------------------------------------------------------
# recycling


def test_recycling_w_state_rebuilds_dicke():
    assert fidelity_pure(run_recycling(dicke_state(3, 1)), dicke_state(4, 2)) >= 1 - 1e-10


def test_recycling_all_zeros():
    out = run_recycling(new_basis_state(3, "000"))
    expected = np.zeros(16, dtype=complex)
    expected[0b1110] = SQRT1_2
    expected[0b0001] = SQRT1_2
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)


def test_recycling_the_wlike_remnant():
    remnant = wlike_state()
    for qubit in range(3):
        remnant = apply_gate(remnant, gates.x(qubit))
    fidelity = fidelity_pure(run_recycling(remnant), dicke_state(4, 2))
    assert fidelity == pytest.approx((3 + 2 * math.sqrt(2)) / 6, abs=1e-12)
    assert fidelity > 0.9


def test_recycling_rejects_wrong_size():
    with pytest.raises(ValueError):
        run_recycling(dicke_state(4, 2))


# ---------------------------------------------------------------------------
# shot statistics


def test_stats_reproducible_across_runs():
    first = run_protocol_stats(200, seed=123)
    second = run_protocol_stats(200, seed=123)
    assert first.counts == second.counts
    assert first.successes == second.successes


def test_stats_single_shot():
    stats = run_protocol_stats(1, seed=9)
    assert stats.shots == 1
    assert sum(stats.counts.values()) == 1


def test_stats_rejects_zero_shots():
    with pytest.raises(ValueError):
        run_protocol_stats(0, seed=1)


def test_stats_take_shots_up_to_the_int64_range():
    # numpy's multinomial counts in int64; 2**63 raised its OverflowError
    assert run_protocol_stats(2**63 - 1, seed=1).shots == 2**63 - 1
    message = r"^shots must be an integer in \[1, 2\*\*63\), got 9223372036854775808$"
    for shots in (2**63, np.uint64(2**63)):
        with pytest.raises(ValueError, match=message):
            run_protocol_stats(shots, seed=1)


def test_stats_refuse_a_fractional_shot_count():
    # a fractional count would make the estimate successes / 10.5
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        run_protocol_stats(10.5, seed=1)
    stats = run_protocol_stats(np.int64(10), seed=1)
    assert type(stats.shots) is int and stats == run_protocol_stats(10, seed=1)


@pytest.mark.parametrize(
    "seed, error, message",
    [
        (1.5, TypeError, "cannot be interpreted as an integer"),
        ("7", TypeError, "cannot be interpreted as an integer"),
        (-1, ValueError, r"^seed must be an integer in \[0, 2\*\*128\), got -1$"),
        (2**128, ValueError, rf"^seed must be an integer in \[0, 2\*\*128\), got {2**128}$"),
    ],
    ids=["float", "str", "negative", "2**128"],
)
def test_stats_refuse_a_seed_that_is_not_a_philox_key(seed, error, message):
    # a float or string seed was read as the integer it names
    with pytest.raises(error, match=message):
        run_protocol_stats(1000, seed=seed)


def test_stats_take_every_seed_in_the_philox_key_range():
    assert run_protocol_stats(10, seed=np.uint64(7)) == run_protocol_stats(10, seed=7)
    for seed in (0, 2**128 - 1):
        assert run_protocol_stats(10, seed=seed).shots == 10


def test_stats_flag_convention_and_support():
    stats = run_protocol_stats(4000, seed=7)
    pre = expansion_premeasurement(dicke_state(4, 2))
    support = {
        pre.bitstring(i)
        for i in range(64)
        if abs(pre.amplitudes[i]) > 1e-12
    }
    assert sum(stats.counts.values()) == stats.shots
    for bits, count in stats.counts.items():
        assert len(bits) == 6
        assert bits in support
        assert count > 0
    successes = sum(c for b, c in stats.counts.items() if b[-1] == "0")
    assert successes == stats.successes
    # 4-sigma binomial interval around 5/6
    bound = 4 * math.sqrt((5 / 6) * (1 / 6) / stats.shots)
    assert abs(stats.estimated_success_probability - 5 / 6) <= bound


def test_stats_seed_changes_outcomes():
    a = run_protocol_stats(500, seed=1)
    b = run_protocol_stats(500, seed=2)
    assert a.counts != b.counts


def test_stats_evolve_the_circuit_once_per_process(evolved_states):
    protocols._nominal_distribution.cache_clear()
    run_protocol_stats(10**4, seed=5)
    assert sum(evolved_states) == 1
    evolved_states.clear()
    for shots in (1, 10**4, 10**9):
        run_protocol_stats(shots, seed=6)
    assert sum(evolved_states) == 0


def test_stats_distribution_is_read_only():
    pre, probs = protocols._nominal_distribution()
    for array in (pre.amplitudes, probs):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


@pytest.mark.parametrize("shots", [1, 4000, 10**9])
def test_warm_stats_equal_cold_stats(shots):
    protocols._nominal_distribution.cache_clear()
    cold = run_protocol_stats(shots, seed=31)
    assert run_protocol_stats(shots, seed=31) == cold


def _support_probabilities():
    """Born probabilities of the 64 outcome strings, and the mask of the
    13 that can occur."""
    pre = expansion_premeasurement(dicke_state(4, 2))
    probs = np.abs(pre.amplitudes) ** 2
    return pre, probs, np.abs(pre.amplitudes) > 1e-12


def test_stats_bins_match_born_probabilities():
    shots = 10**6
    stats = run_protocol_stats(shots, seed=2718)
    pre, probs, support = _support_probabilities()
    counts = np.array([stats.counts.get(pre.bitstring(i), 0) for i in range(64)])
    assert not counts[~support].any()
    stderr = np.sqrt(shots * probs * (1 - probs))
    assert np.all(np.abs(counts - shots * probs) <= 5 * stderr)


@settings(max_examples=100)
@given(st.integers(1, 10**9), st.integers(0, 2**64 - 1))
def test_stats_histogram_is_consistent(shots, seed):
    stats = run_protocol_stats(shots, seed)
    pre, _, support = _support_probabilities()
    allowed = {pre.bitstring(i) for i in np.flatnonzero(support)}
    assert sum(stats.counts.values()) == shots
    assert set(stats.counts) <= allowed
    assert stats.successes == sum(c for b, c in stats.counts.items() if b[-1] == "0")
