"""Dicke-state construction and the exact bipartition combinatorics."""
import dataclasses
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_unitary
from dickesim import dicke, gates, protocols
from dickesim.dicke import (
    DECOMPOSITION_ATOL,
    BipartitionParams,
    DecompositionTerm,
    DickeDecomposition,
    decompose_source,
    decompose_target,
    dicke_state,
    max_success_probability,
    verify_decomposition,
    wlike_state,
)
from dickesim.sim import NORM_ATOL, StateVector, apply_gate, fidelity_pure


def permute_qubits(state, permutation):
    """Relabel qubit q as permutation[q]."""
    n = state.n_qubits
    amps = np.zeros_like(state.amplitudes)
    for index in range(1 << n):
        target = 0
        for q in range(n):
            if (index >> (n - 1 - q)) & 1:
                target |= 1 << (n - 1 - permutation[q])
        amps[target] = state.amplitudes[index]
    return StateVector(n, amps)


def popcounts(n):
    """Hamming weight of every n-bit basis string as a ``(2,) * n`` tensor."""
    index = np.arange(1 << n)
    return sum(((index >> q) & 1 for q in range(n)), np.zeros_like(index)).reshape((2,) * n)


# ---------------------------------------------------------------------------
# states


def test_dicke_4_2_support_and_amplitude():
    state = dicke_state(4, 2)
    expected = {0b1100, 0b1010, 0b1001, 0b0110, 0b0101, 0b0011}
    for index in range(16):
        if index in expected:
            assert state.amplitudes[index] == pytest.approx(1 / math.sqrt(6), abs=1e-15)
        else:
            assert state.amplitudes[index] == 0


def test_dicke_zero_excitations():
    state = dicke_state(3, 0)
    assert state.amplitudes[0] == 1


def test_dicke_state_matches_bit_count_loop():
    # byte for byte; popcount by shifts, as np.bitwise_count needs numpy >= 2.0
    assert dicke._popcount_table().tobytes() == popcounts(16).astype(np.uint8).tobytes()
    # n = 17, 18 and 20 build 2, 4 and 16 rows of the 2**16-entry table
    for n in [*range(1, 16), 16, 17, 18, 20]:
        popcount = popcounts(n)
        for k in range(n + 1):
            expected = np.where(popcount == k, 1.0 / math.sqrt(math.comb(n, k)), 0.0)
            amplitudes = dicke_state(n, k).amplitudes
            assert amplitudes.tobytes() == expected.astype(complex).tobytes()


def test_dicke_state_peak_memory_is_the_state_and_one_row():
    # no 2**n weight array: one 2**16 row comparison at a time
    dicke._popcount_table()
    tracemalloc.start()
    try:
        dicke_state(18, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**18 * 16 + 128 * 2**10


@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("a_mask", [0, 0b1010110101, 0b1111111111])
@pytest.mark.parametrize("size", [1 << b for b in range(11)])
def test_bit_sums_match_a_per_bit_loop(size, a_mask, stride):
    expected = [
        sum(stride if a_mask >> b & 1 else 1 for b in range(size.bit_length()) if i >> b & 1)
        for i in range(size)
    ]
    sums = dicke._bit_sums(size, a_mask, stride)
    assert sums.dtype == np.intp and sums.tolist() == expected


def test_dicke_22_11_passes_its_norm_check():
    # 705,432 equal amplitudes: the constructor's own norm must not round
    # past NORM_ATOL (np.linalg.norm gives |psi| - 1 = 1.1e-12 here)
    amplitudes = dicke_state(22, 11).amplitudes
    support = amplitudes[amplitudes != 0]
    assert len(support) == math.comb(22, 11)
    norm = math.sqrt(math.fsum(np.abs(support) ** 2))
    assert abs(norm - 1.0) <= NORM_ATOL


def test_dicke_rejects_bad_args():
    with pytest.raises(ValueError):
        dicke_state(3, 4)
    with pytest.raises(ValueError):
        dicke_state(3, -1)
    with pytest.raises(ValueError):
        dicke_state(0, 0)


def test_w4_amplitudes():
    state = dicke_state(4, 1)
    for bits in ("0001", "0010", "0100", "1000"):
        assert state.amplitudes[int(bits, 2)] == pytest.approx(0.5, abs=1e-15)


def test_w2_is_bell_like():
    state = dicke_state(2, 1)
    np.testing.assert_allclose(
        state.amplitudes, [0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0], atol=1e-15
    )


def test_wbar_is_bit_flip_of_w():
    flipped = dicke_state(3, 1)
    for qubit in range(3):
        flipped = apply_gate(flipped, gates.x(qubit))
    np.testing.assert_array_equal(flipped.amplitudes, dicke_state(3, 2).amplitudes)


def test_wlike_amplitudes():
    state = wlike_state()
    assert state.amplitudes[0b011] == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert state.amplitudes[0b110] == 0.5
    assert state.amplitudes[0b101] == 0.5
    assert state.amplitudes[0b000] == 0
    assert np.count_nonzero(state.amplitudes) == 3


def test_wlike_overlap_with_wbar():
    overlap = fidelity_pure(wlike_state(), dicke_state(3, 2))
    assert overlap == pytest.approx((1 + 1 / math.sqrt(2)) ** 2 / 3, abs=1e-12)
    assert overlap == pytest.approx(0.9714, abs=1e-4)


def test_permutation_symmetry():
    rng = np.random.default_rng(37)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(0, n + 1))
        state = dicke_state(n, k)
        permutation = list(rng.permutation(n))
        permuted = permute_qubits(state, permutation)
        np.testing.assert_array_equal(permuted.amplitudes, state.amplitudes)


def test_bit_flip_duality():
    for n in range(2, 6):
        for k in range(n + 1):
            flipped = dicke_state(n, k)
            for qubit in range(n):
                flipped = apply_gate(flipped, gates.x(qubit))
            np.testing.assert_array_equal(
                flipped.amplitudes, dicke_state(n, n - k).amplitudes
            )


# ---------------------------------------------------------------------------
# bipartition parameters


def test_params_accessibility_constraint():
    # appending an excited qubit requires access to every |0> qubit
    with pytest.raises(ValueError, match="accessibility"):
        BipartitionParams(total=4, excitations=2, accessible=1, added=1, added_excitations=1)
    # appending a |0> qubit requires access to every |1> qubit
    with pytest.raises(ValueError, match="accessibility"):
        BipartitionParams(total=4, excitations=2, accessible=1, added=1, added_excitations=0)
    # no expansion, no constraint
    BipartitionParams(total=4, excitations=2, accessible=1)


def test_params_validation():
    with pytest.raises(ValueError):
        BipartitionParams(total=4, excitations=5, accessible=3)
    with pytest.raises(ValueError):
        BipartitionParams(total=4, excitations=2, accessible=5)
    with pytest.raises(ValueError):
        BipartitionParams(total=4, excitations=2, accessible=3, added=1, added_excitations=2)
    with pytest.raises(ValueError, match="^total qubit count must be positive$"):
        BipartitionParams(0, 0, 0)


EXPANSION_CASE = dict(total=4, excitations=2, accessible=3, added=1, added_excitations=1)


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(BipartitionParams)])
@pytest.mark.parametrize("bad", [4.5, 1.0, "4"])
def test_params_refuse_a_non_integer_field(field, bad):
    # caught when built, not later inside math.comb
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        BipartitionParams(**{**EXPANSION_CASE, field: bad})


def test_params_store_numpy_integers_as_int():
    params = BipartitionParams(**{k: np.int64(v) for k, v in EXPANSION_CASE.items()})
    assert params == BipartitionParams(**EXPANSION_CASE)
    assert all(type(getattr(params, k)) is int for k in EXPANSION_CASE)


# ---------------------------------------------------------------------------
# decompositions


def test_source_decomposition_of_four_qubit_state():
    decomposition = decompose_source(BipartitionParams(**EXPANSION_CASE))
    assert [t.j for t in decomposition.terms] == [0, 1]
    assert [t.weight for t in decomposition.terms] == [Fraction(1, 2), Fraction(1, 2)]
    assert [t.a_excitations for t in decomposition.terms] == [2, 1]
    for term in decomposition.terms:
        assert term.coefficient == pytest.approx(math.sqrt(0.5), abs=1e-15)


def test_source_decomposition_full_access_is_trivial():
    decomposition = decompose_source(BipartitionParams(total=4, excitations=2, accessible=4))
    assert len(decomposition.terms) == 1
    assert decomposition.terms[0].weight == 1
    assert decomposition.terms[0].coefficient == 1.0


def test_source_decomposition_five_qubit_case():
    decomposition = decompose_source(BipartitionParams(total=5, excitations=3, accessible=4))
    assert [t.weight for t in decomposition.terms] == [Fraction(2, 5), Fraction(3, 5)]


def test_target_decomposition_matches_expanded_state():
    decomposition = decompose_target(BipartitionParams(**EXPANSION_CASE))
    assert [t.weight for t in decomposition.terms] == [Fraction(2, 5), Fraction(3, 5)]
    assert decomposition.a_size == 4 and decomposition.b_size == 1


def test_target_reduces_to_source_without_expansion():
    params = BipartitionParams(total=4, excitations=2, accessible=3)
    source = decompose_source(params)
    target = decompose_target(params)
    assert [t.weight for t in source.terms] == [t.weight for t in target.terms]
    assert [t.j for t in source.terms] == [t.j for t in target.terms]


def test_decomposition_weights_sum_to_one_exactly():
    for total in range(2, 7):
        for excitations in range(total + 1):
            for accessible in range(1, total):
                params = BipartitionParams(total=total, excitations=excitations, accessible=accessible)
                assert sum(t.weight for t in decompose_source(params).terms) == 1


# ---------------------------------------------------------------------------
# maximum success probability


def test_transfer_ratios_for_expansion_case():
    # w_src / w_tgt per j: (1/2) / (2/5) and (1/2) / (3/5); the smaller is pmax
    params = BipartitionParams(**EXPANSION_CASE)
    source, target = decompose_source(params), decompose_target(params)
    assert [t.j for t in source.terms] == [t.j for t in target.terms] == [0, 1]
    ratios = [s.weight / t.weight for s, t in zip(source.terms, target.terms)]
    assert ratios == [Fraction(5, 4), Fraction(5, 6)]
    assert max_success_probability(params) == min(ratios)


def test_max_success_probability_is_exact_rational():
    probability = max_success_probability(BipartitionParams(**EXPANSION_CASE))
    assert probability == Fraction(5, 6)
    assert probability.numerator == 5
    assert probability.denominator == 6


def test_full_access_expansion_is_deterministic():
    for total in range(2, 6):
        for excitations in range(total + 1):
            for added_excitations in (0, 1):
                params = BipartitionParams(
                    total=total,
                    excitations=excitations,
                    accessible=total,
                    added=1,
                    added_excitations=added_excitations,
                )
                assert max_success_probability(params) == 1


def test_another_expansion_instance():
    params = BipartitionParams(total=5, excitations=3, accessible=4, added=1, added_excitations=1)
    assert max_success_probability(params) == Fraction(9, 10)


def valid_instances(max_total=9, max_added=3):
    """Every (N, M, k, n', m') that BipartitionParams accepts."""
    instances = []
    for total in range(1, max_total + 1):
        for excitations in range(total + 1):
            for accessible in range(total + 1):
                for added in range(max_added + 1):
                    for added_excitations in range(added + 1):
                        try:
                            instances.append(BipartitionParams(
                                total, excitations, accessible, added, added_excitations))
                        except ValueError:
                            pass
    return instances


def closed_form_pmax(params):
    """min_j q_j * C(N+n', M+m') / C(N, M), with q_j = C(k, M-j) / C(k+n', M+m'-j)
    over the target's range of j: the closed form the bound was first computed by."""
    n, m, k = params.total, params.excitations, params.accessible
    a_size, m_total = k + params.added, m + params.added_excitations
    ratios = [
        Fraction(math.comb(k, m - j), math.comb(a_size, m_total - j))
        for j in range(max(m_total - a_size, 0), min(n - k, m_total) + 1)
    ]
    return min(ratios) * Fraction(math.comb(n + params.added, m_total), math.comb(n, m))


def test_pmax_equals_the_closed_form_on_every_small_instance():
    instances = valid_instances()
    assert len(instances) == 2070
    for params in instances:
        assert max_success_probability(params) == closed_form_pmax(params), params


def test_pmax_of_one_added_excitation_with_one_qubit_out_of_reach():
    # k = N - 1 and n' = m' = 1: pmax = M(N + 1) / (N(M + 1)), e.g. 5/6 for (4, 2)
    count = 0
    for n in range(2, 60):
        for m in range(1, n):
            params = BipartitionParams(n, m, n - 1, 1, 1)
            assert max_success_probability(params) == Fraction(m * (n + 1), n * (m + 1)), params
            count += 1
    assert count == 1711
    assert max_success_probability(BipartitionParams(4, 2, 3, 1, 1)) == Fraction(5, 6)


def test_pmax_is_invariant_under_bit_flip_duality():
    # flipping every qubit swaps excitations with zeros, in the register and
    # among the added qubits, and maps each Dicke state onto its dual
    for params in valid_instances():
        dual = BipartitionParams(
            params.total, params.zeros, params.accessible, params.added, params.added_zeros)
        assert max_success_probability(dual) == max_success_probability(params), params


def test_no_unitary_on_the_accessible_side_raises_any_b_sector():
    # The converse of the bound: a unitary on A, the added qubits and the flag
    # leaves each |D_B^j> sector's weight, summed over both flag values, at
    # w_src(j); so the flag-0 weight never exceeds it, and p * w_tgt(j) <= w_src(j).
    rng = np.random.default_rng(2025)
    instances = [p for p in valid_instances(max_total=5, max_added=2)
                 if p.added >= 1 and p.accessible + p.added + 1 <= 7]
    assert len(instances) == 235
    for params in instances:
        k, b_size = params.accessible, params.total - params.accessible
        rows = 1 << (k + params.added + 1)  # A, then the added qubits, then the flag
        split = dicke_state(params.total, params.excitations).amplitudes.reshape(1 << k, -1)
        state = np.zeros((rows, 1 << b_size), dtype=complex)
        state[:: 1 << (params.added + 1)] = split  # added qubits and flag in |0>
        evolved = np.tensordot(haar_unitary(rng, rows), state, axes=1)
        weights = np.abs(evolved) ** 2
        sector = popcounts(b_size).ravel()
        source = {t.j: float(t.weight) for t in decompose_source(params).terms}
        for j in range(b_size + 1):
            both_flags = weights[:, sector == j].sum()
            flag_0 = weights[0::2, sector == j].sum()
            assert abs(both_flags - source.get(j, 0.0)) <= 1e-12, (params, j)
            assert flag_0 <= source.get(j, 0.0) + 1e-12, (params, j)


def test_the_paper_circuit_saturates_the_binding_sector():
    # The kernel's run of the paper's circuit: its flag-0 weight in each d4
    # sector is pmax * w_tgt(j), 1/3 and 1/2, and equals w_src(1) = 1/2.
    params = BipartitionParams(4, 2, 3, 1, 1)
    p = max_success_probability(params)
    layout = protocols.EXPANSION_LAYOUT
    d4, flag = layout.index("d4"), layout.index(layout.flag)
    pre = protocols.expansion_premeasurement(dicke_state(4, 2)).amplitudes.reshape((2,) * 6)
    flag_0 = np.take(np.abs(pre) ** 2, 0, axis=flag)  # d4 keeps its index below the flag
    source = {t.j: t.weight for t in decompose_source(params).terms}
    target = {t.j: t.weight for t in decompose_target(params).terms}
    assert [p * target[j] for j in (0, 1)] == [Fraction(1, 3), Fraction(1, 2)]
    assert source[1] == p * target[1] == Fraction(1, 2)
    for j in (0, 1):
        weight = np.take(flag_0, j, axis=d4).sum()
        assert abs(weight - float(p * target[j])) <= 1e-12, j


# ---------------------------------------------------------------------------
# numerical verification of decompositions


def test_verify_source_decomposition_of_d4():
    params = BipartitionParams(**EXPANSION_CASE)
    assert verify_decomposition(dicke_state(4, 2), (0, 1, 2), (3,), decompose_source(params))


def test_verify_target_decomposition_of_d5():
    params = BipartitionParams(**EXPANSION_CASE)
    assert verify_decomposition(
        dicke_state(5, 3), (0, 1, 2, 3), (4,), decompose_target(params)
    )


def test_verify_rejects_perturbed_state():
    params = BipartitionParams(**EXPANSION_CASE)
    amps = dicke_state(4, 2).amplitudes.copy()
    amps[0] += 1e-6
    perturbed = StateVector(4, amps / np.linalg.norm(amps))
    assert not verify_decomposition(perturbed, (0, 1, 2), (3,), decompose_source(params))


def test_verify_rejects_bad_split():
    params = BipartitionParams(**EXPANSION_CASE)
    decomposition = decompose_source(params)
    with pytest.raises(ValueError, match="partition"):
        verify_decomposition(dicke_state(4, 2), (0, 1), (3,), decomposition)
    with pytest.raises(ValueError, match="sizes"):
        verify_decomposition(dicke_state(4, 2), (0, 1), (2, 3), decomposition)


@pytest.mark.parametrize("bad", [True, np.True_, 1.0])
def test_verify_refuses_a_bool_or_float_qubit(bad):
    source = decompose_source(BipartitionParams(**EXPANSION_CASE))
    with pytest.raises(TypeError):
        verify_decomposition(dicke_state(4, 2), (bad, 2, 0), (3,), source)
    with pytest.raises(TypeError):
        verify_decomposition(dicke_state(4, 2), (0, 2, 3), (bad,), source)
    assert verify_decomposition(dicke_state(4, 2), np.arange(3), (np.int64(3),), source)


@pytest.mark.parametrize("field, value", [
    ("j", 2), ("j", -1), ("a_excitations", 4), ("a_excitations", -1)])
def test_verify_refuses_a_term_outside_its_split(field, value):
    source = decompose_source(BipartitionParams(**EXPANSION_CASE))  # |A| = 3, |B| = 1
    term = dataclasses.replace(source.terms[0], **{field: value})
    outside = dataclasses.replace(source, terms=(term, *source.terms[1:]))
    with pytest.raises(ValueError, match=f"term j={term.j}, a_excitations={term.a_excitations} "):
        verify_decomposition(dicke_state(4, 2), (0, 1, 2), (3,), outside)


def test_verify_peak_memory_is_bounded_at_18_qubits():
    # the expected tensor alone would be 4 MiB; the check holds a few blocks
    state = dicke_state(18, 9)
    order = [int(q) for q in np.random.default_rng(18).permutation(18)]
    decomposition = decompose_source(BipartitionParams(18, 9, 9))
    tracemalloc.start()
    try:
        assert verify_decomposition(state, order[:9], order[9:], decomposition)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 128 * 2**10


def per_term_split_tensor(decomposition):
    """Reference: sum_j c_j D_A (x) D_B as one outer product per term."""
    def dicke_tensor(n, k):
        return np.where(popcounts(n) == k, 1.0 / math.sqrt(math.comb(n, k)), 0.0)

    a_size, b_size = decomposition.a_size, decomposition.b_size
    expected = np.zeros((2,) * (a_size + b_size))
    for t in decomposition.terms:
        d_a, d_b = dicke_tensor(a_size, t.a_excitations), dicke_tensor(b_size, t.j)
        expected += t.coefficient * np.multiply.outer(d_a, d_b)
    return expected


def dense_verify(state, a_indices, b_indices, decomposition):
    """Reference check: the whole expected tensor, A's axes first, moved onto
    the split, and one full-size difference."""
    n = state.n_qubits
    expected = np.moveaxis(
        per_term_split_tensor(decomposition), range(n), [*a_indices, *b_indices])
    return bool(np.all(
        np.abs(state.amplitudes.reshape((2,) * n) - expected) <= DECOMPOSITION_ATOL))


def test_split_tensor_equals_the_per_term_sum():
    rng = np.random.default_rng(2718)
    instances = [(4, 2, 0), (4, 2, 4), (1, 1, 0), (1, 0, 1)]  # |A| = 0 and |B| = 0
    for _ in range(40):
        total = int(rng.integers(1, 11))
        instances.append(
            (total, int(rng.integers(0, total + 1)), int(rng.integers(0, total + 1))))
    for total, excitations, accessible in instances:
        decomposition = decompose_source(BipartitionParams(total, excitations, accessible))
        table = dicke._split_table(decomposition)
        b_size = total - accessible
        a_weights = popcounts(accessible).reshape((2,) * accessible + (1,) * b_size)
        tensor = table[a_weights, popcounts(b_size)]
        expected = per_term_split_tensor(decomposition)
        assert tensor.shape == expected.shape and tensor.dtype == complex
        assert tensor.tobytes() == expected.astype(complex).tobytes(), (
            total, excitations, accessible)

        state = dicke_state(total, excitations)
        a, b = tuple(range(accessible)), tuple(range(accessible, total))
        assert verify_decomposition(state, a, b, decomposition)
        terms = list(decomposition.terms)
        nudged = dataclasses.replace(terms[0], coefficient=terms[0].coefficient + 1e-9)
        wrong = dataclasses.replace(decomposition, terms=(nudged, *terms[1:]))
        assert not verify_decomposition(state, a, b, wrong)
        if len(terms) > 1:
            first, second = terms[0], terms[1]
            swapped = (
                dataclasses.replace(first, j=second.j),
                dataclasses.replace(second, j=first.j),
                *terms[2:],
            )
            wrong = dataclasses.replace(decomposition, terms=swapped)
            assert not verify_decomposition(state, a, b, wrong)


def test_exhaustive_decomposition_sweep():
    # every split of every Dicke state on up to six qubits
    for total in range(2, 7):
        for excitations in range(total + 1):
            for accessible in range(total + 1):
                params = BipartitionParams(
                    total=total, excitations=excitations, accessible=accessible
                )
                state = dicke_state(total, excitations)
                a = tuple(range(accessible))
                b = tuple(range(accessible, total))
                assert verify_decomposition(state, a, b, decompose_source(params))


@st.composite
def split_instances(draw):
    """A valid BipartitionParams with N + n' <= 10, and a random accessible
    set and order for each of the source and target registers."""
    total = draw(st.integers(1, 9))
    added = draw(st.integers(0, 10 - total))
    excitations = draw(st.integers(0, total))
    added_excitations = draw(st.integers(0, added))
    low = 0
    if added > added_excitations:  # appending |0> qubits needs access to every |1>
        low = max(low, excitations)
    if added_excitations > 0:  # appending |1> qubits needs access to every |0>
        low = max(low, total - excitations)
    accessible = draw(st.integers(low, total))
    params = BipartitionParams(total, excitations, accessible, added, added_excitations)
    source_order = draw(st.permutations(range(total)))
    target_order = draw(st.permutations(range(total + added)))
    return params, source_order, target_order


@settings(max_examples=300)
@given(split_instances())
def test_decompositions_hold_on_random_splits(instance):
    params, source_order, target_order = instance
    k, k_target = params.accessible, params.accessible + params.added
    assert verify_decomposition(
        dicke_state(params.total, params.excitations),
        source_order[:k], source_order[k:], decompose_source(params),
    )
    assert verify_decomposition(
        dicke_state(params.total + params.added, params.excitations + params.added_excitations),
        target_order[:k_target], target_order[k_target:], decompose_target(params),
    )


def state_from_strings(amplitudes):
    """StateVector from a {bitstring: amplitude} map, qubit 0 leftmost."""
    n = len(next(iter(amplitudes)))
    amps = np.zeros(1 << n, dtype=complex)
    for bits, amplitude in amplitudes.items():
        amps[int(bits, 2)] = amplitude
    return StateVector(n, amps)


def test_verify_uses_the_split_it_is_given():
    # |D_A^1>|0>_B with A of two qubits: the excitation must sit on A, so only
    # splits that put the |0> qubit into B match (Dicke states alone are
    # symmetric under qubit permutation and cannot tell splits apart).
    decomposition = DickeDecomposition(2, 1, (DecompositionTerm(0, 1, 1.0, Fraction(1)),))
    state = state_from_strings({"010": 1 / math.sqrt(2), "001": 1 / math.sqrt(2)})
    assert verify_decomposition(state, (1, 2), (0,), decomposition)
    assert verify_decomposition(state, (2, 1), (0,), decomposition)
    assert not verify_decomposition(state, (0, 1), (2,), decomposition)
    assert not verify_decomposition(state, (0, 2), (1,), decomposition)

    # sqrt(1/3) |D_A^2>|D_B^0> + sqrt(2/3) |D_A^1>|D_B^1> with A = (1, 3), B = (0, 2)
    terms = (
        DecompositionTerm(0, 2, math.sqrt(1 / 3), Fraction(1, 3)),
        DecompositionTerm(1, 1, math.sqrt(2 / 3), Fraction(2, 3)),
    )
    decomposition = DickeDecomposition(2, 2, terms)
    cross = math.sqrt(2 / 3) / 2
    state = state_from_strings({
        "0101": math.sqrt(1 / 3),
        "1100": cross, "1001": cross, "0110": cross, "0011": cross,
    })
    assert verify_decomposition(state, (1, 3), (0, 2), decomposition)
    assert verify_decomposition(state, (3, 1), (2, 0), decomposition)
    assert not verify_decomposition(state, (0, 1), (2, 3), decomposition)
    assert not verify_decomposition(state, (0, 2), (1, 3), decomposition)


@st.composite
def streamed_cases(draw):
    """A split state on up to 14 qubits, checked against its own split and
    a second shuffled one, with one amplitude nudged, one coefficient
    nudged and two j's swapped. The state is a Dicke state with its
    source decomposition, or sum_t c_t |D_A^{a_t}> |D_B^{j_t}> over random
    distinct cells, which only its own split reproduces."""
    n = draw(st.integers(1, 14))
    a_size = draw(st.integers(0, n))
    b_size = n - a_size
    order = draw(st.permutations(range(n)))
    other = draw(st.permutations(range(n)))
    if draw(st.booleans()):
        excitations = draw(st.integers(0, n))
        decomposition = decompose_source(BipartitionParams(n, excitations, a_size))
        state = dicke_state(n, excitations)
    else:
        cells = draw(st.lists(
            st.tuples(st.integers(0, a_size), st.integers(0, b_size)),
            min_size=1, max_size=4, unique=True))
        raw = draw(st.lists(st.floats(0.1, 1.0), min_size=len(cells), max_size=len(cells)))
        norm = math.sqrt(sum(r * r for r in raw))
        decomposition = DickeDecomposition(a_size, b_size, tuple(
            DecompositionTerm(j, a, r / norm, Fraction(r / norm) ** 2)
            for (a, j), r in zip(cells, raw)))
        expected = np.moveaxis(per_term_split_tensor(decomposition), range(n), order)
        state = StateVector(n, expected.reshape(-1))
    amps = state.amplitudes.copy()
    index = draw(st.integers(0, (1 << n) - 1))
    # a real nudge of a nonzero amplitude could break the norm check
    direction = draw(st.sampled_from((1j, -1j) if amps[index] else (1, -1, 1j, -1j)))
    amps[index] += draw(st.sampled_from((0.5, 1.0, 2.0))) * DECOMPOSITION_ATOL * direction
    nudged_state = StateVector(n, amps)
    terms = decomposition.terms
    step = draw(st.sampled_from((0.5, 1.0, 2.0, 1e3))) * DECOMPOSITION_ATOL
    nudged = dataclasses.replace(terms[0], coefficient=terms[0].coefficient + step)
    decompositions = [decomposition, dataclasses.replace(decomposition, terms=(nudged, *terms[1:]))]
    if len(terms) > 1:
        swapped = (dataclasses.replace(terms[0], j=terms[1].j),
                   dataclasses.replace(terms[1], j=terms[0].j), *terms[2:])
        decompositions.append(dataclasses.replace(decomposition, terms=swapped))
    cases = [(s, order, d) for s in (state, nudged_state) for d in decompositions]
    cases.append((state, other, decomposition))
    return [(s, split[:a_size], split[a_size:], d) for s, split, d in cases]


@pytest.mark.parametrize("block, examples", [
    (1, 15), (1 << 3, 100), (dicke.DECOMPOSITION_BLOCK, 100)])
def test_streamed_check_matches_the_dense_reference(block, examples):
    # one amplitude per block walks all 2**n blocks in Python, so fewer examples
    @settings(max_examples=examples)
    @given(streamed_cases())
    def check(cases):
        for state, a, b, decomposition in cases:
            assert verify_decomposition(state, a, b, decomposition) == dense_verify(
                state, a, b, decomposition)

    with mock.patch.object(dicke, "DECOMPOSITION_BLOCK", block):
        check()
