"""Dicke states and the exact combinatorics of expanding them.

A Dicke state over n qubits with k excitations is the equal-amplitude
superposition of the C(n, k) basis strings of Hamming weight k. Splitting the
register into an accessible part A and an inaccessible part B expands any
Dicke state as a sum over the number of excitations j that sit on B, with
hypergeometric coefficients; those coefficients, and the best achievable
success probability of growing the state while touching only A, are computed
here in exact rational arithmetic.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Sequence

import numpy as np

from .gates import _index
from .sim import StateVector

DECOMPOSITION_ATOL = 1e-12
# Amplitudes per block of verify_decomposition, a power of two, which bounds
# a call's working memory (about 32 KiB at 2**10).
DECOMPOSITION_BLOCK = 1 << 10


def dicke_state(n: int, k: int) -> StateVector:
    """Equal superposition of all n-qubit basis strings with exactly k ones."""
    n, k = _index(n), _index(k)
    if n < 1:
        raise ValueError("need at least one qubit")
    if not 0 <= k <= n:
        raise ValueError(f"excitation count {k} outside [0, {n}]")
    amps = np.zeros(1 << n, dtype=complex)
    low = _popcount_table()[:amps.size]
    value = 1.0 / math.sqrt(math.comb(n, k))
    real = amps.real
    # Rows of low.size <= 2**16 indices: a row's start has only high bits
    # set, so its row holds the amplitude where the low bits' weight in the
    # table is k minus the start's own.
    for start in range(0, amps.size, low.size):
        real[start:start + low.size][low == k - start.bit_count()] = value
    amps.flags.writeable = False
    return StateVector(n, amps)


def _bit_sums(size: int, a_mask: int, stride: int) -> np.ndarray:
    """``intp`` array over the indices 0 .. size - 1, size a power of two, of
    the sum over each index's set bits of ``stride`` for a bit in ``a_mask``
    and 1 for any other. Built by doubling: the sums of size .. 2 * size - 1
    are those of 0 .. size - 1 plus the new top bit's."""
    sums = np.zeros(size, dtype=np.intp)
    filled = 1
    while filled < size:
        np.add(sums[:filled], stride if a_mask & filled else 1, out=sums[filled:2 * filled])
        filled *= 2
    return sums


@functools.cache
def _popcount_table() -> np.ndarray:
    """Hamming weight of every 16-bit integer 0 .. 2**16 - 1 (64 KiB of
    ``uint8``), built once per process on first use by :func:`_bit_sums`.
    Read-only, as every caller shares it."""
    table = _bit_sums(1 << 16, 0, 1).astype(np.uint8)
    table.flags.writeable = False
    return table


def wlike_state() -> StateVector:
    """The 3-qubit remnant left by a failed expansion:
    |110>/2 + |101>/2 + |011>/sqrt(2)."""
    amps = np.zeros(8, dtype=complex)
    amps[0b110] = 0.5
    amps[0b101] = 0.5
    amps[0b011] = 1.0 / math.sqrt(2.0)
    return StateVector(3, amps)


@dataclass(frozen=True)
class BipartitionParams:
    """Parameters of a restricted-access expansion.

    A Dicke state over ``total`` qubits with ``excitations`` ones is split into
    ``accessible`` qubits (A) and the rest (B). The expansion appends
    ``added`` fresh qubits to A, of which ``added_excitations`` end up excited.
    """

    total: int
    excitations: int
    accessible: int
    added: int = 0
    added_excitations: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, _index(getattr(self, f.name)))
        if self.total < 1:
            raise ValueError("total qubit count must be positive")
        if not 0 <= self.excitations <= self.total:
            raise ValueError(
                f"excitations {self.excitations} outside [0, {self.total}]"
            )
        if not 0 <= self.accessible <= self.total:
            raise ValueError(
                f"accessible count {self.accessible} outside [0, {self.total}]"
            )
        if self.added < 0 or not 0 <= self.added_excitations <= self.added:
            raise ValueError(
                f"added qubit counts invalid: added={self.added}, "
                f"added_excitations={self.added_excitations}"
            )
        if self.added_zeros > 0 and self.accessible < self.excitations:
            raise ValueError(
                "accessibility constraint violated: appending |0> qubits needs "
                f"accessible >= excitations (have accessible={self.accessible}, "
                f"excitations={self.excitations})"
            )
        if self.added_excitations > 0 and self.accessible < self.zeros:
            raise ValueError(
                "accessibility constraint violated: appending |1> qubits needs "
                f"accessible >= zeros (have accessible={self.accessible}, "
                f"zeros={self.zeros})"
            )

    @property
    def zeros(self) -> int:
        return self.total - self.excitations

    @property
    def added_zeros(self) -> int:
        return self.added - self.added_excitations


@dataclass(frozen=True)
class DecompositionTerm:
    """One component c_j |D_A^{a_excitations}> |D_B^{j}> of a split Dicke state."""

    j: int
    a_excitations: int
    coefficient: float
    weight: Fraction  # exact value of coefficient**2


@dataclass(frozen=True)
class DickeDecomposition:
    """Expansion of a Dicke state over an A/B bipartition.

    ``terms`` run over the excitation transfer index j (excitations on B) in
    increasing order; the squared coefficients are exact rationals, and for
    the decompositions built here they sum to 1 exactly.
    """

    a_size: int
    b_size: int
    terms: tuple[DecompositionTerm, ...]


def _numerators(a_size: int, b_size: int, m: int) -> tuple[int, list[int], int]:
    """Weights of D(a_size + b_size, m) = sum_j c_j |D_A^{m-j}> |D_B^{j}> over
    one denominator: c_j^2 = C(a_size, m-j) * C(b_size, j) / C(a_size + b_size, m)
    for every j in [max(m - a_size, 0), min(b_size, m)].

    Returns the first j, the integer numerators by increasing j, and the
    denominator. The binomials step from one j to the next by the exact
    integer recurrences C(a, k - 1) = C(a, k) * k / (a - k + 1) and
    C(b, j + 1) = C(b, j) * (b - j) / (j + 1); each division is exact. The
    numerators must sum to the denominator (Vandermonde's identity), checked
    in integers."""
    denominator = math.comb(a_size + b_size, m)
    first = max(m - a_size, 0)
    from_a, from_b = math.comb(a_size, m - first), math.comb(b_size, first)
    numerators = []
    for j in range(first, min(b_size, m) + 1):
        if j > first:
            k = m - j + 1  # excitations on A at the previous term
            from_a = from_a * k // (a_size - k + 1)
            from_b = from_b * (b_size - j + 1) // j
        numerators.append(from_a * from_b)
    if sum(numerators) != denominator:
        raise ValueError("decomposition weights do not sum to 1")
    return first, numerators, denominator


def _decomposition(a_size: int, b_size: int, m: int) -> DickeDecomposition:
    """The terms of :func:`_numerators`, each weight a reduced fraction."""
    first, numerators, denominator = _numerators(a_size, b_size, m)
    terms = []
    for j, numerator in enumerate(numerators, first):
        weight = Fraction(numerator, denominator)
        terms.append(DecompositionTerm(j, m - j, math.sqrt(weight), weight))
    return DickeDecomposition(a_size, b_size, tuple(terms))


def _source_split(params: BipartitionParams) -> tuple[int, int, int]:
    k = params.accessible
    return k, params.total - k, params.excitations


def _target_split(params: BipartitionParams) -> tuple[int, int, int]:
    k = params.accessible
    return k + params.added, params.total - k, params.excitations + params.added_excitations


def decompose_source(params: BipartitionParams) -> DickeDecomposition:
    """Split the initial Dicke state D(N, M) over its k accessible qubits (A)
    and the N-k others (B): c_j^2 = C(k, M-j) * C(N-k, j) / C(N, M)."""
    return _decomposition(*_source_split(params))


def decompose_target(params: BipartitionParams) -> DickeDecomposition:
    """Split the expanded Dicke state D(N+n', M+m'). A gains the n' added
    qubits; B is unchanged: c_j^2 = C(k+n', M+m'-j) * C(N-k, j) / C(N+n', M+m')."""
    return _decomposition(*_target_split(params))


def max_success_probability(params: BipartitionParams) -> Fraction:
    """Best achievable success probability of the restricted-access expansion.

    An operation on A alone cannot raise the weight of any component |D_B^{j}>,
    so p * w_tgt(j) <= w_src(j) for every j: p = min_j w_src(j) / w_tgt(j) over
    the target's terms, with w_src(j) = 0 where the source has no term j. The
    ratios are compared as integer cross products of the numerators, and the
    result is one exact reduced fraction.
    """
    source_first, source, source_denominator = _numerators(*_source_split(params))
    target_first, target, target_denominator = _numerators(*_target_split(params))
    best_source, best_target = 1, 0  # no term seen yet: an infinite ratio
    for j, w_target in enumerate(target, target_first):
        i = j - source_first
        w_source = source[i] if 0 <= i < len(source) else 0
        if w_source * best_target < best_source * w_target:
            best_source, best_target = w_source, w_target
    return Fraction(best_source * target_denominator, best_target * source_denominator)


def _split_table(decomposition: DickeDecomposition) -> np.ndarray:
    """Amplitudes of sum_j c_j |D_A^{M-j}> (x) |D_B^{j}> by Hamming weight: a
    complex ``(|A| + 1, |B| + 1)`` table that holds c_j * (1/sqrt(C(|A|, M-j))
    * 1/sqrt(C(|B|, j))) at row M-j, column j, and 0 elsewhere.

    An amplitude depends only on the Hamming weights of its A and B parts,
    so this table holds every amplitude of the split state. Each entry is
    the same product, summed in the same order, as in the per-term sum of
    outer products c_j D_A (x) D_B. A term whose weights lie outside
    [0, |A|] x [0, |B|] raises ``ValueError``.
    """
    a_size, b_size = decomposition.a_size, decomposition.b_size
    amplitude = np.zeros((a_size + 1, b_size + 1), dtype=complex)
    for t in decomposition.terms:
        if not (0 <= t.a_excitations <= a_size and 0 <= t.j <= b_size):
            raise ValueError(
                f"term j={t.j}, a_excitations={t.a_excitations} lies outside "
                f"the split sizes ({a_size}, {b_size})"
            )
        d_a = 1.0 / math.sqrt(math.comb(a_size, t.a_excitations))
        d_b = 1.0 / math.sqrt(math.comb(b_size, t.j))
        amplitude[t.a_excitations, t.j] += t.coefficient * (d_a * d_b)
    return amplitude


def verify_decomposition(
    state: StateVector,
    a_indices: Sequence[int],
    b_indices: Sequence[int],
    decomposition: DickeDecomposition,
) -> bool:
    """Check that ``state`` equals sum_j c_j |D_A^{M-j}> (x) |D_B^{j}>, where
    A is the qubits ``a_indices`` and B the qubits ``b_indices``. The order
    within A and within B does not matter.

    The expected amplitude of basis index i is entry (|B| + 1) * w_A + w_B
    of the flattened :func:`_split_table`, with w_A and w_B the Hamming
    weights of i's A bits and B bits. That key is a sum over i's set bits.
    So the state is compared in blocks of ``DECOMPOSITION_BLOCK`` amplitudes,
    in its own order: one key array serves the low bits of every block, and
    each block's high bits add one offset. Every amplitude must agree within
    ``DECOMPOSITION_ATOL``; the check returns False at the first block that
    does not.
    """
    a_indices = [_index(q) for q in a_indices]
    b_indices = [_index(q) for q in b_indices]
    n = state.n_qubits
    if sorted(a_indices + b_indices) != list(range(n)):
        raise ValueError("a_indices and b_indices must partition the register")
    if len(a_indices) != decomposition.a_size or len(b_indices) != decomposition.b_size:
        raise ValueError(
            f"split sizes ({len(a_indices)}, {len(b_indices)}) do not match "
            f"decomposition sizes ({decomposition.a_size}, {decomposition.b_size})"
        )
    table = _split_table(decomposition).reshape(-1)
    stride = decomposition.b_size + 1
    a_mask = sum(1 << (n - 1 - q) for q in a_indices)  # qubit 0 is the top bit
    amps = state.amplitudes
    block = min(DECOMPOSITION_BLOCK, amps.size)
    key = _bit_sums(block, a_mask, stride)
    expected = np.empty(block, dtype=complex)
    error = np.empty(block)
    for start in range(0, amps.size, block):
        high_a = (start & a_mask).bit_count()
        offset = stride * high_a + start.bit_count() - high_a
        # Keys are in range by construction; mode="raise" would write
        # through a temporary copy of ``expected``.
        np.take(table[offset:], key, out=expected, mode="clip")
        np.subtract(amps[start:start + block], expected, out=expected)
        np.abs(expected, out=error)
        if not error.max() <= DECOMPOSITION_ATOL:  # a NaN fails too
            return False
    return True
