"""Every public entry point that takes an array takes it in any memory layout.

Each layout holds the same values as a C-ordered native array. An accepted
input must give output bytes equal to the native input's; a refused input
must raise the native input's ``ValueError`` or ``TypeError``, with one of
the messages that dickesim writes (``MESSAGES``). A hypothesis strategy draws
the order in which one example runs through every layout, since a state
adopts a read-only array and fits and tables are cached between calls.
"""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _layouts, haar_unitary, random_state
from dickesim.dicke import BipartitionParams, decompose_source, dicke_state, verify_decomposition
from dickesim.gates import GateSpec, is_unitary
from dickesim.noise import fidelity_sweep
from dickesim.sim import StateVector, postselect

# The refusals an entry point may raise for a bad input in any layout.
MESSAGES = (
    r"state is not normalized: \|psi\| = ",
    r"amplitudes contain NaN or Inf",
    r"expected \d+ amplitudes, got shape ",
    r"target matrix is not unitary",
    r"target matrix has non-finite entries",
    r"target matrix must be 2x2, got ",
    r"theta grid must hold real numbers, got dtype ",
    r"theta grid must be one-dimensional, got shape ",
    r"theta grid is empty",
    r"over-rotation angle must be finite",
    r"over-rotation angle .* outside \[-pi, pi\]",
    r"a_indices and b_indices must partition the register",
    r".* cannot be interpreted as an integer",
    r"qubit \d+ out of range for \d+ qubits",
    r"outcome must be 0 or 1, got ",
    r"expected an array of numbers, got dtype ",
)


NOT_NUMBERS = MESSAGES[-1]


def _non_numbers(values: np.ndarray) -> tuple:
    """``values`` as the texts of its numbers: str, bytes and object arrays,
    which numpy would parse back into the same numbers."""
    texts = values.astype(str)
    return texts, texts.astype(bytes), texts.astype(object)


LAYOUTS = tuple(_layouts(np.zeros(1)))
layout_orders = st.permutations(LAYOUTS)


def _outcome(call, value):
    """``("ok", bytes)`` of what ``call(value)`` returns, or ``(error type,
    message pattern)`` of what it raises, the pattern one of ``MESSAGES``."""
    try:
        result = call(value)
    except (ValueError, TypeError) as error:
        text = str(error)
        listed = [m for m in MESSAGES if re.fullmatch(m + ".*", text, re.DOTALL)]
        assert listed, f"{type(error).__name__}: {text}"
        return type(error), listed[0]
    return "ok", result


def assert_every_layout_agrees(call, base, order):
    """``call`` on each layout of ``base``, in ``order``, gives the outcome
    of the C-ordered native array."""
    native = _outcome(call, np.ascontiguousarray(base))
    layouts = _layouts(base)
    for name in order:
        assert _outcome(call, layouts[name]) == native, name
    return native


@settings(max_examples=10)
@given(layout_orders, st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_state_vector_takes_any_layout(order, n_qubits, seed):
    amps = random_state(np.random.default_rng(seed), n_qubits).amplitudes

    def call(a):
        return StateVector(n_qubits, a).amplitudes.tobytes()

    assert assert_every_layout_agrees(call, amps, order) == ("ok", amps.tobytes())
    assert assert_every_layout_agrees(call, 1.5 * amps, order)[0] is ValueError
    nan = amps.copy()
    nan[-1] = math.nan
    assert assert_every_layout_agrees(call, nan, order)[0] is ValueError
    assert assert_every_layout_agrees(call, amps.reshape(2, -1), order)[0] is ValueError
    for bad in _non_numbers(amps):
        assert assert_every_layout_agrees(call, bad, order) == (ValueError, NOT_NUMBERS)


@settings(max_examples=10)
@given(layout_orders, st.integers(0, 2**32 - 1))
def test_gate_spec_and_is_unitary_take_any_layout(order, seed):
    u = haar_unitary(np.random.default_rng(seed), 2)

    def gate(m):
        return GateSpec((0,), 1, m).matrix.tobytes()

    assert assert_every_layout_agrees(gate, u, order) == ("ok", u.tobytes())
    assert assert_every_layout_agrees(is_unitary, u, order) == ("ok", True)
    assert assert_every_layout_agrees(is_unitary, 1.5 * u, order) == ("ok", False)
    for bad in (1.5 * u, np.where(np.eye(2) > 0, math.inf, u), np.eye(3, dtype=complex)):
        assert assert_every_layout_agrees(gate, bad, order)[0] is ValueError
    for bad in _non_numbers(u):
        for call in (gate, is_unitary):
            assert assert_every_layout_agrees(call, bad, order) == (ValueError, NOT_NUMBERS)


@settings(max_examples=10)
@given(layout_orders, st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=8))
def test_fidelity_sweep_takes_any_grid_layout(order, angles):
    grid = np.array(angles)
    for mode in ("pre-measurement", "post-selected"):

        def call(g):
            return fidelity_sweep(g, mode).tobytes()

        expected = fidelity_sweep(grid, mode).tobytes()
        assert assert_every_layout_agrees(call, grid, order) == ("ok", expected)
        for bad in (grid.reshape(1, -1), grid[:0], np.append(grid, math.nan),
                    np.append(grid, 4.0), grid.astype(complex)):
            assert assert_every_layout_agrees(call, bad, order)[0] is ValueError


@settings(max_examples=10)
@given(layout_orders, st.integers(2, 6), st.data())
def test_verify_decomposition_takes_any_index_layout(order, n, data):
    k = data.draw(st.integers(0, n))
    a_size = data.draw(st.integers(1, n - 1))
    split = np.array(data.draw(st.permutations(range(n))), dtype=np.intp)
    a, b = split[:a_size], split[a_size:]
    decomposition = decompose_source(BipartitionParams(n, k, a_size))
    assert verify_decomposition(dicke_state(n, k), range(a_size), range(a_size, n), decomposition)
    # D(n, k) passes the check and a Dicke state of another weight fails it
    for state, verdict in ((dicke_state(n, k), True), (dicke_state(n, k - 1 if k else 1), False)):
        def by_a(indices):
            return verify_decomposition(state, indices, b, decomposition)

        def by_b(indices):
            return verify_decomposition(state, a, indices, decomposition)

        assert assert_every_layout_agrees(by_a, a, order) == ("ok", verdict)
        assert assert_every_layout_agrees(by_b, b, order) == ("ok", verdict)
    for bad in (np.full_like(a, b[0]), a.astype(float), a.astype(bool), a.reshape(-1, 1)):
        assert assert_every_layout_agrees(by_a, bad, order)[0] in (ValueError, TypeError)


NUMPY_INTEGERS = (np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64)


@settings(max_examples=10)
@given(st.lists(st.sampled_from(NUMPY_INTEGERS), min_size=5, max_size=5), st.data())
def test_bipartition_params_and_postselect_take_numpy_integer_scalars(types, data):
    native = dict(total=4, excitations=2, accessible=3, added=1, added_excitations=1)
    params = BipartitionParams(**{f: t(v) for t, (f, v) in zip(types, native.items())})
    assert params == BipartitionParams(**native)
    assert all(type(getattr(params, f)) is int for f in native)
    state = dicke_state(4, 2)
    qubit, outcome = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 1))
    probability, collapsed = postselect(state, types[0](qubit), types[1](outcome))
    expected_probability, expected = postselect(state, qubit, outcome)
    assert probability == expected_probability
    assert collapsed.amplitudes.tobytes() == expected.amplitudes.tobytes()
    for bad in (np.float64(qubit), np.True_, types[0](4)):
        assert _outcome(lambda q: postselect(state, q, outcome), bad)[0] in (ValueError, TypeError)
        assert _outcome(lambda o: postselect(state, qubit, o), bad)[0] in (ValueError, TypeError)
    with pytest.raises(TypeError, match=r"^np\.float64\(4\.0\) cannot|^4\.0 cannot"):
        BipartitionParams(**{**native, "total": np.float64(4)})
