"""Statevector engine: gate application, branch selection, fidelity, matrix oracle."""
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_unitary, random_gate, random_named_circuit, random_state
from dickesim import gates, sim
from dickesim.dicke import dicke_state, wlike_state
from dickesim.gates import CircuitProgram, GateSpec
from dickesim.protocols import build_d4_to_d5_circuit
from dickesim.sim import (
    StateVector,
    _evolve,
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
# construction and indexing


def test_basis_state_single_qubit():
    state = new_basis_state(1, "0")
    assert np.array_equal(state.amplitudes, [1, 0])


def test_basis_state_big_endian_mapping():
    # qubit 0 is the leftmost bit, so |10> sits at index 2
    state = new_basis_state(2, "10")
    assert state.amplitudes[2] == 1
    assert np.sum(np.abs(state.amplitudes)) == 1


def test_basis_state_six_zeros():
    state = new_basis_state(6, "000000")
    assert state.amplitudes[0] == 1
    assert state.n_qubits == 6


def test_basis_state_length_mismatch():
    with pytest.raises(ValueError):
        new_basis_state(3, "01")


def test_an_empty_register_is_refused():
    with pytest.raises(ValueError, match="^need at least one qubit$"):
        StateVector(0, [1])
    with pytest.raises(ValueError, match="^bitstring must be nonempty"):
        new_basis_state(0, "")


def test_statevector_rejects_unnormalized():
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(1, np.array([1.0, 1.0]))


def test_statevector_rejects_nan():
    with pytest.raises(ValueError):
        StateVector(1, np.array([np.nan, 0.0]))


def test_statevector_amplitudes_are_readonly():
    state = new_basis_state(1, "0")
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0


def test_statevector_keeps_its_own_copy_of_the_amplitudes():
    amps = np.array([1.0, 0.0], dtype=complex)
    state = StateVector(1, amps)
    amps[:] = [0.0, 1.0]
    assert np.array_equal(state.amplitudes, [1, 0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", [1, 1j])
def test_statevector_rejects_non_finite_amplitudes(bad, part):
    with pytest.raises(ValueError, match="amplitudes contain NaN or Inf"):
        StateVector(2, np.array([0.5, bad * part, 0.5, 0.5]))


def test_squared_norm_overflow_is_not_normalized_rather_than_non_finite():
    # every amplitude is finite, but the squared norm overflows to inf (and
    # numpy warns of the overflow in the dot product)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=r"not normalized: \|psi\| = inf"):
        StateVector(1, np.array([1e200, 0.0]))


def test_batched_norm_check_rejects_one_bad_row():
    rows = np.tile(dicke_state(2, 1).amplitudes, (4, 1))
    sim._check_normalized(rows)
    nan_row, long_row = rows.copy(), rows.copy()
    nan_row[2, 1] = complex(0.0, np.nan)
    long_row[3] *= 1.0 + 1e-9
    with pytest.raises(ValueError, match="amplitudes contain NaN or Inf"):
        sim._check_normalized(nan_row)
    with pytest.raises(ValueError, match="not normalized"):
        sim._check_normalized(long_row)


def _norm_check_outcome(amps):
    """None if ``sim._check_normalized`` accepts ``amps``, else its message."""
    try:
        sim._check_normalized(amps)
    except ValueError as exc:
        return str(exc)
    return None


def _norm_test_state(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "random":
        return random_state(rng, n).amplitudes
    if kind == "dicke":
        return dicke_state(n, int(rng.integers(n + 1))).amplitudes
    return new_basis_state(n, format(int(rng.integers(1 << n)), f"0{n}b")).amplitudes


def _near_one_norms():
    """1, and 1 +- NORM_ATOL each with its neighbours one ulp away."""
    norms = [1.0]
    for edge in (1.0 - sim.NORM_ATOL, 1.0 + sim.NORM_ATOL):
        norms += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, 2.0)]
    return norms


def assert_one_state_is_checked_as_a_batch_row(amps):
    # the scalar norm of one state is the batched row norm, bit for bit
    f = amps.view(float)
    batched = float(np.sqrt(f[None, None, :] @ f[None, :, None])[0, 0, 0])
    assert math.sqrt(f @ f).hex() == batched.hex()
    for target in _near_one_norms():
        scaled = amps * (target / batched)
        assert _norm_check_outcome(scaled) == _norm_check_outcome(scaled[None])


@settings(max_examples=150)
@given(
    st.integers(1, 16),
    st.sampled_from(["random", "dicke", "basis"]),
    st.integers(0, 2**32 - 1),
)
def test_one_state_norm_equals_the_batched_row_norm(n, kind, seed):
    assert_one_state_is_checked_as_a_batch_row(_norm_test_state(kind, n, seed))


@pytest.mark.parametrize("kind, n", [("random", 20), ("dicke", 22), ("basis", 22)])
def test_one_large_state_norm_equals_the_batched_row_norm(kind, n):
    assert_one_state_is_checked_as_a_batch_row(_norm_test_state(kind, n, 2207))


def test_one_state_norm_check_accepts_exactly_within_norm_atol():
    # a basis state scaled by t has norm exactly t: sqrt(t * t) rounds to |t|
    for target in _near_one_norms():
        amps = np.array([0.0, target, 0.0, 0.0], dtype=complex)
        accepted = abs(target - 1.0) <= sim.NORM_ATOL
        assert (_norm_check_outcome(amps) is None) == accepted
        assert _norm_check_outcome(amps[None]) == _norm_check_outcome(amps)


@pytest.mark.parametrize(
    "amps, message",
    [
        ([np.nan, 0.0], "amplitudes contain NaN or Inf"),
        ([complex(0.6, np.inf), 0.8], "amplitudes contain NaN or Inf"),
        ([-np.inf, np.nan], "amplitudes contain NaN or Inf"),
        ([1.0, 1.0], "state is not normalized: |psi| = 1.4142135623730951"),
        ([0.0, 0.0], "state is not normalized: |psi| = 0.0"),
        ([1e200, 0.0], "state is not normalized: |psi| = inf"),
    ],
)
def test_one_state_norm_check_keeps_the_batched_messages(amps, message):
    amps = np.array(amps, dtype=complex)
    with np.errstate(over="ignore"):
        assert _norm_check_outcome(amps) == message
        assert _norm_check_outcome(amps[None]) == message
        with pytest.raises(ValueError) as raised:
            StateVector(1, amps)
    assert str(raised.value) == message


def test_batch_norm_check_names_the_first_failing_row():
    rows = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 3.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match=r"^state is not normalized: \|psi\| = 2\.0$"):
        sim._check_normalized(rows)
    with pytest.raises(ValueError, match="^amplitudes contain NaN or Inf$"):
        sim._check_normalized(np.array([[2.0, 0.0], [np.nan, 0.0]], dtype=complex))


def test_statevector_adopts_only_read_only_complex_arrays_that_own_their_data():
    owned = np.array([1.0, 0.0], dtype=complex)
    owned.flags.writeable = False
    assert StateVector(1, owned).amplitudes is owned
    writable = np.array([1.0, 0.0], dtype=complex)
    view = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)[:2]
    view.flags.writeable = False
    real = np.array([1.0, 0.0])
    real.flags.writeable = False
    for amps in (writable, view, real):
        adopted = StateVector(1, amps).amplitudes
        assert not np.shares_memory(adopted, amps)
        assert adopted.base is None and not adopted.flags.writeable
        assert adopted.dtype == complex


def test_operations_return_read_only_amplitudes_of_their_own():
    # each result owns one fresh array, shared with none of its inputs
    rng = np.random.default_rng(23)
    a, b = random_state(rng, 3), random_state(rng, 2)
    factor = new_basis_state(3, "010")
    circuit = CircuitProgram(3, (gates.h(0), gates.x(2), gates.ry(0.4, 1)), ("p", "q", "r"))
    results = [
        (dicke_state(5, 2), ()),
        (factor, ()),
        (tensor(a, b), (a, b)),
        (apply_gate(a, gates.ccnot(0, 1, 2)), (a,)),
        (apply_gate(a, gates.x(1)), (a,)),
        (apply_circuit(a, circuit), (a,)),
        (postselect(a, 1, 0)[1], (a,)),
    ]
    results += [(postselect(factor, q, int(bit))[1], (factor,)) for q, bit in enumerate("010")]
    for state, inputs in results:
        assert not state.amplitudes.flags.writeable
        assert StateVector(state.n_qubits, state.amplitudes).amplitudes is state.amplitudes
        for source in inputs:
            assert not np.shares_memory(state.amplitudes, source.amplitudes)


def test_operations_leave_their_input_states_unchanged():
    rng = np.random.default_rng(17)
    a, b, c = random_state(rng, 3), random_state(rng, 2), new_basis_state(3, "010")
    inputs = (a, b, c)
    before = [s.amplitudes.tobytes() for s in inputs]
    circuit = CircuitProgram(3, (gates.h(0), gates.cnot(0, 2), gates.ry(0.4, 1)), ("p", "q", "r"))
    apply_gate(a, gates.ccnot(0, 1, 2))
    apply_circuit(a, circuit)
    postselect(a, 1, 0)
    postselect(c, 1, 1)
    tensor(a, b)
    assert [s.amplitudes.tobytes() for s in inputs] == before


# ---------------------------------------------------------------------------
# gate application


def test_cnot_truth_table():
    state = apply_gate(new_basis_state(2, "10"), gates.cnot(0, 1))
    assert np.array_equal(state.amplitudes, [0, 0, 0, 1])


def test_hadamard_on_zero():
    state = apply_gate(new_basis_state(1, "0"), gates.h(0))
    np.testing.assert_allclose(state.amplitudes, [SQRT1_2, SQRT1_2], atol=1e-15)


def test_cccnot_fires_only_when_all_controls_set():
    gate = gates.cccnot(0, 1, 2, 3)
    fired = apply_gate(new_basis_state(4, "1110"), gate)
    assert fired.amplitudes[0b1111] == 1
    idle = apply_gate(new_basis_state(4, "1100"), gate)
    assert idle.amplitudes[0b1100] == 1


def test_apply_gate_index_out_of_range():
    # apply_gate, gate_unitary and CircuitProgram share one range check.
    with pytest.raises(ValueError, match="touches qubit 2"):
        apply_gate(new_basis_state(2, "00"), gates.x(2))
    with pytest.raises(ValueError, match="touches qubit 2"):
        gate_unitary(gates.cnot(2, 0), 2)
    with pytest.raises(ValueError, match="touches qubit 2"):
        CircuitProgram(2, (gates.x(2),), ("a", "b"))


def test_empty_circuit_is_identity():
    circuit = CircuitProgram(3, (), ("a", "b", "c"))
    state = random_state(np.random.default_rng(0), 3)
    assert np.array_equal(apply_circuit(state, circuit).amplitudes, state.amplitudes)


def test_double_x_is_identity():
    circuit = CircuitProgram(3, (gates.x(0), gates.x(0)), ("a", "b", "c"))
    state = apply_circuit(new_basis_state(3, "000"), circuit)
    assert state.amplitudes[0] == 1


def test_circuit_dimension_mismatch():
    circuit = CircuitProgram(3, (), ("a", "b", "c"))
    with pytest.raises(ValueError):
        apply_circuit(new_basis_state(2, "00"), circuit)


def test_norm_preserved_for_random_gates():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        state = apply_gate(random_state(rng, n), random_gate(rng, n))
        assert abs(np.linalg.norm(state.amplitudes) - 1) <= 1e-12


def test_apply_circuit_validates_once(monkeypatch):
    # one StateVector for the result, not one per gate
    rng = np.random.default_rng(23)
    state = random_state(rng, 4)
    circuit = random_named_circuit(rng, 4, 20)
    expected = state
    for gate in circuit.gates:
        expected = apply_gate(expected, gate)
    built = []
    check = StateVector.__post_init__
    monkeypatch.setattr(StateVector, "__post_init__", lambda self: (built.append(self), check(self)))
    evolved = apply_circuit(state, circuit)
    assert built == [evolved]
    assert np.array_equal(evolved.amplitudes, expected.amplitudes)


def test_batch_axis_evolves_each_row_as_its_own_state():
    # a leading batch axis, with one matrix for all rows or a (T, 2, 2) stack
    # of one matrix per row, gives each row exactly its single-state result
    rng = np.random.default_rng(29)
    for _ in range(30):
        n, rows = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        circuit = random_named_circuit(rng, n, 12)
        matrices = [
            np.array([haar_unitary(rng, 2) for _ in range(rows)]) if rng.random() < 0.5
            else gate.matrix
            for gate in circuit.gates
        ]
        states = [random_state(rng, n) for _ in range(rows)]
        batch = np.array([state.amplitudes for state in states]).reshape((rows,) + (2,) * n)
        _evolve(batch, n, circuit.gates, matrices)
        for row, state in enumerate(states):
            row_gates = tuple(
                GateSpec(gate.controls, gate.target, u if u.ndim == 2 else u[row])
                for gate, u in zip(circuit.gates, matrices)
            )
            expected = apply_circuit(state, CircuitProgram(n, row_gates, circuit.qubit_labels))
            np.testing.assert_array_equal(batch[row].reshape(-1), expected.amplitudes)


def evolved_bytes(psi, n, steps, matrices=None):
    """``psi`` evolved through a gate sequence, or through a circuit's kernel
    steps as resolved at call time, as bytes."""
    out = psi.copy()
    if isinstance(steps, CircuitProgram):
        steps = sim._circuit_steps(steps)
    _evolve(out, n, steps, matrices)
    return out.tobytes()


def x_rich_circuit(rng, n_qubits):
    """Runs of 1-8 X-type gates with 0-3 controls, each run ended by an H,
    RX or RY gate with 0-3 controls."""
    circuit_gates = []
    for _ in range(int(rng.integers(1, 5))):
        names = ["X"] * int(rng.integers(1, 9)) + [str(rng.choice(["H", "RX", "RY"]))]
        for name in names:
            theta = float(rng.uniform(-np.pi, np.pi)) if name in ("RX", "RY") else None
            n_controls = int(rng.integers(0, min(3, n_qubits - 1) + 1))
            qubits = [int(q) for q in rng.choice(n_qubits, n_controls + 1, replace=False)]
            circuit_gates.append(gates.make_gate(name, qubits[:-1], qubits[-1], theta=theta))
    return CircuitProgram(n_qubits, tuple(circuit_gates), tuple(f"q{i}" for i in range(n_qubits)))


def signed_zero_amplitudes(rng, shape):
    """Random complex amplitudes with about 30% of real and imaginary parts
    -0.0."""
    parts = np.where(rng.random((2,) + shape) < 0.3, -0.0, rng.normal(size=(2,) + shape))
    psi = np.empty(shape, dtype=complex)
    psi.real, psi.imag = parts
    return psi


@pytest.mark.parametrize("block", [1, 4, 64, 1 << 62])
def test_blocked_kernel_is_byte_identical_at_any_block_size(monkeypatch, block):
    # blocks only split the same elementwise updates, so no single state,
    # batch or (T, 2, 2) stack may move by a bit
    rng = np.random.default_rng(37)
    cases = []
    for _ in range(20):
        n, rows = int(rng.integers(1, 11)), int(rng.integers(1, 6))
        circuit_gates = random_named_circuit(rng, n, 6).gates
        circuit_gates += tuple(random_gate(rng, n) for _ in range(3))
        stacks = [
            np.array([haar_unitary(rng, 2) for _ in range(rows)]) if rng.random() < 0.5
            else gate.matrix
            for gate in circuit_gates
        ]
        single = random_state(rng, n).amplitudes.reshape((2,) * n)
        batch = np.array([random_state(rng, n).amplitudes for _ in range(rows)])
        batch = batch.reshape((rows,) + (2,) * n)
        # the reference runs at the default constant, which splits none of these
        assert batch.size // 2 <= sim.BLOCK_AMPLITUDES
        # a circuit's fused runs apply only up to BLOCK_AMPLITUDES, so the
        # patched constant also switches between the two paths
        x_circuit = x_rich_circuit(rng, n)
        cases += [(single, n, circuit_gates), (batch, n, circuit_gates),
                  (batch, n, circuit_gates, stacks), (single, n, x_circuit), (batch, n, x_circuit)]
    expected = [evolved_bytes(*case) for case in cases]
    monkeypatch.setattr(sim, "BLOCK_AMPLITUDES", block)
    assert [evolved_bytes(*case) for case in cases] == expected


def test_default_blocks_leave_a_large_register_byte_identical(monkeypatch):
    rng = np.random.default_rng(41)
    n = 16
    # gates whose lowest qubit is n - 2 also fix the last qubit as a block
    # bit: an arithmetic gate on it, a gate controlled on it and a swap on it
    on_last_but_one = (gates.ry(0.7, n - 2), gates.ch(n - 2, 5), gates.x(n - 2))
    circuit_gates = random_named_circuit(rng, n, 24).gates + on_last_but_one
    assert any(not gate.controls for gate in circuit_gates)  # slices of 2^15 get split
    psi = signed_zero_amplitudes(rng, (1 << n,))
    psi = (psi / np.linalg.norm(psi)).reshape((2,) * n)
    # four rows also split the 2^16-amplitude slices of one-control gates
    batch = signed_zero_amplitudes(rng, (4,) + (2,) * n)
    blocked = [evolved_bytes(amps, n, circuit_gates) for amps in (psi, batch)]
    monkeypatch.setattr(sim, "BLOCK_AMPLITUDES", 1 << 62)
    assert [evolved_bytes(amps, n, circuit_gates) for amps in (psi, batch)] == blocked


@pytest.mark.parametrize(
    "build, n_controls", [(gates.x, 0), (gates.cnot, 1), (gates.ccnot, 2), (gates.cccnot, 3)]
)
def test_x_type_gates_permute_amplitudes_exactly(build, n_controls):
    rng = np.random.default_rng(43)
    n = 5
    for target in range(n):
        others = [q for q in range(n) if q != target]
        controls = [int(q) for q in rng.choice(others, n_controls, replace=False)]
        gate = build(*controls, target)
        state = random_state(rng, n)
        out = apply_gate(state, gate).amplitudes
        assert np.array_equal(out, gate_unitary(gate, n) @ state.amplitudes)
        # the same matrix as a 1-stack takes the arithmetic path
        stacked = state.amplitudes.reshape((1,) + (2,) * n).copy()
        _evolve(stacked, n, (gate,), [gate.matrix[None]])
        assert np.array_equal(out, stacked.reshape(-1))
        # the swap moves every amplitude bit for bit, signed zeros included
        psi = signed_zero_amplitudes(rng, (1 << n,))
        index = np.arange(1 << n)
        flip = np.all([(index >> (n - 1 - c)) & 1 for c in controls], axis=0)
        expected = psi[index ^ np.where(flip, 1 << (n - 1 - target), 0)]
        assert evolved_bytes(psi.reshape((2,) * n), n, (gate,)) == expected.tobytes()


def test_fused_x_runs_match_gate_by_gate_application_byte_for_byte():
    rng = np.random.default_rng(47)
    fused = 0
    for n in range(1, 11):
        for _ in range(6):
            circuit = x_rich_circuit(rng, n)
            fused += sum(isinstance(step, np.ndarray) for step in sim._circuit_steps(circuit))
            psi = signed_zero_amplitudes(rng, (1 << n,))
            psi[0] = 1.0  # never all zeros
            state = StateVector(n, psi / np.linalg.norm(psi))
            expected = state
            for gate in circuit.gates:
                expected = apply_gate(expected, gate)
            evolved = apply_circuit(state, circuit)
            assert evolved.amplitudes.tobytes() == expected.amplitudes.tobytes()
            # a batch of columns, as verify's oracle loop runs them
            batch = signed_zero_amplitudes(rng, (16,) + (2,) * n)
            assert evolved_bytes(batch, n, circuit) == evolved_bytes(batch, n, circuit.gates)
    assert fused > 0


def test_paper_circuit_runs_as_h_fused_run_ch_fused_run():
    circuit = build_d4_to_d5_circuit()
    first, run_a, middle, run_b = sim._circuit_steps(circuit)
    assert first is circuit.gates[0] and first.label == "G1" and first.name == "H"
    assert middle is circuit.gates[17] and middle.label == "G14" and middle.name == "H"
    for perm, records, count, labels in ((run_a, circuit.gates[1:17], 16, range(2, 14)),
                                         (run_b, circuit.gates[18:], 11, range(15, 25))):
        assert len(records) == count
        assert {g.label for g in records} == {f"G{i}" for i in labels}
        # the run's Kronecker-product matrix has its one 1 of row i at perm[i]
        matrix = circuit_unitary(CircuitProgram(6, records, circuit.qubit_labels))
        assert np.array_equal(np.argmax(np.abs(matrix), axis=1), perm)
        assert not perm.flags.writeable


@pytest.fixture
def permutation_builds(monkeypatch):
    """A list that gets the arguments of every index table built."""
    built = []
    build = sim._x_permutation
    monkeypatch.setattr(sim, "_x_permutation", lambda *args: built.append(args) or build(*args))
    return built


def test_fused_runs_are_built_once_per_circuit_and_freed_with_it(permutation_builds):
    paper = build_d4_to_d5_circuit()
    circuit = CircuitProgram(6, paper.gates, paper.qubit_labels)
    source = random_state(np.random.default_rng(53), 6)
    first = apply_circuit(source, circuit)
    assert len(permutation_builds) == 2
    assert apply_circuit(source, circuit).amplitudes.tobytes() == first.amplitudes.tobytes()
    assert len(permutation_builds) == 2
    entries = len(sim._STEPS)
    table = weakref.ref(sim._STEPS[circuit][1])
    del circuit
    gc.collect()
    assert len(sim._STEPS) == entries - 1
    assert table() is None


def test_no_index_table_above_block_amplitudes(permutation_builds):
    n = 15
    assert 1 << n > sim.BLOCK_AMPLITUDES
    labels = tuple(f"q{i}" for i in range(n))
    run = (gates.x(3), gates.cnot(0, 5), gates.ccnot(1, 3, 9))
    circuit = CircuitProgram(n, (gates.h(0),) + run, labels)
    assert sim._circuit_steps(circuit) is circuit.gates
    state = random_state(np.random.default_rng(59), n)
    expected = state
    for gate in circuit.gates:
        expected = apply_gate(expected, gate)
    assert apply_circuit(state, circuit).amplitudes.tobytes() == expected.amplitudes.tobytes()
    assert permutation_builds == [] and circuit not in sim._STEPS


def test_control_locality_is_exact():
    # amplitudes whose control bits are not all 1 must be copied bit-identically
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        gate = random_gate(rng, n)
        if not gate.controls:
            continue
        state = random_state(rng, n)
        out = apply_gate(state, gate)
        for index in range(1 << n):
            if all((index >> (n - 1 - c)) & 1 for c in gate.controls):
                continue
            assert out.amplitudes[index] == state.amplitudes[index]


# ---------------------------------------------------------------------------
# branch selection


def test_postselect_impossible_branch():
    with pytest.raises(ValueError, match="probability"):
        postselect(new_basis_state(1, "0"), 0, 1)


def test_postselect_rejects_bad_qubit_or_outcome():
    state = new_basis_state(2, "00")
    for qubit in (-1, 2):
        with pytest.raises(ValueError, match=f"qubit {qubit} out of range for 2 qubits"):
            postselect(state, qubit, 0)
    for outcome in (-1, 2):
        with pytest.raises(ValueError, match=f"outcome must be 0 or 1, got {outcome}"):
            postselect(state, 0, outcome)


def test_branch_selection_on_every_qubit():
    # postselect against bit arithmetic on the flat index, also on registers
    # above BLOCK_AMPLITUDES
    rng = np.random.default_rng(17)
    for n in (2, 3, 4, 5, 6, 15, 16):
        index = np.arange(1 << n)
        for _ in range(3):
            state = random_state(rng, n)
            for qubit in range(n):
                for outcome in (0, 1):
                    kept = (index >> (n - 1 - qubit)) & 1 == outcome
                    prob = np.sum(np.abs(state.amplitudes[kept]) ** 2)
                    expected = np.where(kept, state.amplitudes / math.sqrt(prob), 0)
                    probability, collapsed = postselect(state, qubit, outcome)
                    assert probability == pytest.approx(prob, abs=1e-12)
                    np.testing.assert_allclose(collapsed.amplitudes, expected, atol=1e-12)
                    # every amplitude outside the branch is +0.0
                    outside = collapsed.amplitudes[~kept].view(float)
                    assert not np.any(outside) and not np.any(np.signbit(outside))


# ---------------------------------------------------------------------------
# fidelity


def test_fidelity_self_is_one():
    state = random_state(np.random.default_rng(3), 3)
    assert fidelity_pure(state, state) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_orthogonal_is_zero():
    assert fidelity_pure(new_basis_state(1, "0"), new_basis_state(1, "1")) == 0


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        fidelity_pure(new_basis_state(1, "0"), new_basis_state(2, "00"))


def test_fidelity_bounds_and_phase_invariance():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = random_state(rng, 3)
        b = random_state(rng, 3)
        f = fidelity_pure(a, b)
        assert 0.0 <= f <= 1.0 + 1e-12
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        rotated = StateVector(3, a.amplitudes * phase)
        assert fidelity_pure(rotated, b) == pytest.approx(f, abs=1e-12)
        assert fidelity_pure(b, a) == pytest.approx(f, abs=1e-12)


# ---------------------------------------------------------------------------
# full-matrix oracle


def test_unitary_of_empty_circuit():
    circuit = CircuitProgram(2, (), ("a", "b"))
    np.testing.assert_array_equal(circuit_unitary(circuit), np.eye(4))


def test_unitary_of_single_x():
    circuit = CircuitProgram(1, (gates.x(0),), ("a",))
    np.testing.assert_allclose(circuit_unitary(circuit), [[0, 1], [1, 0]], atol=0)


def test_unitary_capacity_bound():
    circuit = CircuitProgram(13, (), tuple(f"q{i}" for i in range(13)))
    with pytest.raises(ValueError, match="oracle"):
        circuit_unitary(circuit)


def test_gate_unitary_matches_apply_gate():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        gate = random_gate(rng, n)
        matrix = gate_unitary(gate, n)
        state = random_state(rng, n)
        direct = apply_gate(state, gate).amplitudes
        assert np.max(np.abs(matrix @ state.amplitudes - direct)) <= 1e-12


def kron_gate_unitary(gate, n):
    """I + (U - I)_target (x) P1_controls, one np.kron per qubit."""
    factor = np.ones((1, 1), dtype=complex)
    for q in range(n):
        if q == gate.target:
            part = gate.matrix - np.eye(2)
        elif q in gate.controls:
            part = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
        else:
            part = np.eye(2, dtype=complex)
        factor = np.kron(factor, part)
    return np.eye(1 << n, dtype=complex) + factor


def test_gate_unitary_equals_the_np_kron_construction_exactly():
    rng = np.random.default_rng(31)
    cases = [(random_gate(rng, n), n) for n in range(1, 9) for _ in range(12)]
    cases += [(gate, 6) for gate in build_d4_to_d5_circuit().gates]
    for gate, n in cases:
        np.testing.assert_array_equal(gate_unitary(gate, n), kron_gate_unitary(gate, n))


def test_circuit_unitary_matches_gate_by_gate_application():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        circuit = random_named_circuit(rng, n, int(rng.integers(1, 11)))
        matrix = circuit_unitary(circuit)
        assert np.max(np.abs(matrix.conj().T @ matrix - np.eye(1 << n))) <= 1e-10
        state = random_state(rng, n)
        direct = apply_circuit(state, circuit).amplitudes
        assert np.max(np.abs(matrix @ state.amplitudes - direct)) <= 1e-12


# ---------------------------------------------------------------------------
# tensor products


def test_tensor_orders_first_factor_most_significant():
    state = tensor(new_basis_state(1, "1"), new_basis_state(2, "00"))
    assert state.n_qubits == 3
    assert state.amplitudes[0b100] == 1


def test_tensor_of_random_states_keeps_norm():
    rng = np.random.default_rng(29)
    state = tensor(random_state(rng, 2), random_state(rng, 3))
    assert abs(np.linalg.norm(state.amplitudes) - 1) <= 1e-12


def test_tensor_accepts_a_product_whose_factor_norm_errors_add_up():
    # each factor's norm is 1 + 9e-13, within NORM_ATOL; the product's
    # 1 + 1.8e-12 is not, so the product is divided by its norm
    a = StateVector(1, np.array([math.sqrt(1 + 1.8e-12), 0]))
    f = tensor(a, a).amplitudes.view(float)
    assert abs(math.sqrt(f @ f) - 1.0) <= sim.NORM_ATOL
    b = StateVector(2, np.full(4, 0.5 * math.sqrt(1 - 1.8e-12)))
    f = tensor(b, b).amplitudes.view(float)
    assert abs(math.sqrt(f @ f) - 1.0) <= sim.NORM_ATOL


def test_tensor_keeps_the_outer_product_bits_of_a_normalized_product():
    rng = np.random.default_rng(31)
    pairs = [(random_state(rng, i), random_state(rng, j)) for i in (1, 2, 3) for j in (1, 2, 3)]
    # the expansion input, and the recycling input, whose factor's norm
    # computes to 0.9999999999999999
    pairs += [(dicke_state(4, 2), new_basis_state(2, "00")), (wlike_state(), new_basis_state(1, "0"))]
    for a, b in pairs:
        expected = np.multiply.outer(a.amplitudes, b.amplitudes).reshape(-1)
        assert tensor(a, b).amplitudes.tobytes() == expected.tobytes()
