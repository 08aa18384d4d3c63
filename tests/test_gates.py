"""Gate records, rotation matrices, and the circuit text format."""
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _layouts
from dickesim import gates, sim
from dickesim.dicke import BipartitionParams, dicke_state
from dickesim.gates import (
    CircuitProgram,
    GateSpec,
    format_circuit,
    parse_circuit,
    rx_matrix,
    ry_matrix,
)
from dickesim.protocols import (
    build_d4_prep_circuit,
    build_d4_to_d5_circuit,
    build_w3_circuit,
    run_protocol_stats,
)
from dickesim.sim import StateVector, new_basis_state, postselect

GOLDEN = Path(__file__).parent / "golden"


def test_rx_at_zero_is_identity():
    np.testing.assert_array_equal(rx_matrix(0.0), np.eye(2))


def test_rx_at_pi_is_x_up_to_phase():
    np.testing.assert_allclose(rx_matrix(math.pi), [[0, -1j], [-1j, 0]], atol=1e-15)


def test_rx_small_angle_diagonal():
    m = rx_matrix(0.1)
    assert m[0, 0] == pytest.approx(math.cos(0.05), abs=1e-15)
    assert m[1, 1] == pytest.approx(math.cos(0.05), abs=1e-15)


def test_ry_rotates_zero_to_real_superposition():
    theta = 1.23
    column = ry_matrix(theta)[:, 0]
    np.testing.assert_allclose(
        column, [math.cos(theta / 2), math.sin(theta / 2)], atol=1e-15
    )


def test_rotations_are_unitary():
    rng = np.random.default_rng(31)
    for theta in rng.uniform(-2 * math.pi, 2 * math.pi, size=25):
        assert gates.is_unitary(rx_matrix(theta))
        assert gates.is_unitary(ry_matrix(theta))


@pytest.mark.parametrize("matrix", [np.ones((2, 3)), np.ones(2)], ids=["2x3", "1-d"])
def test_a_non_square_matrix_is_not_unitary(matrix):
    assert gates.is_unitary(matrix) is False


def test_rotation_rejects_nonfinite_angle():
    with pytest.raises(ValueError):
        rx_matrix(float("nan"))


def test_gatespec_rejects_duplicate_controls():
    with pytest.raises(ValueError, match="duplicate"):
        GateSpec((0, 0), 1, gates.X_MATRIX)


def test_gatespec_rejects_target_in_controls():
    with pytest.raises(ValueError, match="control"):
        GateSpec((1,), 1, gates.X_MATRIX)


@pytest.mark.parametrize(
    "controls, target",
    [((1.7,), 0), ((), 1.5), ((1.0,), 0), ((), np.float64(2.0)), (("1",), 0), ((), None)],
    ids=["float-control", "float-target", "integral-float-control", "numpy-float-target",
         "str-control", "no-target"],
)
def test_gatespec_rejects_non_integer_qubits(controls, target):
    with pytest.raises(TypeError):
        GateSpec(controls, target, gates.X_MATRIX)


def test_gatespec_stores_numpy_integer_qubits_as_int():
    gate = GateSpec((np.int64(2), np.uint8(1)), np.int32(0), gates.X_MATRIX)
    assert gate.controls == (2, 1) and gate.target == 0
    assert all(type(q) is int for q in gate.qubits)


@pytest.mark.parametrize("matrix", [rx_matrix(0.3), ry_matrix(0.3).T, rx_matrix(0.3).conj().T],
                         ids=["rx", "ry transposed", "rx adjoint"])
def test_gatespec_takes_any_matrix_layout(matrix):
    # ry_matrix(0.3).T and an adjoint U.conj().T are Fortran-ordered views.
    reference = GateSpec((0,), 1, np.ascontiguousarray(matrix))
    state = StateVector(2, np.array([0.5, 0.5j, -0.5, 0.5], dtype=complex))

    def output(gate):
        circuit = CircuitProgram(2, (gates.h(0), gate), ("a", "b"))
        return sim.apply_circuit(state, circuit).amplitudes.tobytes()

    for layout, m in {"given": matrix, **_layouts(matrix)}.items():
        gate = GateSpec((0,), 1, m)
        assert gate.matrix.tobytes() == reference.matrix.tobytes(), layout
        assert output(gate) == output(reference), layout


@pytest.mark.parametrize("controls, target", [((-1,), 0), ((1,), -1)], ids=["control", "target"])
def test_gatespec_rejects_negative_qubits(controls, target):
    with pytest.raises(ValueError, match="^qubit indices must be non-negative$"):
        GateSpec(controls, target, gates.X_MATRIX)


def test_gatespec_rejects_nonunitary_matrix():
    with pytest.raises(ValueError, match="unitary"):
        GateSpec((), 0, np.array([[1, 0], [0, 2]], dtype=complex))


def test_gatespec_rejects_wrong_shape():
    with pytest.raises(ValueError):
        GateSpec((), 0, np.eye(4, dtype=complex))


def test_gatespec_name_must_name_its_matrix():
    # A mismatched name is what the text format writes: H under "X" would be
    # written as CNOT and read back as X; the identity under "RX" would be
    # written with no angle, which parse_circuit rejects.
    with pytest.raises(ValueError, match="not the matrix of gate X"):
        GateSpec((0,), 1, gates.H_MATRIX, name="X")
    with pytest.raises(ValueError, match="requires an angle"):
        GateSpec((), 0, np.eye(2), name="RX")
    with pytest.raises(ValueError, match="not the matrix of gate RY"):
        GateSpec((), 0, ry_matrix(0.3), name="RY", theta=0.1)


def test_mnemonics():
    assert gates.h(0).mnemonic() == "H"
    assert gates.x(0).mnemonic() == "X"
    assert gates.cnot(0, 1).mnemonic() == "CNOT"
    assert gates.ch(0, 1).mnemonic() == "CH"
    assert gates.ccnot(0, 1, 2).mnemonic() == "CCNOT"
    assert gates.cccnot(0, 1, 2, 3).mnemonic() == "CCCNOT"
    assert gates.ry(0.5, 0).mnemonic() == "RY"
    with pytest.raises(ValueError, match="^gate 'G' has no named form$"):
        GateSpec((), 0, gates.X_MATRIX, label="G").mnemonic()


def test_make_gate_angle_rules():
    with pytest.raises(ValueError, match="no angle"):
        gates.make_gate("X", (), 0, theta=0.2)
    with pytest.raises(ValueError, match="requires an angle"):
        gates.make_gate("RY", (), 0)
    with pytest.raises(ValueError, match="unknown gate"):
        gates.make_gate("SWAP", (), 0)
    with pytest.raises(ValueError, match="^unknown gate name 'h'$"):
        gates.make_gate("h", (), 0)


def _postselected(qubit, outcome):
    """The probability and the collapsed amplitudes' bytes."""
    probability, state = postselect(new_basis_state(2, "01"), qubit, outcome)
    return probability, state.amplitudes.tobytes()


# Each entry point validates its integer arguments with gates._index: a call
# with two arguments, and two values that it accepts. An entry point with one
# integer argument is called once per argument.
INTEGER_ENTRY_POINTS = {
    "GateSpec": (lambda a, b: GateSpec((a,), b, gates.X_MATRIX).qubits, (0, 1)),
    "BipartitionParams": (lambda a, b: BipartitionParams(4, 2, 3, a, b).added, (1, 1)),
    "run_protocol_stats": (lambda a, b: run_protocol_stats(a, b).shots, (1, 1)),
    "dicke_state": (lambda a, b: dicke_state(a, b).n_qubits, (1, 1)),
    "postselect": (_postselected, (1, 1)),
    "StateVector": (
        lambda a, b: (StateVector(a, [1, 0]).n_qubits, StateVector(b, [0, 1]).n_qubits), (1, 1)),
    "CircuitProgram": (
        lambda a, b: (CircuitProgram(a, (), "q").n_qubits, CircuitProgram(b, (), "r").n_qubits),
        (1, 1)),
    "new_basis_state": (
        lambda a, b: (new_basis_state(a, "1").n_qubits, new_basis_state(b, "0").n_qubits), (1, 1)),
}


@pytest.mark.parametrize("entry", sorted(INTEGER_ENTRY_POINTS))
def test_integer_arguments_refuse_bool_and_float(entry):
    call, good = INTEGER_ENTRY_POINTS[entry]
    expected = call(*good)
    # numpy integers are stored as int: numpy 2 reprs np.int64(1) as "np.int64(1)".
    assert repr(call(np.int64(good[0]), np.uint8(good[1]))) == repr(expected)
    for bad in (True, False, np.True_, 1.0, 0.0, 4.5):
        with pytest.raises(TypeError):
            call(bad, good[1])
        with pytest.raises(TypeError):
            call(good[0], bad)


def test_circuit_rejects_out_of_range_gate():
    with pytest.raises(ValueError, match="touches qubit"):
        CircuitProgram(2, (gates.x(2),), ("a", "b"))


def test_circuit_rejects_label_count_mismatch():
    with pytest.raises(ValueError):
        CircuitProgram(2, (), ("a",))


def test_qubit_index_lookup():
    circuit = build_d4_to_d5_circuit()
    assert circuit.qubit_index("a2") == 5
    with pytest.raises(ValueError, match="unknown qubit label"):
        circuit.qubit_index("d9")


@pytest.mark.parametrize(
    "builder", [build_w3_circuit, build_d4_prep_circuit, build_d4_to_d5_circuit]
)
def test_text_format_round_trip(builder):
    circuit = builder()
    parsed = parse_circuit(format_circuit(circuit))
    assert parsed.n_qubits == circuit.n_qubits
    assert parsed.qubit_labels == circuit.qubit_labels
    assert len(parsed.gates) == len(circuit.gates)
    for original, back in zip(circuit.gates, parsed.gates):
        assert back.label == original.label
        assert back.controls == original.controls
        assert back.target == original.target
        np.testing.assert_array_equal(back.matrix, original.matrix)


@pytest.mark.parametrize("case", ["prepare_w3_circuit_csv", "prepare_d4_circuit_csv"])
def test_published_circuit_text_round_trips_byte_for_byte(case):
    text = (GOLDEN / case / "stdout").read_text()
    assert format_circuit(parse_circuit(text)) == text


@pytest.mark.parametrize(
    "theta", [np.float64(0.5), np.float32(0.25), np.int64(2), 1], ids=repr
)
def test_angle_of_any_real_type_round_trips_byte_for_byte(theta):
    # the line holds repr(theta): "np.float64(0.5)" under numpy 2 does not
    # parse, and "1" parses back as 1.0, which writes "1.0"
    gate = gates.ry(theta, 0, "R")
    assert type(gate.theta) is float and gate.theta == theta
    text = format_circuit(CircuitProgram(1, (gate,), ("q",)))
    assert f"theta={float(theta)!r}" in text
    assert format_circuit(parse_circuit(text)) == text


def test_format_lines_shape():
    text = format_circuit(build_w3_circuit())
    lines = text.strip().splitlines()
    assert lines[0] == "# qubits: w1,w2,w3"
    assert lines[1].startswith("P1 RY c=- t=w1 theta=")
    assert lines[2] == "P2 CH c=w1 t=w2"
    assert lines[-1] == "P5 X c=- t=w1"


def test_parse_errors():
    with pytest.raises(ValueError, match="header"):
        parse_circuit("- X c=- t=a\n")
    for text in ("", "# a comment\n\n# another\n"):
        with pytest.raises(ValueError, match="^no '# qubits:' header$"):
            parse_circuit(text)
    with pytest.raises(ValueError, match="unknown gate token"):
        parse_circuit("# qubits: a,b\n- SWAP c=- t=a\n")
    with pytest.raises(ValueError, match="controls"):
        parse_circuit("# qubits: a,b\n- CCNOT c=a t=b\n")
    with pytest.raises(ValueError, match="line 2: unknown qubit label"):
        parse_circuit("# qubits: a,b\n- CNOT c=z t=b\n")
    with pytest.raises(ValueError, match="line 2: repeated key 't'"):
        parse_circuit("# qubits: a,b\n- X c=- t=a t=b\n")
    with pytest.raises(ValueError, match="line 2: unknown key 'zz'"):
        parse_circuit("# qubits: a,b\n- X c=- t=a zz=1\n")
    with pytest.raises(ValueError, match="line 3: could not convert string to float: 'abc'"):
        parse_circuit("# qubits: a,b\n- X c=- t=a\n- RY c=- t=b theta=abc\n")


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "# qubits: a,b\n# qubits: c,d\n- X c=- t=a\n",
            "line 2: repeated '# qubits:' header, first on line 1",
        ),
        ("# qubits: a,a\n- X c=- t=a\n", "line 1: qubit labels must be distinct"),
        ("# note\n\n# qubits: a,a\n", "line 3: qubit labels must be distinct"),
        ("# qubits:\n", "line 1: circuit needs at least one qubit"),
        ("- X c=- t=a\n# qubits: a\n", "line 1: gate line before the '# qubits:' header"),
    ],
    ids=["repeated", "duplicate-labels", "after-comments", "empty", "gate-before-header"],
)
def test_parse_header_errors_name_the_header_line(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_circuit(text)


_no_space = st.characters().filter(lambda ch: not ch.isspace())
# format_circuit writes a qubit label that is not "" or "-" and holds no ",", and a
# gate label that is not "-" and does not start with "#"; neither holds whitespace.
writable_qubit_labels = st.text(
    _no_space.filter(lambda ch: ch != ","), min_size=1, max_size=3).filter(lambda s: s != "-")
writable_gate_labels = st.text(_no_space, max_size=3).filter(
    lambda s: s != "-" and not s.startswith("#"))


@st.composite
def named_circuits(draw):
    """A circuit of one to six named gates, whose qubit and gate labels are
    drawn from every label that the text format can write."""
    labels = draw(st.lists(writable_qubit_labels, min_size=1, max_size=5, unique=True))
    n = len(labels)
    steps = []
    for _ in range(draw(st.integers(1, 6))):
        name = draw(st.sampled_from(["H", "X", "RX", "RY"]))
        theta = None
        if name in ("RX", "RY"):
            theta = draw(st.floats(allow_nan=False, allow_infinity=False))
        qubits = draw(st.permutations(range(n)))
        n_controls = draw(st.integers(0, min(3, n - 1)))
        steps.append(
            gates.make_gate(
                name, qubits[:n_controls], qubits[n_controls], theta=theta,
                label=draw(writable_gate_labels),
            )
        )
    return CircuitProgram(n, tuple(steps), tuple(labels))


@settings(max_examples=200)
@given(named_circuits())
def test_text_format_round_trips_every_writable_circuit(circuit):
    parsed = parse_circuit(format_circuit(circuit))
    assert parsed.qubit_labels == circuit.qubit_labels
    assert len(parsed.gates) == len(circuit.gates)
    for original, back in zip(circuit.gates, parsed.gates):
        assert (back.label, back.name, back.controls, back.target) == (
            original.label, original.name, original.controls, original.target
        )
        assert repr(back.theta) == repr(original.theta)
        np.testing.assert_array_equal(back.matrix, original.matrix)


@settings(max_examples=200)
@given(named_circuits())
def test_each_written_line_reads_back_as_its_record(circuit):
    header, *lines = format_circuit(circuit).splitlines()
    assert header == "# qubits: " + ",".join(circuit.qubit_labels)
    records = circuit.records()
    assert len(lines) == len(records) == len(circuit.gates)
    for line, (label, token, controls, target, theta) in zip(lines, records):
        written_label, written_token, c, t, *angle = line.split()
        assert written_label == (label or "-")
        assert written_token == token
        assert c.startswith("c=") and t.startswith("t=")
        assert (() if c == "c=-" else tuple(c[2:].split(","))) == controls
        assert t[2:] == target
        if theta is None:
            assert angle == []
        else:
            key, _, value = angle[0].partition("=")
            assert (len(angle), key, repr(float(value))) == (1, "theta", repr(theta))


def test_text_format_round_trips_the_empty_circuit():
    text = format_circuit(CircuitProgram(3, (), ("a", "#b", "c=d")))
    parsed = parse_circuit(text)
    assert (text, parsed.n_qubits, parsed.gates) == ("# qubits: a,#b,c=d\n", 3, ())
    assert parsed.qubit_labels == ("a", "#b", "c=d") and format_circuit(parsed) == text


@pytest.mark.parametrize("kind, label", [  # one label for each rule of format_circuit
    ("qubit", ""), ("qubit", "-"), ("qubit", "a b"), ("qubit", "a,b"), ("qubit", "a\u2028"),
    ("gate", "-"), ("gate", "#g"), ("gate", "g\tg"), ("gate", "\x85")], ids=repr)
def test_format_refuses_an_unwritable_label(kind, label):
    qubits = (label, "q") if kind == "qubit" else ("p", "q")
    gate = gates.make_gate("RY", (0,), 1, theta=0.5, label="G" if kind == "qubit" else label)
    message = f"{kind} label {label!r} cannot be written in the text format"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        format_circuit(CircuitProgram(2, (gate,), qubits))


def test_format_refuses_an_unwritable_label_before_an_unnamed_gate():
    unnamed = GateSpec((), 0, gates.X_MATRIX, label="G")
    with pytest.raises(ValueError, match="^gate 'G' has no named form$"):
        CircuitProgram(1, (unnamed,), ("q",)).records()
    with pytest.raises(ValueError, match="^gate 'G' has no named form$"):
        format_circuit(CircuitProgram(1, (unnamed,), ("q",)))
    with pytest.raises(ValueError, match="qubit label 'a b' cannot be written"):
        format_circuit(CircuitProgram(1, (unnamed,), ("a b",)))


# Each turns a well-formed gate line into one the parser must reject.
MALFORMATIONS = {
    "too few fields": lambda line: " ".join(line.split()[:2]),
    "field without =": lambda line: line + " stray",
    "unknown token": lambda line: line.replace(" CNOT ", " SWAP ", 1),
    "missing target": lambda line: line.replace(" t=b", " u=b", 1),
    "control count": lambda line: line.replace(" CNOT ", " CCNOT ", 1),
    "unknown qubit": lambda line: line.replace(" t=b", " t=zz", 1),
    "target is control": lambda line: line.replace(" t=b", " t=a", 1),
    "angle on H": lambda line: line.replace(" CNOT ", " CH ", 1) + " theta=0.5",
    "missing angle": lambda line: line.replace(" CNOT ", " CRX ", 1),
    "bad angle": lambda line: line.replace(" CNOT ", " CRY ", 1) + " theta=nan",
}


@pytest.mark.parametrize("kind", sorted(MALFORMATIONS))
def test_parse_rejects_malformed_gate_lines(kind):
    line = "G1 CNOT c=a t=b"
    assert parse_circuit(f"# qubits: a,b\n{line}\n").gates[0].controls == (0,)
    with pytest.raises(ValueError, match="^line 2: "):
        parse_circuit(f"# qubits: a,b\n{MALFORMATIONS[kind](line)}\n")


@settings(max_examples=300)
@given(st.text(max_size=40))
def test_parse_raises_only_value_error_on_any_gate_line(line):
    try:
        parse_circuit("# qubits: a,b,c\n" + line)
    except ValueError as exc:
        assert str(exc).startswith("line "), exc


# Gate lines put together from words of the format, valid and not, so that
# drawn lines reach every check of a gate line and not only the first.
assembled_gate_lines = st.builds(
    lambda label, token, fields: " ".join([label, token, *fields]),
    st.sampled_from(["-", "G1"]),
    st.sampled_from(["X", "H", "RY", "NOT", "CNOT", "CCH", "CRX", "C", "SWAP"]),
    st.lists(
        st.sampled_from(["c=-", "c=a", "c=a,b", "c=z", "t=a", "t=b", "t=", "theta=0.5",
                         "theta=nan", "theta=x", "zz=1", "t"]),
        min_size=1, max_size=3,
    ),
)


@settings(max_examples=300)
@given(st.lists(assembled_gate_lines, min_size=1, max_size=4))
def test_parse_errors_name_their_line(lines):
    try:
        parse_circuit("# qubits: a,b,c\n" + "\n".join(lines))
    except ValueError as exc:
        assert re.match(r"line \d+: ", str(exc)), exc


def test_step_labels_collapse_shared_steps():
    circuit = build_d4_to_d5_circuit()
    labels = circuit.step_labels()
    assert len(labels) == 24
    assert len(circuit.gates) == 29
