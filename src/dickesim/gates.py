"""Gate records, circuit programs, and a line-oriented circuit text format.

Every gate is stored as ``(controls, target, matrix)``: a 2x2 unitary applied
to the target qubit on the subspace where all control qubits are |1>, acting
as the identity elsewhere. CNOT, CH, CCNOT and CCCNOT are all instances of
this record with 1, 1, 2 and 3 controls; uncontrolled single-qubit gates have
an empty control tuple.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

UNITARY_ATOL = 1e-12

_SQRT1_2 = 1.0 / math.sqrt(2.0)

H_MATRIX = np.array([[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]], dtype=complex)
X_MATRIX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
H_MATRIX.flags.writeable = False
X_MATRIX.flags.writeable = False


def _index(value) -> int:
    """``operator.index(value)``: takes ints and numpy integers. Anything else,
    ``bool`` and ``numpy.bool_`` included, raises ``TypeError`` with one message."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{value!r} cannot be interpreted as an integer")


def _numbers(values) -> np.ndarray:
    """``values`` as an array; ``ValueError`` unless its dtype is integer, real or complex."""
    array = np.asarray(values)
    if array.dtype.kind not in "iufc":
        raise ValueError(f"expected an array of numbers, got dtype {array.dtype}")
    return array


def _half_angle(theta: float) -> tuple[float, float]:
    """The cosine and sine of ``theta / 2``, for a finite ``theta``."""
    if not math.isfinite(theta):
        raise ValueError("rotation angle must be finite")
    return math.cos(theta / 2.0), math.sin(theta / 2.0)


def rx_matrix(theta: float) -> np.ndarray:
    """Rotation by ``theta`` radians about the X axis of the Bloch sphere.

    ``rx_matrix(0)`` is exactly the 2x2 identity.
    """
    c, s = _half_angle(theta)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry_matrix(theta: float) -> np.ndarray:
    """Rotation by ``theta`` radians about the Y axis of the Bloch sphere."""
    c, s = _half_angle(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def is_unitary(matrix: np.ndarray) -> bool:
    """True iff ``matrix``, or every matrix of a ``(..., d, d)`` stack, is
    unitary within ``UNITARY_ATOL``."""
    matrix = np.asarray(_numbers(matrix), dtype=complex)
    if matrix.ndim < 2 or matrix.shape[-2] != matrix.shape[-1]:
        return False
    deviation = np.swapaxes(matrix.conj(), -1, -2) @ matrix
    deviation -= np.eye(matrix.shape[-1])
    return bool(np.max(np.abs(deviation)) <= UNITARY_ATOL)


def _check_target_matrix(matrix: np.ndarray) -> None:
    """Raise unless the complex ``matrix``, one ``(2, 2)`` target matrix or a
    ``(..., 2, 2)`` stack of them, is finite and unitary."""
    if not np.all(np.isfinite(matrix.view(float))):
        raise ValueError("target matrix has non-finite entries")
    if not is_unitary(matrix):
        raise ValueError("target matrix is not unitary")


def _named_matrix(name: str, theta: float | None) -> np.ndarray:
    """The target matrix of the mnemonic ``name`` ("H", "X", "RX", "RY")."""
    if name in ("H", "X"):
        if theta is not None:
            raise ValueError(f"gate {name} takes no angle")
        return H_MATRIX if name == "H" else X_MATRIX
    if name in ("RX", "RY"):
        if theta is None:
            raise ValueError(f"gate {name} requires an angle")
        return rx_matrix(theta) if name == "RX" else ry_matrix(theta)
    raise ValueError(f"unknown gate name {name!r}")


@dataclass(frozen=True, eq=False)
class GateSpec:
    """A (possibly multi-)controlled single-target gate.

    Attributes:
        controls: qubit indices that must all be |1> for the gate to act.
        target: qubit index the 2x2 ``matrix`` acts on; never a control.
        matrix: 2x2 unitary applied to the target qubit.
        label: free-form step label (e.g. "G12"); composite steps may share one.
        name: mnemonic of the target operation ("H", "X", "RX", "RY") for the
            text format, or None for gates with no named form. A named gate's
            ``matrix`` must equal the named one byte for byte.
        theta: angle parameter of the named operation, if it takes one, as a float.
    """

    controls: tuple[int, ...]
    target: int
    matrix: np.ndarray
    label: str = ""
    name: str | None = None
    theta: float | None = None

    def __post_init__(self) -> None:
        controls = tuple(_index(c) for c in self.controls)
        target = _index(self.target)
        object.__setattr__(self, "controls", controls)
        object.__setattr__(self, "target", target)
        if len(set(controls)) != len(controls):
            raise ValueError(f"duplicate control qubits: {controls}")
        if any(c < 0 for c in controls) or target < 0:
            raise ValueError("qubit indices must be non-negative")
        if target in controls:
            raise ValueError(f"target qubit {target} is also a control")
        matrix = np.array(_numbers(self.matrix), dtype=complex, order="C")  # for the view(float) below
        if matrix.shape != (2, 2):
            raise ValueError(f"target matrix must be 2x2, got {matrix.shape}")
        _check_target_matrix(matrix)
        # The text format writes repr(theta), which reads back only from a float.
        theta = None if self.theta is None else float(self.theta)
        object.__setattr__(self, "theta", theta)
        named = None if self.name is None else _named_matrix(self.name, theta)
        if named is not None and matrix.tobytes() != named.tobytes():
            raise ValueError(f"target matrix is not the matrix of gate {self.name}")
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.controls + (self.target,)

    def check_fits(self, n_qubits: int) -> None:
        """Raise unless every qubit of the gate lies in an ``n_qubits`` register."""
        if max(self.qubits) >= n_qubits:
            raise ValueError(
                f"gate {self.label!r} touches qubit {max(self.qubits)}, "
                f"but the register has {n_qubits} qubits"
            )

    def mnemonic(self) -> str:
        """Wire-format gate token, e.g. "CNOT", "CCCNOT", "CH", "RY"."""
        if self.name is None:
            raise ValueError(f"gate {self.label!r} has no named form")
        base = "NOT" if (self.name == "X" and self.controls) else self.name
        return "C" * len(self.controls) + base


def make_gate(
    name: str,
    controls: Iterable[int],
    target: int,
    theta: float | None = None,
    label: str = "",
) -> GateSpec:
    """Build a gate from a target-operation mnemonic ("H", "X", "RX", "RY")."""
    matrix = _named_matrix(name, theta)
    return GateSpec(tuple(controls), target, matrix, label=label, name=name, theta=theta)


def h(target: int, label: str = "") -> GateSpec:
    return make_gate("H", (), target, label=label)


def x(target: int, label: str = "") -> GateSpec:
    return make_gate("X", (), target, label=label)


def ry(theta: float, target: int, label: str = "") -> GateSpec:
    return make_gate("RY", (), target, theta=theta, label=label)


def cnot(control: int, target: int, label: str = "") -> GateSpec:
    return make_gate("X", (control,), target, label=label)


def ch(control: int, target: int, label: str = "") -> GateSpec:
    return make_gate("H", (control,), target, label=label)


def ccnot(control1: int, control2: int, target: int, label: str = "") -> GateSpec:
    return make_gate("X", (control1, control2), target, label=label)


def cccnot(control1: int, control2: int, control3: int, target: int, label: str = "") -> GateSpec:
    return make_gate("X", (control1, control2, control3), target, label=label)


@dataclass(frozen=True, eq=False)
class CircuitProgram:
    """An ordered gate list over a labeled qubit register."""

    n_qubits: int
    gates: tuple[GateSpec, ...]
    qubit_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        n_qubits = _index(self.n_qubits)
        if n_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        labels = tuple(self.qubit_labels)
        if len(labels) != n_qubits:
            raise ValueError(f"expected {n_qubits} qubit labels, got {len(labels)}")
        if len(set(labels)) != len(labels):
            raise ValueError("qubit labels must be distinct")
        gates = tuple(self.gates)
        for g in gates:
            g.check_fits(n_qubits)
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "gates", gates)
        object.__setattr__(self, "qubit_labels", labels)

    def qubit_index(self, label: str) -> int:
        try:
            return self.qubit_labels.index(label)
        except ValueError:
            raise ValueError(f"unknown qubit label {label!r}") from None

    def step_labels(self) -> tuple[str, ...]:
        """Distinct gate labels in first-appearance order."""
        seen: dict[str, None] = {}
        for g in self.gates:
            if g.label and g.label not in seen:
                seen[g.label] = None
        return tuple(seen)

    def count_gates(self, n_controls: int) -> int:
        return sum(1 for g in self.gates if len(g.controls) == n_controls)

    def records(self) -> list[tuple[str, str, tuple[str, ...], str, float | None]]:
        """Each gate as written: ``(label, mnemonic, control labels, target label,
        theta)``; ``GateSpec.mnemonic`` refuses a gate with no named form."""
        q = self.qubit_labels
        return [(g.label, g.mnemonic(), tuple(q[c] for c in g.controls), q[g.target], g.theta)
                for g in self.gates]


_BASE_NAMES = {"NOT": "X", "X": "X", "H": "H", "RX": "RX", "RY": "RY"}


def format_circuit(circuit: CircuitProgram) -> str:
    """Serialize to the one-gate-per-line text format: after a ``# qubits:``
    header naming the register (needed to round-trip qubits no gate touches),
    a line ``LABEL GATE c=<labels> t=<label> [theta=<radians>]`` per entry of
    :meth:`CircuitProgram.records`, with ``-`` for no label or no controls.

    Raises ``ValueError`` naming the first label that :func:`parse_circuit`
    would misread: a qubit label that is empty, ``-`` (no controls) or
    contains whitespace or ``,``; a gate label that is ``-`` (no label),
    starts with ``#`` (a comment) or contains whitespace. Only then does
    ``records`` refuse a gate with no named form.
    """
    for label in circuit.qubit_labels:
        if label in ("", "-") or any(ch.isspace() or ch == "," for ch in label):
            raise ValueError(f"qubit label {label!r} cannot be written in the text format")
    for g in circuit.gates:
        if g.label == "-" or g.label.startswith("#") or any(ch.isspace() for ch in g.label):
            raise ValueError(f"gate label {g.label!r} cannot be written in the text format")
    lines = ["# qubits: " + ",".join(circuit.qubit_labels)]
    for label, token, controls, target, theta in circuit.records():
        angle = "" if theta is None else f" theta={theta!r}"
        lines.append(f"{label or '-'} {token} c={','.join(controls) or '-'} t={target}{angle}")
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> CircuitProgram:
    """Parse the text format produced by :func:`format_circuit`, in one pass.

    The required ``# qubits:`` header names the register and must come before
    the first gate line; a second header is an error, and so is a register
    that :class:`CircuitProgram` rejects. Every error from a line, header or
    gate, starts with ``line N: ``.
    """
    register: CircuitProgram | None = None
    header_lineno = 0
    gates = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("qubits:"):
                    if register is not None:
                        raise ValueError(f"repeated '# qubits:' header, first on line {header_lineno}")
                    labels = tuple(s.strip() for s in body.split(":", 1)[1].split(",") if s.strip())
                    register = CircuitProgram(len(labels), (), labels)
                    header_lineno = lineno
                continue
            if register is None:
                raise ValueError("gate line before the '# qubits:' header")
            parts = line.split()
            if len(parts) < 3:
                raise ValueError(f"malformed gate line {line!r}")
            fields = {}
            for key, eq, value in (part.partition("=") for part in parts[2:]):
                if not eq:
                    raise ValueError(f"expected key=value, got {key!r}")
                if key in fields or key not in ("c", "t", "theta"):
                    problem = "repeated" if key in fields else "unknown"
                    raise ValueError(f"{problem} key {key!r}")
                fields[key] = value
            label, token = parts[:2]
            base = token.lstrip("C")
            if base not in _BASE_NAMES:
                raise ValueError(f"unknown gate token {token!r}")
            n_controls = len(token) - len(base)
            ctl = fields.get("c", "-")
            controls = tuple(map(register.qubit_index, ctl.split(","))) if ctl != "-" else ()
            if len(controls) != n_controls:
                raise ValueError(f"gate {token!r} expects {n_controls} controls, got {len(controls)}")
            if "t" not in fields:
                raise ValueError(f"gate line for {token!r} is missing t=")
            theta = float(fields["theta"]) if "theta" in fields else None
            target = register.qubit_index(fields["t"])
            label = "" if label == "-" else label
            gates.append(make_gate(_BASE_NAMES[base], controls, target, theta, label))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if register is None:
        raise ValueError("no '# qubits:' header")
    return CircuitProgram(register.n_qubits, tuple(gates), register.qubit_labels)
