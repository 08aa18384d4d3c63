"""Command-line harness: state preparation, shot sampling, exact
success-probability queries, decompositions, fidelity sweeps, and the analytic
verification suite.

Exit codes: 0 success, 2 usage error, 3 check failure, 4 I/O error.
"""
from __future__ import annotations

import argparse
import errno
import functools
import itertools
import json
import math
import os
import stat
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .checks import Check, run_all_checks
from .dicke import (
    BipartitionParams,
    decompose_source,
    decompose_target,
    dicke_state,
    max_success_probability,
)
from .gates import CircuitProgram, format_circuit
from .noise import FidelityMode, _check_angle, fidelity_sweep
from .protocols import build_d4_prep_circuit, build_w3_circuit, run_protocol_stats


# Upper limits on work requested from the command line; larger values exit 2
# instead of running for hours or failing to allocate.
MAX_SHOTS = 10**9  # sampling is one multinomial draw, the same cost at any count
MAX_STEPS = 100_000  # on 2 cores: about 0.3 s CSV, 0.4 s JSON end to end; peak about 6 MiB
MAX_QUBITS = 5_000  # --total + --added; worst case about 1.2 s (decompose --added 1, M = k = N/2)


_FLOAT_SPEC = ".12g"
TABLE_CHUNK_ROWS = 64  # rows per rendered and written chunk of a Table


def _fmt(x: float) -> str:
    return format(x, _FLOAT_SPEC)


_JSON_CONSTANTS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(text: str) -> str:
    """The JSON form of the float that ``_fmt`` writes as ``text``: ``text``
    itself in fixed form with a "." (float.__repr__ writes the same digits)."""
    if "." in text and "e" not in text:
        return text
    return _JSON_CONSTANTS.get(text) or float.__repr__(float(text))


def _json_cell(v: Any) -> str:
    """A table cell as ``json.dumps`` renders it, a float ``x`` as the float
    ``float(_fmt(x))``."""
    if isinstance(v, float):
        return _json_float(_fmt(v))
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    raise TypeError(f"table cell of type {type(v).__name__} is not JSON serializable")


def _float_column(column: Sequence[Any]) -> bool:
    """Whether ``column`` is a float column: a float64 array by its dtype,
    any other sequence when every cell is a float."""
    if isinstance(column, np.ndarray):
        return column.dtype == np.float64
    return all(isinstance(v, float) for v in column)


def _interleave(columns: Sequence[Sequence[Any]]) -> tuple[Any, ...]:
    """The cells of ``columns`` row by row, as a ``%`` row template takes them."""
    return tuple(itertools.chain.from_iterable(zip(*columns)))


def _json_column(column: Sequence[Any], floats: bool) -> list[str]:
    """Each cell of ``column`` as ``_json_cell`` writes it; a float column's
    (``floats``) in one ``%`` pass, each text then through ``_json_float``."""
    if not floats:
        return [_json_cell(v) for v in column]
    return [_json_float(t) for t in (f"%{_FLOAT_SPEC}\n" * len(column) % tuple(column)).splitlines()]


@dataclass(frozen=True)
class Table:
    """Cells under named columns, one sequence or 1-D array per column, all
    of one length; there is at least one column. Each format yields a header,
    then runs of at most ``TABLE_CHUNK_ROWS`` rows, each rendered in one pass
    from a row template; floats carry 12 significant digits in both. A float
    column (``_float_column``, decided once per render) takes ``%.12g``
    fields. When every column is one, a JSON run keeps that text if, beyond
    the template's own, it holds one ``.`` per cell (NaN, infinities, -0 and
    integers print none) and no ``e``; any other run goes through ``_json_column``."""

    names: tuple[str, ...]
    columns: Sequence[Sequence[Any]]

    def _runs(self) -> Iterator[list[Sequence[Any]]]:
        for start in range(0, len(self.columns[0]), TABLE_CHUNK_ROWS):
            cells = [column[start : start + TABLE_CHUNK_ROWS] for column in self.columns]
            yield [c.tolist() if isinstance(c, np.ndarray) else c for c in cells]

    def csv(self) -> Iterator[str]:
        """A header line, then one line per row: a float as ``_fmt`` writes it,
        as does the ``%.12g`` field of a float column; any other cell as ``str``."""
        yield ",".join(self.names) + "\n"
        floats = [_float_column(c) for c in self.columns]
        line = ",".join("%" + _FLOAT_SPEC if f else "%s" for f in floats) + "\n"
        for columns in self._runs():
            for i, column in enumerate(columns):
                if not floats[i]:
                    columns[i] = [_fmt(v) if isinstance(v, float) else v for v in column]
            yield line * len(columns[0]) % _interleave(columns)

    def json(self, indent: str, sort_keys: bool) -> Iterator[str]:
        """The rows as the array of records, column to cell, that
        ``json.dumps(..., indent=2, sort_keys=sort_keys)`` writes for a list
        whose line starts with ``indent``."""
        # Each key's last column, in the order a dict built from the row keeps.
        last = {c: i for i, c in enumerate(self.names)}
        keys = sorted(last) if sort_keys else list(last)
        fields = ",\n".join(
            f"{indent}    {encode_basestring_ascii(k).replace('%', '%%')}: %s" for k in keys
        )
        row = f"{indent}  {{\n{fields}\n{indent}  }}"
        floats = tuple(_float_column(self.columns[last[k]]) for k in keys)
        # Each "%" of a key is doubled, so ": %s" occurs only as a field.
        float_row = row.replace(": %s", ": %" + _FLOAT_SPEC) if all(floats) else ""
        # Each "%.12g" field holds the one "." that its cell prints in fixed form.
        dots, exponents = float_row.count("."), float_row.count("e")
        opening = "[\n"
        for columns in self._runs():
            cells = [columns[last[k]] for k in keys]
            n = len(cells[0])
            text = float_row and ",\n".join([float_row] * n) % _interleave(cells)
            if not text or text.count(".") != n * dots or text.count("e") != n * exponents:
                text = ",\n".join([row] * n) % _interleave([_json_column(c, f) for c, f in zip(cells, floats)])
            yield opening + text
            opening = ",\n"
        yield "[]" if opening == "[\n" else f"\n{indent}]"  # json.dumps's empty list


def _render_json(report: Any, sort_keys: bool) -> Iterator[str]:
    """``report`` as ``json.dumps(report, indent=2, sort_keys=sort_keys)``
    writes it, each Table in it as its array of records, and a final newline.

    json.dumps's ``default`` hook writes each Table as a one-NUL string, the slot
    ``"\\u0000"``, and lists the tables in output order, at the call. The chunks are
    the text between slots and, at each slot, its table's chunks at the slot line's
    indentation, rendered as read. No string of the report outside its tables may
    hold NUL (command lines cannot carry it).
    """
    tables: list[Table] = []

    def slot(obj: Any) -> str:
        if not isinstance(obj, Table):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        tables.append(obj)
        return "\0"

    pieces = json.dumps(report, indent=2, sort_keys=sort_keys, default=slot).split('"\\u0000"')
    chunks: list[Iterable[str]] = []
    for piece, table in zip(pieces, tables):
        line = piece[piece.rfind("\n") + 1:]
        chunks += [(piece,), table.json(line[: len(line) - len(line.lstrip(" "))], sort_keys)]
    return itertools.chain(*chunks, (pieces[-1] + "\n",))


# renameat2(2) arguments, from <fcntl.h> and <linux/fs.h>.
_AT_FDCWD = -100
_RENAME_EXCHANGE = 2


@functools.cache
def _renameat2() -> Callable[[int, bytes, int, bytes, int], int] | None:
    """libc's ``renameat2``, or None off Linux or where libc lacks it."""
    if not sys.platform.startswith("linux"):
        return None
    import ctypes  # numpy has imported it already

    try:
        func = ctypes.CDLL(None, use_errno=True).renameat2
    except (OSError, AttributeError):
        return None
    func.argtypes = (ctypes.c_int, ctypes.c_char_p, ctypes.c_int, ctypes.c_char_p, ctypes.c_uint)
    func.restype = ctypes.c_int
    return func


def _exchange(a: str, b: str) -> bool:
    """Swap the entries at paths ``a`` and ``b`` in one step. False, with
    nothing moved, where either is missing or the call is unsupported."""
    renameat2 = _renameat2()
    return renameat2 is not None and renameat2(
        _AT_FDCWD, os.fsencode(a), _AT_FDCWD, os.fsencode(b), _RENAME_EXCHANGE
    ) == 0


def _write_chunks(fd: int, chunks: Iterable[str]) -> None:
    """Write each chunk to ``fd`` as UTF-8, finishing short writes, then close ``fd``."""
    try:
        for data in map(memoryview, map(str.encode, chunks)):
            while data:
                data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def _write(args: argparse.Namespace, chunks: Iterable[str]) -> None:
    """Write ``chunks`` one at a time to --out atomically, as UTF-8, or to stdout.

    A symlink at --out is followed and stays; the path it resolves to is
    written. The chunks stream into a new ``.dickesim-*`` file in its directory
    as the kernel resolves it (``ln/../x`` lies in the parent of symlink ``ln``'s
    target), unlinked if a chunk fails to render. An existing file is swapped
    with it in one Linux ``renameat2(RENAME_EXCHANGE)`` call, and the temporary
    name, which then holds the old file, is unlinked; a fresh path, other
    systems and a refused exchange take ``os.replace``. Readers see the whole
    old file or the whole new one. A crash between the exchange and the unlink
    can leave one ``.dickesim-*`` file, which holds the old content. Anything
    else is opened in place: a FIFO or a device is written into, and a directory
    fails the open with ``IsADirectoryError`` naming --out before it is written.
    """
    if args.out is None:
        sys.stdout.writelines(chunks)
        return
    try:
        mode = os.stat(args.out).st_mode
    except OSError:  # a fresh path; the open below reports any other fault
        mode = 0
    if mode and not stat.S_ISREG(mode):
        _write_chunks(os.open(args.out, os.O_WRONLY), chunks)
        return
    out = os.path.realpath(args.out) if os.path.islink(args.out) else args.out
    tmp_path = os.path.join(os.path.dirname(out), f".dickesim-{os.urandom(8).hex()}")
    try:
        # Mode 0o666 less the umask, as a plain open gives (mkstemp would give 0600).
        fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        # Name the path the user gave, not the temporary file.
        raise OSError(exc.errno, exc.strerror, args.out) from None
    try:
        _write_chunks(fd, chunks)
        if not _exchange(tmp_path, out):
            os.replace(tmp_path, out)
            return
        try:
            os.unlink(tmp_path)
        except (IsADirectoryError, PermissionError):
            # A directory appeared at --out after the stat: put it back.
            _exchange(tmp_path, out)
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.out) from None
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _parameters(args: argparse.Namespace) -> dict[str, Any]:
    """The subcommand's own arguments, as its run report records them."""
    shared = ("command", "handler", "out", "format")
    return {k: v for k, v in vars(args).items() if k not in shared}


def _emit(args: argparse.Namespace, outputs: Any, chunks: Iterable[str] | Table) -> None:
    """Write the run report for --format json, otherwise ``chunks``, a
    Table as CSV; only the requested form is rendered, as it is written. An
    identical command line reproduces the report bit for bit."""
    if args.format == "json":
        report = {
            "command": args.command,
            "parameters": _parameters(args),
            "outputs": outputs,
            "tool_version": __version__,
        }
        chunks = _render_json(report, sort_keys=True)
    _write(args, chunks.csv() if isinstance(chunks, Table) else chunks)


# Each prepare target's Dicke state D(n, k), and its circuit from |0...0> or None.
_TARGETS: dict[str, tuple[tuple[int, int], Callable[[], CircuitProgram] | None]] = {
    "w3": ((3, 1), build_w3_circuit),
    "d4": ((4, 2), build_d4_prep_circuit),
    "d5-analytic": ((5, 3), None),
}


def cmd_prepare(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Emit the target's D(n, k) amplitudes or, with --emit circuit, its circuit:
    the text format, or in JSON each ``records()`` entry as an object."""
    (n, k), build = _TARGETS[args.target]
    if args.emit == "circuit":
        if build is None:
            parser.error(f"no circuit form for {args.target!r} (the 5-qubit state is reached by "
                "the post-selected expansion, not a unitary circuit); use --emit statevector")
        circuit = build()
        fields = ("label", "gate", "controls", "target", "theta")
        gates = [dict(zip(fields, record)) for record in circuit.records()]
        _emit(args, {"qubits": list(circuit.qubit_labels), "gates": gates}, (format_circuit(circuit),))
        return 0
    state = dicke_state(n, k)
    amps = state.amplitudes
    indices = range(len(amps))
    table = Table(
        ("index", "bitstring", "re", "im"),
        [indices, [state.bitstring(i) for i in indices], amps.real, amps.imag],
    )
    _emit(args, {"n_qubits": state.n_qubits, "amplitudes": table}, table)
    return 0


def cmd_sample(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Write the histogram; its summary line goes to stdout unless the histogram does."""
    if not 1 <= args.shots <= MAX_SHOTS:
        parser.error(f"--shots must be between 1 and {MAX_SHOTS}")
    stats = run_protocol_stats(args.shots, args.seed)
    if sum(stats.counts.values()) != stats.shots:
        raise ValueError("histogram counts do not sum to the shot total")
    bits, counts = zip(*sorted(stats.counts.items()))
    frequencies = [count / stats.shots for count in counts]
    table = Table(("bitstring", "count", "frequency"), [bits, counts, frequencies])
    # Binomial standard error at the reference p, so that a single shot
    # (estimate 0 or 1) still gives a finite z-score.
    p_ref = 5 / 6
    p_hat = stats.estimated_success_probability
    stderr = math.sqrt(p_ref * (1 - p_ref) / stats.shots)
    z = (p_hat - p_ref) / stderr
    outputs = {
        "total_shots": stats.shots,
        "successes": stats.successes,
        "estimated_p_s": float(_fmt(p_hat)),
        "reference_p_s": float(_fmt(p_ref)),
        "p_s_stderr": float(_fmt(stderr)),
        "p_s_z": float(_fmt(z)),
        "rows": table,
    }
    # Asked before the write, which replaces a regular file that fd 1 is open on.
    try:
        on_stdout = not args.out or os.path.samestat(os.stat(args.out), os.fstat(1))
    except OSError:  # a fresh --out, or fd 1 closed
        on_stdout = False
    _emit(args, outputs, table)
    summary = (
        f"shots={stats.shots} successes={stats.successes} "
        f"estimated_p_s={p_hat:.6f} p_s_stderr={stderr:.6f} p_s_z={z:.3f} "
        f"(reference 5/6 = {_fmt(p_ref)})"
    )
    print(summary, file=sys.stderr if on_stdout else sys.stdout)
    return 0


def _params_from_args(args: argparse.Namespace, parser: argparse.ArgumentParser) -> BipartitionParams:
    if args.total + args.added > MAX_QUBITS:
        parser.error(f"--total + --added must not exceed {MAX_QUBITS}")
    try:
        return BipartitionParams(**_parameters(args))
    except ValueError as exc:
        parser.error(str(exc))


def cmd_pmax(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    params = _params_from_args(args, parser)
    probability = max_success_probability(params)
    fraction = f"{probability.numerator}/{probability.denominator}"
    outputs = {"fraction": fraction, "decimal": float(_fmt(float(probability)))}
    _emit(args, outputs, (f"{fraction} ≈ {float(probability):.6f}\n",))
    return 0


def cmd_decompose(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    params = _params_from_args(args, parser)
    sides = [("source", decompose_source(params))]
    if params.added > 0:
        sides.append(("target", decompose_target(params)))
    rows = [
        (side, t.j, t.a_excitations, t.j, t.coefficient,
         f"{t.weight.numerator}/{t.weight.denominator}")
        for side, decomposition in sides
        for t in decomposition.terms
    ]
    names = ("side", "j", "a_excitations", "b_excitations", "coefficient", "weight")
    table = Table(names, list(zip(*rows)))
    _emit(args, {"rows": table}, table)
    return 0


def cmd_sweep(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if not 2 <= args.steps <= MAX_STEPS:
        parser.error(f"--steps must be between 2 and {MAX_STEPS}")
    if args.theta_min > args.theta_max:
        parser.error("--theta-min must not exceed --theta-max")
    try:
        # Checked before np.linspace, whose step overflows or turns NaN
        # between endpoints that are infinite or far apart.
        for theta in (args.theta_min, args.theta_max):
            _check_angle(theta)
        grid = np.linspace(args.theta_min, args.theta_max, args.steps)
        fidelities = fidelity_sweep(grid, mode=args.mode)
    except ValueError as exc:
        parser.error(str(exc))
    table = Table(("theta", "fidelity"), [grid, fidelities])
    _emit(args, {"rows": table}, table)
    return 0


def cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    checks = run_all_checks()
    failed = [check.name for check in checks if not check.passed]
    table = Table(Check._fields, list(zip(*checks)))
    summary = {"checks": table, "all_passed": not failed, "tool_version": __version__}
    _write(args, _render_json(summary, sort_keys=False))
    if failed:
        print(f"FAILED checks: {', '.join(failed)}", file=sys.stderr)
    return 3 if failed else 0


def _u64(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"seed must be an unsigned 64-bit integer, got {text!r}")
    return value


def _path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("path must not be empty")
    return text


def _add_common_flags(sub: argparse.ArgumentParser, handler: Callable[..., int]) -> None:
    # The handler reports usage errors through its own subcommand's parser.
    sub.set_defaults(handler=functools.partial(handler, parser=sub))
    sub.add_argument("--out", type=_path, default=None, help="output file (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")


def _add_bipartition_flags(
    sub: argparse.ArgumentParser, handler: Callable[..., int], added: int
) -> None:
    sub.add_argument("--total", type=int, required=True, help="register size")
    sub.add_argument("--excitations", type=int, required=True, help="number of |1> qubits")
    sub.add_argument("--accessible", type=int, required=True, help="number of accessible qubits")
    sub.add_argument("--added", type=int, default=added, help="qubits appended by the expansion")
    sub.add_argument(
        "--added-excitations", type=int, default=added,
        help="appended qubits that end up excited",
    )
    _add_common_flags(sub, handler)


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The CLI's top-level parser and each subcommand's own parser by name, built
    once per process and shared by every call; each subparser sets ``command``."""
    parser = argparse.ArgumentParser(
        prog="dickesim",
        description="Statevector simulation of Dicke-state expansion under restricted qubit access.",
    )
    parser.add_argument("--version", action="version", version=f"dickesim {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    prepare = subparsers.add_parser("prepare", help="emit a state or its circuit")
    prepare.add_argument("target", choices=tuple(_TARGETS))
    prepare.add_argument("--emit", choices=("statevector", "circuit"), default="statevector")
    _add_common_flags(prepare, cmd_prepare)

    sample = subparsers.add_parser("sample", help="seeded shot sampling of the expansion")
    sample.add_argument("--shots", type=int, required=True)
    sample.add_argument("--seed", type=_u64, default=0, help="RNG seed (unsigned)")
    _add_common_flags(sample, cmd_sample)

    pmax = subparsers.add_parser("pmax", help="exact maximum success probability")
    _add_bipartition_flags(pmax, cmd_pmax, added=1)

    decompose = subparsers.add_parser("decompose", help="bipartite decomposition coefficients")
    _add_bipartition_flags(decompose, cmd_decompose, added=0)

    sweep = subparsers.add_parser("sweep", help="over-rotation fidelity sweep")
    # argparse reads a bare negative in exponent form, such as -2e-4, as an
    # option, so the help names the "=" form that passes it as the value.
    sweep.add_argument(
        "--theta-min", type=float, default=0.0,
        help="smallest over-rotation angle (radians); a negative in exponent "
        "form takes '=', as in --theta-min=-2e-4",
    )
    sweep.add_argument(
        "--theta-max", type=float, default=0.1,
        help="largest over-rotation angle (radians); a negative in exponent "
        "form takes '=', as in --theta-max=-1e-4",
    )
    sweep.add_argument("--steps", type=int, default=101)
    sweep.add_argument(
        "--mode", choices=[m.value for m in FidelityMode],
        default=FidelityMode.POST_SELECTED_SUCCESS.value,
        help="compare full pre-measurement states or post-selected success branches",
    )
    _add_common_flags(sweep, cmd_sweep)

    verify = subparsers.add_parser("verify", help="run the analytic check suite")
    verify.add_argument("--out", type=_path, default=None, help="output file (default: stdout)")
    verify.set_defaults(handler=functools.partial(cmd_verify, parser=verify))

    for name, sub in subparsers.choices.items():
        sub.set_defaults(command=name)
    return parser, subparsers.choices


def main(argv: list[str] | None = None) -> int:
    """Run one command line; a line led by a subcommand is parsed by that subcommand alone."""
    argv = sys.argv[1:] if argv is None else argv
    parser, subparsers = _parsers()
    sub = subparsers.get(argv[0]) if argv else None
    args = sub.parse_args(argv[1:]) if sub else parser.parse_args(argv)
    try:
        return args.handler(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
