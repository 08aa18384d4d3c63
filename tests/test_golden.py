"""Byte-for-byte golden outputs of every CLI subcommand in both formats.

Each case records the exit code, stdout, stderr and, for ``--out`` cases, the
written file under ``tests/golden/<case>/``. Regenerate them only for a
deliberate, documented output change::

    PYTHONPATH=src python tests/test_golden.py [case ...]
"""
import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from dickesim.cli import main

GOLDEN = Path(__file__).parent / "golden"
OUT = "{out}"  # replaced by a fresh temporary path per run

_PAPER = ["--total", "4", "--excitations", "2", "--accessible", "3"]
_SWEEP = ["sweep", "--theta-min", "-0.1", "--theta-max", "0.1", "--steps", "11"]

CASES = {}
for _fmt in ("csv", "json"):
    for _target in ("w3", "d4", "d5-analytic"):
        CASES[f"prepare_{_target}_{_fmt}"] = ["prepare", _target, "--format", _fmt]
    for _target in ("w3", "d4"):
        CASES[f"prepare_{_target}_circuit_{_fmt}"] = [
            "prepare", _target, "--emit", "circuit", "--format", _fmt]
    # The sample goldens pin the histogram's one multinomial draw (Philox keyed
    # by the seed); any change to how the histogram is drawn changes them.
    CASES[f"sample_{_fmt}"] = ["sample", "--shots", "1000", "--seed", "42", "--format", _fmt]
    CASES[f"pmax_{_fmt}"] = ["pmax", *_PAPER, "--format", _fmt]
    CASES[f"pmax_added_{_fmt}"] = [
        "pmax", "--total", "5", "--excitations", "2", "--accessible", "3",
        "--added", "2", "--added-excitations", "1", "--format", _fmt]
    CASES[f"decompose_{_fmt}"] = ["decompose", *_PAPER, "--format", _fmt]
    CASES[f"decompose_added_{_fmt}"] = [
        "decompose", *_PAPER, "--added", "1", "--added-excitations", "1", "--format", _fmt]
    for _mode in ("post-selected", "pre-measurement"):
        CASES[f"sweep_{_mode}_{_fmt}"] = [*_SWEEP, "--mode", _mode, "--format", _fmt]
    # A grid through zero whose float cells need their own text: exponent
    # form (-5e-05), zero and an integer-valued fidelity (1 in CSV, 1.0 in
    # JSON). --theta-min takes "=" because argparse reads a bare -2e-4 as an
    # option.
    CASES[f"sweep_near_zero_{_fmt}"] = [
        "sweep", "--theta-min=-2e-4", "--theta-max", "2e-4", "--steps", "9",
        "--mode", "pre-measurement", "--format", _fmt]
CASES["sample_csv_out"] = ["sample", "--shots", "1000", "--seed", "42", "--out", OUT]
CASES["verify"] = ["verify"]
CASES["verify_out"] = ["verify", "--out", OUT]


def run_case(argv, tmpdir):
    """Run the CLI in-process; return its outputs as ``{name: bytes}``."""
    out_path = Path(tmpdir) / "out"
    argv = [str(out_path) if arg == OUT else arg for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    result = {
        "exit_code": f"{code}\n".encode(),
        "stdout": stdout.getvalue().encode(),
        "stderr": stderr.getvalue().encode(),
    }
    if out_path.exists():
        result["out"] = out_path.read_bytes()
    return result


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path):
    expected = {p.name: p.read_bytes() for p in (GOLDEN / case).iterdir()}
    assert run_case(CASES[case], tmp_path) == expected


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(CASES):
        directory = GOLDEN / name
        directory.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory() as tmp:
            for stream, data in run_case(CASES[name], tmp).items():
                (directory / stream).write_bytes(data)
        print(f"wrote {directory}")
