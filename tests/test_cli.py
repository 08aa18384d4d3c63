"""CLI harness: subcommands, file outputs, exit codes, reproducibility."""
import argparse
import contextlib
import ctypes
import dataclasses
import io
import json
import math
import os
import stat
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dickesim import cli, gates, sim
from dickesim.cli import main
from dickesim.dicke import dicke_state
from dickesim.noise import fidelity_sweep


def run_cli(argv):
    """Invoke the CLI, normalizing argparse's SystemExit into a return code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# ---------------------------------------------------------------------------
# prepare


def test_prepare_w3_statevector(capsys):
    assert run_cli(["prepare", "w3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "index,bitstring,re,im"
    assert len(lines) == 9
    nonzero = [line for line in lines[1:] if line.split(",")[2] != "0"]
    assert len(nonzero) == 3
    for line in nonzero:
        assert line.split(",")[2] == "0.57735026919"


def test_prepare_d5_statevector(capsys):
    assert run_cli(["prepare", "d5-analytic"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 33
    nonzero = [line for line in lines[1:] if line.split(",")[2] != "0"]
    assert len(nonzero) == 10
    amplitude = f"{1 / math.sqrt(10):.12g}"
    assert all(line.split(",")[2] == amplitude for line in nonzero)


def test_prepare_d4_circuit_lists_prep_then_expansion(capsys):
    assert run_cli(["prepare", "d4", "--emit", "circuit"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    labels = [line.split()[0] for line in lines[1:]]
    assert labels == ["P1", "P2", "P3", "P4", "P5", "E1", "E2", "E3", "E4", "E5"]


def test_prepare_rejects_unknown_target():
    assert run_cli(["prepare", "ghz"]) == 2


def test_prepare_d5_has_no_circuit_form(capsys):
    assert run_cli(["prepare", "d5-analytic", "--emit", "circuit"]) == 2


def test_prepare_json_report(capsys):
    assert run_cli(["prepare", "w3", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "prepare"
    assert report["tool_version"]
    assert len(report["outputs"]["amplitudes"]) == 8


@pytest.mark.parametrize("target", [t for t, (_, build) in cli._TARGETS.items() if build])
def test_each_prepare_circuit_reaches_its_dicke_state(target):
    (n, k), build = cli._TARGETS[target]
    circuit = build()
    zeros = sim.new_basis_state(circuit.n_qubits, "0" * circuit.n_qubits)
    prepared = sim.apply_circuit(zeros, circuit)
    assert sim.fidelity_pure(prepared, dicke_state(n, k)) >= 1 - 1e-10


@pytest.mark.parametrize("target", sorted(cli._TARGETS))
def test_prepare_json_amplitudes_are_the_targets_dicke_state(target, capsys):
    assert run_cli(["prepare", target, "--format", "json"]) == 0
    outputs = json.loads(capsys.readouterr().out)["outputs"]
    state = dicke_state(*cli._TARGETS[target][0])
    assert outputs["n_qubits"] == state.n_qubits
    # Each cell carries the 12 significant digits of the table format.
    assert outputs["amplitudes"] == [
        {"index": i, "bitstring": state.bitstring(i), "re": float(f"{a.real:.12g}"),
         "im": float(f"{a.imag:.12g}")}
        for i, a in enumerate(state.amplitudes)
    ]


# ---------------------------------------------------------------------------
# sample


def test_sample_writes_histogram(tmp_path, capsys):
    out = tmp_path / "hist.csv"
    assert run_cli(["sample", "--shots", "500", "--seed", "42", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "bitstring,count,frequency"
    rows = [line.split(",") for line in lines[1:]]
    assert sum(int(r[1]) for r in rows) == 500
    assert all(len(r[0]) == 6 for r in rows)
    assert rows == sorted(rows)  # ascending bitstrings
    summary = capsys.readouterr().out
    assert "estimated_p_s" in summary and "5/6" in summary


def test_sample_success_strings_have_final_bit_zero(tmp_path):
    out = tmp_path / "hist.csv"
    run_cli(["sample", "--shots", "2000", "--seed", "1", "--out", str(out)])
    weight3 = 0
    for line in out.read_text().strip().splitlines()[1:]:
        bits = line.split(",")[0]
        head, flag = bits[:5], bits[5]
        if flag == "0":
            assert head.count("1") == 3
            weight3 += 1
        else:
            assert head[3] == "0"  # d4 separates to |0> on failure
    assert weight3 == 10


def test_sample_is_byte_identical_across_runs(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    run_cli(["sample", "--shots", "300", "--seed", "5", "--out", str(first)])
    run_cli(["sample", "--shots", "300", "--seed", "5", "--out", str(second)])
    assert first.read_bytes() == second.read_bytes()


def test_sample_single_shot(tmp_path):
    out = tmp_path / "one.csv"
    run_cli(["sample", "--shots", "1", "--seed", "3", "--out", str(out)])
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[1] == "1"


def test_sample_rejects_zero_shots():
    assert run_cli(["sample", "--shots", "0"]) == 2


@pytest.mark.parametrize("shots", ["1000000001", "100000000000000000000000"])
def test_sample_rejects_more_than_max_shots(shots, capsys):
    assert run_cli(["sample", "--shots", shots]) == 2
    assert "--shots must be between 1 and 1000000000" in capsys.readouterr().err


def test_sample_at_max_shots(tmp_path):
    out = tmp_path / "hist.csv"
    assert run_cli(["sample", "--shots", "1000000000", "--seed", "1", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert sum(int(r[1]) for r in rows) == 10**9


def test_sample_unwritable_path(capsys):
    code = run_cli(
        ["sample", "--shots", "1", "--out", "/nonexistent-dir/deep/h.csv"]
    )
    assert code == 4
    assert "'/nonexistent-dir/deep/h.csv'" in capsys.readouterr().err


def test_sample_refuses_counts_that_miss_a_shot(monkeypatch):
    real = cli.run_protocol_stats

    def one_shot_short(shots, seed):
        stats = real(shots, seed)
        bits = min(stats.counts)
        return dataclasses.replace(stats, counts={**stats.counts, bits: stats.counts[bits] - 1})

    monkeypatch.setattr(cli, "run_protocol_stats", one_shot_short)
    with pytest.raises(ValueError, match="^histogram counts do not sum to the shot total$"):
        run_cli(["sample", "--shots", "100", "--seed", "1"])


def test_sample_json_report(capsys):
    assert run_cli(["sample", "--shots", "50", "--seed", "11", "--format", "json"]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert list(report) == ["command", "outputs", "parameters", "tool_version"]
    assert report["parameters"] == {"seed": 11, "shots": 50}
    assert report["outputs"]["total_shots"] == 50
    assert sum(r["count"] for r in report["outputs"]["rows"]) == 50


@pytest.mark.parametrize("shots", ["1", "777"])
def test_sample_reports_standard_error_and_z_score(shots, capsys):
    assert run_cli(["sample", "--shots", shots, "--seed", "8", "--format", "json"]) == 0
    captured = capsys.readouterr()
    outputs = json.loads(captured.out)["outputs"]
    n, successes = outputs["total_shots"], outputs["successes"]
    stderr = math.sqrt((5 / 6) * (1 / 6) / n)
    z = (successes / n - 5 / 6) / stderr
    assert outputs["p_s_stderr"] == float(f"{stderr:.12g}")
    assert outputs["p_s_z"] == float(f"{z:.12g}")
    assert f"p_s_stderr={stderr:.6f} p_s_z={z:.3f}" in captured.err


# ---------------------------------------------------------------------------
# pmax and decompose


def test_pmax_paper_instance(capsys):
    code = run_cli(
        ["pmax", "--total", "4", "--excitations", "2", "--accessible", "3",
         "--added", "1", "--added-excitations", "1"]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "5/6 ≈ 0.833333"


def test_pmax_full_access(capsys):
    code = run_cli(
        ["pmax", "--total", "4", "--excitations", "2", "--accessible", "4"]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "1/1 ≈ 1.000000"


def test_pmax_rejects_inaccessible_setup(capsys):
    code = run_cli(
        ["pmax", "--total", "4", "--excitations", "2", "--accessible", "1"]
    )
    assert code == 2
    assert "accessibility constraint" in capsys.readouterr().err


def test_decompose_outputs_source_and_target(capsys):
    code = run_cli(
        ["decompose", "--total", "4", "--excitations", "2", "--accessible", "3",
         "--added", "1", "--added-excitations", "1"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "side,j,a_excitations,b_excitations,coefficient,weight"
    sides = [line.split(",")[0] for line in lines[1:]]
    assert sides == ["source", "source", "target", "target"]
    weights = [line.split(",")[-1] for line in lines[1:]]
    assert weights == ["1/2", "1/2", "2/5", "3/5"]


@pytest.mark.parametrize("command", ["pmax", "decompose"])
@pytest.mark.parametrize("sizes", [
    # without the limit, 20 s to minutes of exact binomial arithmetic
    ["--total", "20000", "--excitations", "10000", "--accessible", "10000",
     "--added", "1", "--added-excitations", "0"],
    ["--total", "4", "--excitations", "2", "--accessible", "3",
     "--added", "1000000", "--added-excitations", "500000"],
])
def test_bipartition_commands_reject_more_than_max_qubits(command, sizes, capsys):
    start = time.perf_counter()
    assert run_cli([command, *sizes]) == 2
    assert time.perf_counter() - start < 1.0
    assert "--total + --added must not exceed 5000" in capsys.readouterr().err


def test_bipartition_qubit_limit_is_inclusive(capsys):
    # one term per side at any size, so the largest register accepted is cheap
    sizes = ["--excitations", "0", "--accessible", "0", "--added", "1", "--added-excitations", "0"]
    assert run_cli(["pmax", "--total", "4999", *sizes]) == 0
    assert capsys.readouterr().out.strip() == "1/1 ≈ 1.000000"
    assert run_cli(["pmax", "--total", "5000", *sizes]) == 2


# ---------------------------------------------------------------------------
# sweep


def test_sweep_file_output(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        ["sweep", "--theta-min", "0", "--theta-max", "0.1", "--steps", "11",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "theta,fidelity"
    assert len(lines) == 12
    assert lines[1] == "0,1"
    theta, fidelity = lines[2].split(",")
    assert float(theta) == pytest.approx(0.01)
    assert float(fidelity) >= 0.99


def test_sweep_degenerate_range(capsys):
    code = run_cli(["sweep", "--theta-min", "0", "--theta-max", "0", "--steps", "2"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1:] == ["0,1", "0,1"]


def test_sweep_rejects_bad_ranges():
    assert run_cli(["sweep", "--steps", "1"]) == 2
    assert run_cli(["sweep", "--theta-min", "0.2", "--theta-max", "0.1"]) == 2
    assert run_cli(["sweep", "--theta-max", "4.0"]) == 2


def test_sweep_rejects_more_than_max_steps(capsys):
    assert run_cli(["sweep", "--steps", "100001"]) == 2
    assert run_cli(["sweep", "--steps", "100000000000000"]) == 2
    assert "--steps must be between 2 and 100000" in capsys.readouterr().err


def test_sweep_rejects_nan_angles(capsys):
    assert run_cli(["sweep", "--theta-min", "nan"]) == 2
    assert run_cli(["sweep", "--theta-max", "nan"]) == 2
    assert "over-rotation angle must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bounds, message",
    [
        (["--theta-max", "inf"], "over-rotation angle must be finite"),
        (["--theta-min=-1e308", "--theta-max=1e308"], "outside [-pi, pi]"),
    ],
    ids=["infinite", "step-overflows"],
)
def test_sweep_checks_endpoints_before_building_the_grid(capsys, bounds, message):
    # np.linspace warns on an infinite endpoint and overflows its step
    # between finite endpoints this far apart; neither may reach it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["sweep", *bounds]) == 2
    assert message in capsys.readouterr().err


def test_sweep_modes_differ(tmp_path):
    pre = tmp_path / "pre.csv"
    post = tmp_path / "post.csv"
    run_cli(["sweep", "--steps", "3", "--mode", "pre-measurement", "--out", str(pre)])
    run_cli(["sweep", "--steps", "3", "--mode", "post-selected", "--out", str(post)])
    assert pre.read_text() != post.read_text()


@pytest.mark.parametrize("mode", ["post-selected", "pre-measurement"])
def test_sweep_csv_and_json_carry_the_same_rows(tmp_path, mode):
    argv = ["sweep", "--theta-min", "-0.3", "--theta-max", "0.2", "--steps", "301",
            "--mode", mode]
    assert run_cli([*argv, "--out", str(tmp_path / "sweep.csv")]) == 0
    assert run_cli([*argv, "--format", "json", "--out", str(tmp_path / "sweep.json")]) == 0
    header, *lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert header == "theta,fidelity"
    from_csv = [tuple(float(cell) for cell in line.split(",")) for line in lines]
    records = json.loads((tmp_path / "sweep.json").read_text())["outputs"]["rows"]
    assert [(r["theta"], r["fidelity"]) for r in records] == from_csv
    assert len(from_csv) == 301


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_and_reports_json(capsys):
    assert run_cli(["verify"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_passed"] is True
    by_name = {check["name"]: check for check in report["checks"]}
    flag = by_name["flag_probability"]
    assert flag["expected"] == 0.833333333333
    assert flag["passed"] is True
    assert {"name", "expected", "actual", "tolerance"} <= set(flag)


def test_verify_reports_failures_with_exit_code_3(capsys, monkeypatch):
    from dickesim.checks import Check
    import dickesim.cli as cli_module

    broken = Check("tampered_fixture", 1.0, 0.5, 1e-12, "eq", passed=False)
    monkeypatch.setattr(cli_module, "run_all_checks", lambda: [broken])
    assert run_cli(["verify"]) == 3
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["all_passed"] is False
    assert report["checks"][0]["expected"] == 1.0
    assert report["checks"][0]["actual"] == 0.5
    assert "tampered_fixture" in captured.err


@pytest.mark.parametrize("chunk", [1, 7])
def test_oracle_check_passes_at_any_chunk_size(monkeypatch, chunk):
    # 7 does not divide the 64 basis columns, so the last chunk is shorter
    from dickesim import checks

    monkeypatch.setattr(checks, "BATCH_CHUNK", chunk)
    oracle = {check.name: check for check in checks.run_all_checks()}["oracle_equivalence"]
    assert oracle.passed


@pytest.fixture
def fresh_references():
    """Clear the memo of verify's references before and after the test."""
    from dickesim import checks

    checks._expansion_references.cache_clear()
    yield checks
    checks._expansion_references.cache_clear()


def test_references_are_built_once_per_process(fresh_references, monkeypatch):
    from dickesim import sim

    built = {"circuit_unitary": 0, "gate_unitary": 0}

    def counting(name):
        original = getattr(sim, name)

        def wrapper(*args):
            built[name] += 1
            return original(*args)

        monkeypatch.setattr(sim, name, wrapper)

    counting("circuit_unitary")
    counting("gate_unitary")
    fresh_references.run_all_checks()
    # the circuit's 29 gate records, then the flip on d4
    assert built == {"circuit_unitary": 1, "gate_unitary": 30}
    for _ in range(2):
        fresh_references.run_all_checks()
        assert built == {"circuit_unitary": 1, "gate_unitary": 30}


def test_references_are_read_only(fresh_references):
    from dickesim import sim

    refs = fresh_references._expansion_references()
    # the flips run as one fused permutation, itself a read-only index table
    (fused,) = sim._circuit_steps(refs.recycling_flips)
    arrays = [refs.oracle, fused]
    arrays += [flip.matrix for flip in refs.recycling_flips.gates]
    assert len(arrays) == 5
    for array in arrays:
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 0


def flip_commutator_by_matmul(unitary):
    """max |UP - PU| for the bit flip P on d4, from two dense products."""
    from dickesim import sim

    flip = sim.gate_unitary(gates.x(3), 6)
    return float(np.max(np.abs(unitary @ flip - flip @ unitary)))


def test_untouched_commutes_fails_for_a_gate_on_d4(fresh_references, monkeypatch):
    from dickesim import sim

    circuit = fresh_references.build_d4_to_d5_circuit()
    touched = gates.CircuitProgram(6, circuit.gates + (gates.h(3),), circuit.qubit_labels)
    monkeypatch.setattr(fresh_references, "build_d4_to_d5_circuit", lambda: touched)
    fresh_references._expansion_references.cache_clear()
    commutator = fresh_references._expansion_references().d4_commutator
    assert commutator > 0.5
    assert commutator == flip_commutator_by_matmul(sim.circuit_unitary(touched))
    by_name = {check.name: check for check in fresh_references.run_all_checks()}
    assert by_name["untouched_commutes"].actual == commutator
    assert not by_name["untouched_commutes"].passed


def test_warm_checks_evolve_each_state_once(fresh_references, monkeypatch):
    from dickesim import noise, sim

    cold = fresh_references.run_all_checks()
    evolved, steps, states = [], [], []
    kernel = sim._evolve

    def counting(psi, n_qubits, kernel_steps, *args):
        evolved.append(n_qubits)
        steps.append(len(kernel_steps))
        kernel(psi, n_qubits, kernel_steps, *args)

    for module in (sim, noise, fresh_references):
        monkeypatch.setattr(module, "_evolve", counting)
    post_init = sim.StateVector.__post_init__

    def counting_states(self):
        states.append(self.n_qubits)
        post_init(self)

    monkeypatch.setattr(sim.StateVector, "__post_init__", counting_states)
    assert fresh_references.run_all_checks() == cold
    # D(4,2)|00> once for both flag branches (4 steps), the W3 and D4
    # preparations (3 and 5), the three recycling flips as one permutation
    # (1), the recycling run (2), and the oracle's 64 columns in 4 batches
    # of 4 steps
    assert steps == [4, 3, 5, 1, 2, 4, 4, 4, 4]
    assert len(evolved) == 9 and sum(steps) == 31
    # each flag branch is one 5-qubit state; the failure branch's two
    # Schmidt factors are built from it
    assert len(states) == 22


def test_warm_checks_equal_cold_checks(fresh_references):
    cold = fresh_references.run_all_checks()
    assert fresh_references.run_all_checks() == cold


def test_warm_checks_peak_memory_stays_small(fresh_references):
    # the commutator is a reference, so a warm call allocates only its
    # states and one chunk of oracle columns (about 62 KiB)
    import tracemalloc

    fresh_references.run_all_checks()
    tracemalloc.start()
    try:
        fresh_references.run_all_checks()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 96 * 1024


def test_warm_sweep_peak_memory_at_scale(tmp_path):
    # 20,000 angles are rendered and written 64 rows at a time, so the peak is
    # the sweep's own arrays (about 1.1 MiB); a renderer that built the whole
    # text would peak at 3.0 MiB with CSV and 7.9 MiB with JSON
    import tracemalloc

    for fmt in ("csv", "json"):
        argv = ["sweep", "--steps", "20000", "--format", fmt, "--out", str(tmp_path / "sweep")]
        assert run_cli(argv) == 0
        tracemalloc.start()
        try:
            assert run_cli(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20, fmt


def test_warm_checks_build_each_fixed_state_once(fresh_references, monkeypatch):
    from dickesim import dicke

    dicke._popcount_table.cache_clear()
    cold = fresh_references.run_all_checks()
    built = []
    original = fresh_references.dicke_state

    def counting(n, k):
        built.append((n, k))
        return original(n, k)

    monkeypatch.setattr(fresh_references, "dicke_state", counting)
    assert fresh_references.run_all_checks() == cold
    # D(4, 2) and D(5, 3), each shared by every check that needs it, and the
    # W states D(3, 1) and D(3, 2), each read by one check
    assert sorted(built) == [(3, 1), (3, 2), (4, 2), (5, 3)]
    # the popcount table behind every Dicke state: one build, then reads only
    assert dicke._popcount_table.cache_info().misses == 1
    table = dicke._popcount_table()
    assert table.shape == (1 << 16,) and table.dtype == np.uint8
    with pytest.raises(ValueError):
        table[0] = 1


def test_warm_oracle_still_catches_a_broken_kernel(monkeypatch, capsys):
    from dickesim import checks

    assert run_cli(["verify"]) == 0  # warm-up: the references are built
    kernel = checks._evolve

    def drop_last_gate(psi, n_qubits, circuit_gates, *args):
        kernel(psi, n_qubits, circuit_gates[:-1], *args)

    monkeypatch.setattr(checks, "_evolve", drop_last_gate)
    oracle = {check.name: check for check in checks.run_all_checks()}["oracle_equivalence"]
    assert not oracle.passed
    capsys.readouterr()
    assert run_cli(["verify"]) == 3
    assert "FAILED checks: oracle_equivalence\n" in capsys.readouterr().err
    monkeypatch.setattr(checks, "_evolve", kernel)
    assert all(check.passed for check in checks.run_all_checks())
    assert run_cli(["verify"]) == 0


@pytest.mark.parametrize("flag", [["--format", "csv"], ["--seed", "1"]])
def test_verify_rejects_format_and_seed(flag):
    assert run_cli(["verify", *flag]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["prepare", "d4"],
        ["pmax", "--total", "4", "--excitations", "2", "--accessible", "3"],
        ["decompose", "--total", "4", "--excitations", "2", "--accessible", "3"],
        ["sweep"],
    ],
    ids=lambda argv: argv[0],
)
def test_seed_is_a_usage_error_outside_sample(argv, capsys):
    # sampling is the only random step, so no other subcommand takes a seed
    assert run_cli([*argv, "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: dickesim {argv[0]} ")
    assert err.endswith(f"dickesim {argv[0]}: error: unrecognized arguments: --seed 1\n")


# ---------------------------------------------------------------------------
# output files


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o002, 0o664)],
                         ids=["umask022", "umask002"])
def test_out_file_gets_the_mode_of_a_plain_open(tmp_path, umask, mode):
    out = tmp_path / "pmax.txt"
    previous = os.umask(umask)
    try:
        code = run_cli(["pmax", "--total", "4", "--excitations", "2",
                        "--accessible", "3", "--out", str(out)])
    finally:
        os.umask(previous)
    assert code == 0
    assert stat.S_IMODE(out.stat().st_mode) == mode


@pytest.mark.parametrize("argv", [["sample", "--shots", "1"], ["verify"]], ids=["sample", "verify"])
def test_out_directory_is_refused_before_anything_is_written(tmp_path, argv, capsys):
    target = tmp_path / "sub"
    target.mkdir()
    assert run_cli([*argv, "--out", str(target)]) == 4
    assert f"Is a directory: {str(target)!r}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]
    assert not any(target.iterdir())


_PAPER = ["--total", "4", "--excitations", "2", "--accessible", "3"]


@pytest.mark.parametrize(
    "argv",
    [["prepare", "d4"], ["sample", "--shots", "1"], ["pmax", *_PAPER], ["decompose", *_PAPER],
     ["sweep"], ["verify"]],
    ids=["prepare", "sample", "pmax", "decompose", "sweep", "verify"],
)
def test_empty_out_is_a_usage_error(tmp_path, monkeypatch, argv, capsys):
    # `--out "$F"` with an empty F must not fall back to stdout.
    monkeypatch.chdir(tmp_path)
    assert run_cli([*argv, "--out", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"dickesim {argv[0]}: error: argument --out: path must not be empty" in captured.err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("seed", ["abc", "1.5", "", "-1", str(1 << 64)])
def test_seed_must_be_an_unsigned_64_bit_integer(seed, capsys):
    assert run_cli(["sample", "--shots", "1", f"--seed={seed}"]) == 2
    assert (
        f"dickesim sample: error: argument --seed: seed must be an unsigned 64-bit integer, "
        f"got {seed!r}" in capsys.readouterr().err
    )


def test_seed_accepts_the_whole_u64_range(capsys):
    for seed in ("0", str((1 << 64) - 1)):
        assert run_cli(["sample", "--shots", "1", "--seed", seed, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["parameters"]["seed"] == int(seed)


def _no_exchange(monkeypatch):
    """Make _write take its os.replace fallback, as where renameat2 is missing."""
    monkeypatch.setattr(cli, "_renameat2", lambda: None)


@pytest.mark.parametrize("path", ["exchanged", "replaced"])
def test_out_file_holds_exactly_the_text_over_a_longer_one(tmp_path, path, monkeypatch):
    # Multi-byte characters included, and nothing of the old file or of the
    # temporary one is left behind.
    out = tmp_path / "out.txt"
    out.write_text("old\n")
    if path == "replaced":
        _no_exchange(monkeypatch)
    else:
        monkeypatch.setattr(os, "replace", None)  # an existing file is never renamed over
    for text in ("x" * 10_000 + "\n", "p ≈ 5/6\n"):
        cli._write(argparse.Namespace(out=str(out)), (text,))
        assert out.read_text() == text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


@pytest.mark.parametrize("path", ["exchanged", "replaced"])
def test_out_symlink_stays_and_its_target_is_replaced(tmp_path, path, monkeypatch):
    # The temporary file goes beside the target, in another directory.
    if path == "replaced":
        _no_exchange(monkeypatch)
    (tmp_path / "sub").mkdir()
    target = tmp_path / "sub" / "target.txt"
    target.write_text("target\n")
    out = tmp_path / "out.txt"
    out.symlink_to(target)
    cli._write(argparse.Namespace(out=str(out)), ("new\n",))
    assert out.is_symlink() and os.readlink(out) == str(target)
    assert target.read_text() == "new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "sub"]
    assert [p.name for p in target.parent.iterdir()] == ["target.txt"]


def test_a_dangling_out_symlink_gets_its_target_created(tmp_path):
    (tmp_path / "sub").mkdir()
    target = tmp_path / "sub" / "target.txt"
    out = tmp_path / "out.txt"
    out.symlink_to(target)
    cli._write(argparse.Namespace(out=str(out)), ("new\n",))
    assert out.is_symlink() and os.readlink(out) == str(target)
    assert target.read_text() == "new\n"
    assert [p.name for p in target.parent.iterdir()] == ["target.txt"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs Linux /proc")
def test_out_through_an_open_descriptor_replaces_its_file(tmp_path):
    # A link to /proc/self/fd/N, as /dev/stdout is to fd 1, with N a regular file.
    target = tmp_path / "target.txt"
    target.write_text("old\n")
    out = tmp_path / "out"
    with open(target) as held:
        out.symlink_to(f"/proc/self/fd/{held.fileno()}")
        cli._write(argparse.Namespace(out=str(out)), ("new\n",))
        assert held.read() == "old\n"  # the descriptor keeps the replaced file
    assert out.is_symlink()
    assert target.read_text() == "new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "target.txt"]


def test_the_temporary_file_goes_where_the_kernel_resolves_out(tmp_path, monkeypatch):
    # ro/ln/../x.csv names a/x.csv; lexically it would be ro/x.csv.
    (tmp_path / "a" / "b").mkdir(parents=True)
    (tmp_path / "ro").mkdir()
    (tmp_path / "ro" / "ln").symlink_to("../a/b")
    monkeypatch.chdir(tmp_path)
    created = []
    real_open = os.open

    def spy(path, flags, *args, **kwargs):
        fd = real_open(path, flags, *args, **kwargs)
        if flags & os.O_CREAT:
            created.append(os.path.samefile(os.path.dirname(path), tmp_path / "a"))
        return fd

    monkeypatch.setattr(os, "open", spy)
    assert run_cli(["prepare", "w3", "--out", "ro/ln/../x.csv"]) == 0
    assert created == [True]
    assert (tmp_path / "a" / "x.csv").read_text().startswith("index,bitstring,re,im\n")
    assert list(tmp_path.rglob(".dickesim-*")) == []
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == ["b", "x.csv"]
    assert [p.name for p in (tmp_path / "ro").iterdir()] == ["ln"]


@pytest.mark.parametrize("missing", ["platform", "libc"])
def test_without_renameat2_an_existing_file_is_replaced(tmp_path, monkeypatch, missing):
    if missing == "platform":
        monkeypatch.setattr(sys, "platform", "darwin")
    else:
        def no_libc(*args, **kwargs):
            raise OSError("no libc")

        monkeypatch.setattr(ctypes, "CDLL", no_libc)
    cli._renameat2.cache_clear()
    try:
        assert cli._renameat2() is None
        out = tmp_path / "out.txt"
        out.write_text("old\n")
        cli._write(argparse.Namespace(out=str(out)), ("new\n",))
        assert out.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    finally:
        cli._renameat2.cache_clear()


@pytest.mark.parametrize("path", ["exchanged", "replaced"])
def test_hard_linked_sibling_keeps_the_old_content(tmp_path, path, monkeypatch):
    if path == "replaced":
        _no_exchange(monkeypatch)
    out = tmp_path / "out.txt"
    out.write_text("old\n")
    sibling = tmp_path / "sibling.txt"
    os.link(out, sibling)
    cli._write(argparse.Namespace(out=str(out)), ("new\n",))
    assert out.read_text() == "new\n"
    assert sibling.read_text() == "old\n"
    assert sibling.stat().st_nlink == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "sibling.txt"]


def test_fresh_existing_and_fallback_outputs_match(tmp_path, monkeypatch):
    argv = ["sample", "--shots", "1000", "--seed", "7", "--out"]
    outs = [tmp_path / name for name in ("fresh.csv", "existing.csv", "fallback.csv")]
    fresh, existing, fallback = outs
    for stale in (existing, fallback):
        stale.write_text("stale\n" * 100)
        stale.chmod(0o600)
    previous = os.umask(0o027)
    try:
        assert run_cli([*argv, str(fresh)]) == 0
        assert run_cli([*argv, str(existing)]) == 0
        _no_exchange(monkeypatch)
        assert run_cli([*argv, str(fallback)]) == 0
    finally:
        os.umask(previous)
    assert existing.read_bytes() == fresh.read_bytes() == fallback.read_bytes()
    assert [stat.S_IMODE(p.stat().st_mode) for p in outs] == [0o640] * 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["existing.csv", "fallback.csv", "fresh.csv"]


def test_directory_appearing_at_out_is_swapped_back(tmp_path, monkeypatch, capsys):
    # A directory created at --out after the stat is exchanged like a file;
    # the unlink then fails on it, and it goes back in place.
    target = tmp_path / "sub"
    target.mkdir()
    (target / "kept.txt").write_text("kept\n")
    real_stat = os.stat

    def stat_before_the_directory(path, *args, **kwargs):
        if path == str(target):
            raise FileNotFoundError(path)
        return real_stat(path, *args, **kwargs)

    monkeypatch.setattr(os, "stat", stat_before_the_directory)
    assert run_cli(["sample", "--shots", "1", "--out", str(target)]) == 4
    assert f"Is a directory: {str(target)!r}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]
    assert [p.name for p in target.iterdir()] == ["kept.txt"]
    assert (target / "kept.txt").read_text() == "kept\n"


def test_out_fifo_is_written_not_replaced(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []

    def read():
        with open(fifo, "rb") as handle:
            received.append(handle.read())

    # A daemon thread, so that a reader left blocked on a replaced FIFO
    # cannot hang the test run.
    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    assert run_cli(["pmax", *_PAPER, "--format", "json", "--out", str(fifo)]) == 0
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [(Path(__file__).parent / "golden/pmax_json/stdout").read_bytes()]
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["fifo"]


# ---------------------------------------------------------------------------
# tables


def _reference_csv(table):
    """Table.csv as it was when it rendered row by row."""
    lines = [",".join(table.names)]
    for row in zip(*table.columns):
        lines.append(",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _reference_records(table):
    """The records json.dumps once got from each Table through ``default``."""
    return [
        {c: float(f"{v:.12g}") if isinstance(v, float) else v for c, v in zip(table.names, row)}
        for row in zip(*table.columns)
    ]


def _reference_json(report, sort_keys):
    return json.dumps(report, indent=2, sort_keys=sort_keys, default=_reference_records) + "\n"


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.5e-308, 2.2250738585072014e-308, 1e-4, 9.99999999999e-5,
                1e12, 123456789012.0, 1.5e15, 1e16, 1e300, -1e300, 1.7976931348623157e308,
                math.nan, math.inf, -math.inf]
_floats = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())
# Quotes, backslashes, control characters, non-ASCII and template syntax.
_text = st.text(st.one_of(st.sampled_from('"\\\0\x1f\n\t,%{}é€\U0001f600'), st.characters()),
                max_size=8)
_cells = st.one_of(
    _floats, _floats.map(np.float64), st.integers(), st.booleans(), st.none(), _text
)
# A table held by column has at least one, which gives its row count.
_tables = st.lists(
    st.one_of(st.sampled_from(["theta", "%s", "{0}"]), _text), min_size=1, max_size=4
).flatmap(
    lambda names: st.integers(0, 5).flatmap(
        lambda n_rows: st.lists(
            st.lists(_cells, min_size=n_rows, max_size=n_rows),
            min_size=len(names), max_size=len(names),
        ).map(lambda columns: cli.Table(tuple(names), columns))
    )
)
# Strings of a report outside its tables hold no NUL, as command lines cannot.
_skeleton_text = st.text(st.characters().filter(lambda c: c != "\0"), max_size=6)
_reports = st.dictionaries(
    _skeleton_text,
    st.recursive(
        st.one_of(_tables, st.integers(), st.floats(), st.none(), st.booleans(), _skeleton_text),
        lambda children: st.one_of(
            st.lists(children, max_size=3), st.dictionaries(_skeleton_text, children, max_size=3)
        ),
        max_leaves=6,
    ),
    max_size=4,
)


@settings(max_examples=200)
@given(_reports, st.booleans())
def test_reports_render_byte_for_byte_as_through_records(report, sort_keys):
    assert "".join(cli._render_json(report, sort_keys)) == _reference_json(report, sort_keys)


@settings(max_examples=200)
@given(_tables)
def test_a_table_renders_alone_and_nested(table):
    assert "".join(table.csv()) == _reference_csv(table)
    for report in (table, {"rows": table}, [{"a": [table, 1]}, {"b": {"c": table}}]):
        for sort_keys in (True, False):
            rendered = "".join(cli._render_json(report, sort_keys))
            assert rendered == _reference_json(report, sort_keys)


@settings(max_examples=100)
@given(
    st.lists(st.one_of(_floats, _floats.map(np.float64)), min_size=1, max_size=40),
    st.booleans(),
)
def test_an_all_float_column_renders_as_cell_by_cell(column, sort_keys):
    # the one-pass column format, with every irregular cell among regular ones
    table = cli.Table(("theta", "fidelity"), [column, column[::-1]])
    assert "".join(table.csv()) == _reference_csv(table)
    report = {"rows": table}
    assert "".join(cli._render_json(report, sort_keys)) == _reference_json(report, sort_keys)


def _run_lengths(n_rows):
    """The row count of each chunk after the header."""
    full, rest = divmod(n_rows, cli.TABLE_CHUNK_ROWS)
    return [cli.TABLE_CHUNK_ROWS] * full + [rest] * bool(rest)


@pytest.mark.parametrize("n_rows", [0, 1, 63, 64, 65, 128, 129])
def test_tables_render_in_runs_as_one_whole(n_rows):
    # Array columns, strided views among them, as cmd_prepare passes them,
    # with irregular floats on both sides of each run boundary.
    amps = np.random.default_rng(n_rows).normal(size=(n_rows, 2)) @ [1, 1j]
    amps.real[::5] = np.resize([1.0, -0.0, 1e-5, 1e16, math.nan, -math.inf, 2.5], n_rows)[::5]
    table = cli.Table(("index", "label", "re", "im"),
                      [range(n_rows), [f"q{i}" for i in range(n_rows)], amps.real, amps.imag])
    listed = cli.Table(table.names, [list(range(n_rows)), table.columns[1],
                                     amps.real.tolist(), amps.imag.tolist()])
    chunks = list(table.csv())
    assert [c.count("\n") for c in chunks] == [1, *_run_lengths(n_rows)]
    assert "".join(chunks) == "".join(listed.csv()) == _reference_csv(listed)
    for sort_keys in (True, False):
        rendered = "".join(cli._render_json({"rows": table}, sort_keys))
        assert rendered == "".join(cli._render_json({"rows": listed}, sort_keys))
        assert rendered == _reference_json({"rows": listed}, sort_keys)


@pytest.mark.parametrize("odd", [7, None, "x", True], ids=["int", "none", "str", "bool"])
def test_a_float_column_with_one_odd_cell_in_a_later_run(odd):
    # Every run but the third is all floats and goes through the float template.
    column = [i / 3 for i in range(2 * cli.TABLE_CHUNK_ROWS + 5)]
    column[2 * cli.TABLE_CHUNK_ROWS + 2] = odd
    table = cli.Table(("theta", "fidelity"), [column, column[::-1]])
    assert "".join(table.csv()) == _reference_csv(table)
    for sort_keys in (True, False):
        report = {"rows": table}
        assert "".join(cli._render_json(report, sort_keys)) == _reference_json(report, sort_keys)


# Cells at the edges of fixed form. Most fail the one-pass JSON count: -0,
# integers, exponents, NaN, infinities. 1.5e15 prints "1.5e+15", with a ".",
# where JSON writes 1500000000000000.0.
_ARRAY_EDGES = [0.0, -0.0, 1.0, 0.9999999999995, 1e-4, 9.99999e-5, 1e12, 1.5e15, 1e-300,
                5e-324, math.inf, -math.inf, math.nan]


@settings(max_examples=100)
@given(
    st.integers(1, 200),
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.integers(0, 399), st.one_of(st.sampled_from(_ARRAY_EDGES), st.floats())),
             max_size=6),
    st.booleans(),
)
def test_a_float_array_table_renders_as_its_lists(n_rows, seed, edges, sort_keys):
    # Ordinary cells print in fixed form, so runs without an edge take the one pass.
    rng = np.random.default_rng(seed)
    cells = rng.uniform(-1, 1, 2 * n_rows) * 10 ** rng.uniform(-3, 9, 2 * n_rows)
    for i, value in edges:
        cells[i % cells.size] = value
    arrays = cli.Table(("theta", "fidelity"), [cells[:n_rows], cells[n_rows:]])
    lists = cli.Table(arrays.names, [column.tolist() for column in arrays.columns])
    assert "".join(arrays.csv()) == "".join(lists.csv())
    for indent in ("", "    "):
        assert "".join(arrays.json(indent, sort_keys)) == "".join(lists.json(indent, sort_keys))


@pytest.mark.parametrize(
    "column", [np.array([3, -1, 0, 7]), np.array([True, False, True, True])], ids=["int64", "bool"]
)
def test_an_int_or_bool_array_column_renders_as_its_list(column):
    # Alone, and beside a float array column.
    floats = np.array([0.5, 1.0, -0.0, 1e-5])
    for columns in ([column], [column, floats]):
        names = ("n", "x")[: len(columns)]
        arrays = cli.Table(names, columns)
        lists = cli.Table(names, [c.tolist() for c in columns])
        assert "".join(arrays.csv()) == "".join(lists.csv()) == _reference_csv(lists)
        for sort_keys in (True, False):
            rendered = "".join(cli._render_json({"rows": arrays}, sort_keys))
            assert rendered == _reference_json({"rows": lists}, sort_keys)


def test_a_float_list_column_renders_as_its_float64_array():
    # Alone, and beside a text column; the edges fail the one-pass JSON count.
    n_rows = 2 * cli.TABLE_CHUNK_ROWS + 3
    cells = np.resize([0.25, 1.0, -0.0, 1e-5, 1.5e15, math.nan, -math.inf, 1 / 3], n_rows)
    labels = [f"r{i}" for i in range(n_rows)]
    for columns in ([cells.tolist()], [labels, cells.tolist()]):
        names = ("label", "x")[-len(columns):]
        lists = cli.Table(names, columns)
        arrays = cli.Table(names, [*columns[:-1], cells])
        assert "".join(lists.csv()) == "".join(arrays.csv()) == _reference_csv(lists)
        for sort_keys in (True, False):
            rendered = "".join(cli._render_json({"rows": lists}, sort_keys))
            assert rendered == "".join(cli._render_json({"rows": arrays}, sort_keys))
            assert rendered == _reference_json({"rows": lists}, sort_keys)


def test_a_report_value_that_is_neither_json_nor_a_table_is_refused():
    with pytest.raises(TypeError, match="^Object of type object is not JSON serializable$"):
        cli._render_json({"x": object()}, True)


def _json_column_calls(monkeypatch, argv):
    """The columns that ``_json_column`` renders in a warm ``argv`` call."""
    assert run_cli(argv) == 0
    calls = []
    real = cli._json_column
    monkeypatch.setattr(
        cli, "_json_column", lambda column, floats: calls.append(column) or real(column, floats)
    )
    assert run_cli(argv) == 0
    return calls


def test_a_sweep_renders_fixed_form_runs_in_one_pass(tmp_path, monkeypatch):
    argv = ["sweep", "--steps", "226", "--format", "json", "--out", str(tmp_path / "out.json")]
    # 4 runs of angles in [0.01, 0.1] and fidelities below 1: no run falls back.
    assert _json_column_calls(monkeypatch, [*argv, "--theta-min", "0.01"]) == []
    # One angle of magnitude below 1e-4, row 100, sends the second run through it.
    low, high = -0.05003, 0.06247
    grid = np.linspace(low, high, 226)
    assert np.flatnonzero(abs(grid) < 1e-4).tolist() == [100]
    calls = _json_column_calls(monkeypatch, [*argv, f"--theta-min={low}", f"--theta-max={high}"])
    run = slice(cli.TABLE_CHUNK_ROWS, 2 * cli.TABLE_CHUNK_ROWS)
    fidelities = fidelity_sweep(grid, mode="post-selected")
    assert calls == [fidelities[run].tolist(), grid[run].tolist()]  # keys sorted


@pytest.mark.parametrize(
    "argv",
    [["sweep", "--steps", "300", "--format", "json"], ["pmax", *_PAPER]],
    ids=["sweep", "pmax"],
)
def test_short_writes_are_finished(tmp_path, monkeypatch, argv):
    # At most 7 bytes a call, which splits pmax's three-byte UTF-8 "≈" too.
    whole, short = tmp_path / "whole", tmp_path / "short"
    assert run_cli([*argv, "--out", str(whole)]) == 0
    real_write = os.write
    calls = []

    def write_seven(fd, data):
        calls.append(len(data))
        return real_write(fd, data[:7])

    monkeypatch.setattr(os, "write", write_seven)
    for _ in range(2):  # a fresh path, then an existing file
        assert run_cli([*argv, "--out", str(short)]) == 0
        assert short.read_bytes() == whole.read_bytes()
    assert len(calls) >= 2 * len(whole.read_bytes()) / 7
    assert sorted(p.name for p in tmp_path.iterdir()) == ["short", "whole"]


@pytest.mark.parametrize("existing", [True, False], ids=["existing", "fresh"])
def test_a_render_error_in_a_late_chunk_leaves_out_untouched(tmp_path, existing):
    out = tmp_path / "out.json"
    if existing:
        out.write_bytes(b"old \xe2\x89\x88\n" * 100)
    column = [0.5] * (3 * cli.TABLE_CHUNK_ROWS)
    column[-1] = object()  # not JSON serializable, in the last run
    rendered = []

    def recorded(chunks):
        for chunk in chunks:
            rendered.append(chunk)
            yield chunk

    report = cli._render_json({"rows": cli.Table(("x",), [column])}, sort_keys=True)
    with pytest.raises(TypeError, match="type object is not JSON serializable"):
        cli._write(argparse.Namespace(out=str(out)), recorded(report))
    assert len(rendered) >= 3  # the first runs were written before the error
    if existing:
        assert out.read_bytes() == b"old \xe2\x89\x88\n" * 100
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
    else:
        assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# usage errors and per-call cost


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sample", "--shots", "0"], "--shots must be between 1 and 1000000000"),
        (["pmax", "--total", "4", "--excitations", "2", "--accessible", "1"],
         "accessibility constraint"),
    ],
    ids=["sample", "pmax"],
)
def test_handler_usage_errors_name_their_subcommand(argv, message, capsys):
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: dickesim {argv[0]} ")
    assert f"dickesim {argv[0]}: error: {message}" in err


@pytest.mark.parametrize(
    "argv, most_gates",
    [
        (["sample", "--shots", "100", "--seed", "1"], 0),
        (["sweep", "--steps", "5"], 0),
        (["verify"], 0),
    ],
    ids=["sample", "sweep", "verify"],
)
def test_repeat_calls_build_no_parser_and_no_circuit(argv, most_gates, monkeypatch, capsys):
    assert run_cli(argv) == 0  # warm-up
    built = {"gates": 0, "parsers": 0}
    gate_init = gates.GateSpec.__post_init__
    parser_init = argparse.ArgumentParser.__init__

    def counting_gate_init(self):
        built["gates"] += 1
        gate_init(self)

    def counting_parser_init(self, *args, **kwargs):
        built["parsers"] += 1
        parser_init(self, *args, **kwargs)

    monkeypatch.setattr(gates.GateSpec, "__post_init__", counting_gate_init)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_parser_init)
    assert run_cli(argv) == 0
    assert built["parsers"] == 0
    assert built["gates"] <= most_gates


@pytest.mark.parametrize(
    "argv",
    [["sample", "--shots", "100", "--seed", "1"], ["sweep", "--steps", "5"], ["verify"]],
    ids=["sample", "sweep", "verify"],
)
def test_a_warm_call_parses_its_line_once(argv, monkeypatch, capsys):
    assert run_cli(argv) == 0  # warm-up
    parses = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counting_parse_known_args(self, *args, **kwargs):
        parses.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting_parse_known_args)
    assert run_cli(argv) == 0
    assert parses == [f"dickesim {argv[0]}"]


def _parse_outcome(parse, argv):
    """``parse(argv)``'s namespace or exit code, with its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _main_and_old_parse(argv):
    """The outcomes of ``argv`` in ``main`` and in the top-level parser's
    ``parse_known_args``, a stray argument refused with its subcommand's
    usage. Every subcommand's handler is swapped for a recorder meanwhile,
    so each namespace is the one that its handler would get."""
    seen = []
    subcommands = cli._parsers()[1]
    handlers = {name: sub.get_default("handler") for name, sub in subcommands.items()}
    for sub in subcommands.values():
        sub.set_defaults(handler=lambda args: seen.append(vars(args)) or 0)

    def main_parse(argv):
        assert main(argv) == 0
        return seen.pop()

    def old_parse(argv):
        args, extra = cli._parsers()[0].parse_known_args(argv)
        if extra:
            subcommands[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
        return vars(args)

    try:
        return _parse_outcome(main_parse, argv), _parse_outcome(old_parse, argv)
    finally:
        for name, sub in subcommands.items():
            sub.set_defaults(handler=handlers[name])


_SUBCOMMAND_LINES = [
    ["prepare", "d4"],
    ["prepare", "w3", "--emit=circuit", "--format", "json"],
    ["prepare", "d5-analytic", "--emit", "circuit"],
    ["prepare"],
    ["prepare", "d6"],
    ["sample", "--shots", "3"],
    ["sample", "--shots=3", "--seed=7", "--out=x.csv", "--format=json"],
    ["sample", "--sh", "3", "--se", "1"],
    ["sample", "--shots", "3", "--", "extra"],
    ["sample", "--shots", "3", "--seed", "-1"],
    ["sample", "--shots", "x"],
    ["sample", "--shots", "3", "--out", ""],
    ["sample", "--seed", "1"],
    ["sample", "--shots", "3", "--version"],
    ["pmax", *_PAPER],
    ["pmax", *_PAPER, "--added=2", "--added-excitations", "1"],
    ["pmax", *_PAPER, "--seed", "1"],
    ["pmax", "--total", "4"],
    ["decompose", *_PAPER, "--format", "xml"],
    ["decompose", *_PAPER, "stray", "--bogus"],
    ["sweep"],
    ["sweep", "--steps=5", "--theta-min=-2e-4", "--theta-max", "0.1", "--mode", "pre-measurement"],
    ["sweep", "--theta-min", "-2e-4"],
    ["sweep", "--steps", "5", "--seed", "1", "--", "extra"],
    ["sweep", "--mode", "bogus"],
    ["verify"],
    ["verify", "--out", "v.json"],
    ["verify", "--format", "csv"],
    ["verify", "--seed", "1"],
    *([name, "-h"] for name in ("prepare", "sample", "pmax", "decompose", "sweep", "verify")),
    ["sweep", "--steps", "5", "--help"],
]


@pytest.mark.parametrize("argv", _SUBCOMMAND_LINES, ids=" ".join)
def test_main_parses_a_subcommand_line_as_the_top_level_parser(argv):
    new, old = _main_and_old_parse(argv)
    assert new == old


_TOKENS = [
    "--shots", "3", "--seed", "-1", "1", "--out", "", "x.csv", "--format", "json", "xml",
    "--steps", "5", "--theta-min=-2e-4", "--theta-max", "0.05", "--mode", "pre-measurement",
    "--total", "4", "--excitations", "2", "--accessible", "3", "--added", "--emit", "circuit",
    "d4", "w3", "--", "extra", "-h", "--version", "--bogus", "--sh", "--format=csv", "sample",
]


@settings(max_examples=300)
@given(
    st.sampled_from(["prepare", "sample", "pmax", "decompose", "sweep", "verify"]),
    st.lists(st.sampled_from(_TOKENS), max_size=8),
)
def test_main_parses_any_subcommand_line_as_the_top_level_parser(command, words):
    argv = [command, *words]
    new, old = _main_and_old_parse(argv)
    assert new == old


@pytest.mark.parametrize(
    "argv, code, message",
    [
        ([], 2, "the following arguments are required: command"),
        (["nosuch"], 2, "argument command: invalid choice: 'nosuch'"),
        (["--version"], 0, ""),
        (["-h"], 0, ""),
        (["--", "sweep"], None, ""),
    ],
    ids=["none", "nosuch", "version", "help", "dashdash"],
)
def test_other_lines_go_to_the_top_level_parser(argv, code, message):
    new, old = _main_and_old_parse(argv)
    assert new == old
    result, out, err = new
    if code is not None:
        assert result == code
        assert message in err
        assert ("usage: dickesim [-h]" in out + err) == (argv != ["--version"])


def test_version_flag(capsys):
    assert run_cli(["--version"]) == 0
    assert "dickesim" in capsys.readouterr().out


def _fresh_env():
    src = Path(__file__).resolve().parents[1] / "src"
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}


def fresh_python(code):
    """Standard output of ``code`` run by a fresh interpreter on ``src``."""
    result = subprocess.run([sys.executable, "-c", code], env=_fresh_env(), capture_output=True,
                            text=True, check=True)
    return result.stdout.splitlines()


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
@pytest.mark.parametrize("into", ["pipe", "file"])
def test_sample_out_dev_stdout_matches_its_golden(tmp_path, into):
    # The histogram goes to stdout through --out, so the summary goes to
    # stderr, as without --out; a redirected file is replaced, not appended to.
    argv = [sys.executable, "-m", "dickesim", "sample", "--shots", "1000", "--seed", "42",
            "--out", "/dev/stdout"]
    golden = Path(__file__).parent / "golden" / "sample_csv"
    kwargs = dict(env=_fresh_env(), cwd=tmp_path, stderr=subprocess.PIPE, check=True)
    if into == "pipe":
        result = subprocess.run(argv, stdout=subprocess.PIPE, **kwargs)
        stdout = result.stdout
    else:
        with open(tmp_path / "stdout", "wb") as handle:
            result = subprocess.run(argv, stdout=handle, **kwargs)
        stdout = (tmp_path / "stdout").read_bytes()
        assert [p.name for p in tmp_path.iterdir()] == ["stdout"]
    assert stdout == (golden / "stdout").read_bytes()
    assert result.stderr == (golden / "stderr").read_bytes()


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    code = (
        "import sys, dickesim; print(dickesim.__version__); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy' "
        "or m.startswith('dickesim.')))"
    )
    assert fresh_python(code) == ["0.1.0", "[]"]


def test_importing_the_cli_builds_no_state_table_or_circuit():
    # D(4,2) with its ancillas, the popcount table behind every Dicke state
    # and the expansion circuit are built on first use, not at import
    code = (
        "import dickesim.cli; from dickesim import dicke, protocols; "
        "print(dicke._popcount_table.cache_info().currsize, "
        "protocols.build_d4_to_d5_circuit.cache_info().currsize)"
    )
    assert fresh_python(code) == ["0 0"]
