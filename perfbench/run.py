"""Benchmark of dickesim: four closed-loop workloads with one client each.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sample --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1           # every workload
    python3 perfbench/run.py --workload all --seed 1 --trace 1 # per-layer table

With ``--trace 0`` a run reports the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced pass. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics. Exit
code 0 means every call passed its check; 1 means a call or the checker
self-test failed; 2 means the program's sources are missing.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("sample", "sweep", "register", "verify")
SETUP_PROBES = 9
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
THROUGHPUT_NAMES = {
    "sample": "shots_per_s",
    "sweep": "angles_per_s",
    "register": "amp_updates_per_s",
    "verify": "checks_per_s",
}


# -- statistics ----------------------------------------------------------------

def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks; inf marks a failed call."""
    xs = sorted(values)
    pos = pct / 100 * (len(xs) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(xs) - 1)
    if pos == low or xs[low] == xs[high]:
        return xs[low]
    return xs[low] + (xs[high] - xs[low]) * (pos - low)


def tail_percentile(min_calls: int) -> float:
    """Highest ladder percentile with at least ten of ``min_calls`` beyond it.

    Fixed per workload from its guaranteed call count, so the metric means the
    same thing in every run whatever the speed of the program.
    """
    return max(p for p in TAIL_LADDER if round((100 - p) * min_calls, 6) >= 1000)


# -- environment ----------------------------------------------------------------

def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _git_sha() -> str:
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(str(ROOT / ".git" / ref))
    if sha:
        return sha
    for line in (_read(str(ROOT / ".git" / "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(workload: str, seed: int) -> dict:
    import dickesim

    cpu_model = "unknown"
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    cache = "/sys/devices/system/cpu/cpu0/cache/index{}/size"
    record = {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "l2": _read(cache.format(2)),
        "l3": _read(cache.format(3)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "dickesim": dickesim.__version__,
        "git_sha": _git_sha(),
    }
    if workload == "register":
        from workloads import Register
        record["state_bytes_per_n"] = {n: 16 << n for n in Register.SIZES}
        record["note"] = ("sim.bytes_moved_computed is computed from gate counts, not "
                          "measured; no bandwidth fraction is claimed")
    return record


# -- host speed -----------------------------------------------------------------
# On a shared host the same work can take up to ~1.6x longer for minutes at a
# time, when a neighbour loads the sibling hardware thread (CPU time rises with
# wall time, so it is not steal). Raw wall times then spread too widely for any
# regression bound. A fixed probe, run between calls, measures the host's
# current speed; every reported time is scaled to the probe's reference time,
# i.e. given in seconds at the reference host's speed. Raw times are printed too.
# Interpreter-bound and array-bound code slow down by different factors, so
# each workload names the probe that resembles where its time goes.

class HostClock:
    """Scales each call's wall time by the probes taken just before and after it."""

    # Median best-of-three probe time on the reference host: a 2-vCPU Xeon
    # (family 6, model 207) KVM guest, Python 3.11, numpy 2.4.
    REFERENCE_S = {"interpreter": 1.25e-3, "array": 0.42e-3}

    def __init__(self, kind: str = "interpreter") -> None:
        self.reference = self.REFERENCE_S[kind]
        self._run = getattr(self, f"_{kind}")
        self._index = np.arange(1 << 16)
        self._amplitudes = np.zeros(1 << 16, dtype=complex)
        self.probes = [self.probe()]

    @staticmethod
    def _interpreter() -> None:
        for i in range(60):
            np.random.default_rng(np.random.SeedSequence([1, i])).random()

    def _array(self) -> None:
        lower = self._index[(self._index & 4) == 0]
        self._amplitudes[lower] = self._amplitudes[lower | 4] * 0.5

    def probe(self) -> float:
        """Best of three runs of the probe."""
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            self._run()
            best = min(best, time.perf_counter() - start)
        return best

    def measure(self, timed_call, *args):
        """Returns (raw seconds, seconds at reference speed, result)."""
        raw, result = timed_call(*args)
        self.probes.append(self.probe())
        scale = self.reference / ((self.probes[-2] + self.probes[-1]) / 2)
        return raw, raw * scale, result


# -- set-up ---------------------------------------------------------------------

def _setup_once(argv: list[str]) -> tuple[float, None]:
    # No timeout: with one, Popen.wait polls with sleeps of up to 50 ms,
    # which would quantize the measured time.
    start = time.perf_counter()
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start, None


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median time of a fresh interpreter that imports dickesim and builds
    the workload's first round of inputs, scaled and raw. One unmeasured
    probe first compiles the bytecode caches."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    _setup_once(argv)
    clock = HostClock()
    runs = [clock.measure(_setup_once, argv) for _ in range(SETUP_PROBES)]
    return statistics.median(r[1] for r in runs), statistics.median(r[0] for r in runs)


def setup_probe(workload: str, seed: int) -> int:
    from workloads import WORKLOADS
    WORKLOADS[workload](seed, ROOT).round(0)
    return 0


# -- running --------------------------------------------------------------------

class Tally:
    """Calls attempted and failed; a failed call's latency counts as infinite."""

    def __init__(self) -> None:
        self.latencies: list[float] = []   # seconds at reference host speed
        self.raw: list[float] = []         # wall seconds
        self.work = 0.0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, raw: float, scaled: float, reason: str | None, work: float) -> None:
        if reason is None:
            self.latencies.append(scaled)
            self.raw.append(raw)
            self.work += work
        else:
            self.latencies.append(math.inf)
            self.raw.append(math.inf)
            self.failed += 1
            self.reasons.append(reason)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def seconds(self) -> float:
        return sum(t for t in self.latencies if math.isfinite(t))


def run_one(wl, inp, tally: Tally, clock: HostClock, timed_call) -> None:
    """One closed-loop step: the timed call, then its check outside the timing."""
    try:
        raw, scaled, result = clock.measure(timed_call, wl.call, inp)
        out = wl.collect(inp, result)
        reason = wl.check(inp, out)
        work = wl.work(inp, out) if reason is None else 0.0
    except (Exception, SystemExit) as exc:  # a crashing call is a failed call
        raw = scaled = math.inf
        reason, work = f"{type(exc).__name__}: {exc}", 0.0
    tally.record(raw, scaled, reason, work)


def untraced(fn, inp):
    start = time.perf_counter()
    result = fn(inp)
    return time.perf_counter() - start, result


def selftest(wl) -> str | None:
    """Feed the checker one good output and one corrupted copy of it; the
    corrupted one must count as a failed call. Also warms the caches."""
    inp = min(wl.round(0), key=lambda i: i["level"])
    _, result = untraced(wl.call, inp)
    out = wl.collect(inp, result)
    good = wl.check(inp, out)
    if good is not None:
        return f"correct output rejected: {good}"
    tally = Tally()
    tally.record(0.0, 0.0, wl.check(inp, wl.corrupt(inp, out)), 0.0)
    if tally.failed != 1 or tally.failed / tally.attempted <= 0:
        return "corrupted output passed the checker"
    return None


def call_peak_bytes(wl) -> int:
    """Peak memory that round 0's first call of the median input size
    allocates above what was live when it started, untimed. numpy reports its
    array buffers to tracemalloc, so this is the program's own peak, not the
    checker's or the interpreter's. A collection first keeps the garbage
    collector's timing out of the peak."""
    inputs = wl.round(0)
    level = sorted(i["level"] for i in inputs)[len(inputs) // 2]
    inp = next(i for i in inputs if i["level"] == level)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        wl.call(inp)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def run_rounds(wl, tally: Tally, clock: HostClock, timed_call, seconds: float,
               min_rounds: int):
    """Whole rounds until ``seconds`` have passed and ``min_rounds`` are done."""
    done = []
    start = time.perf_counter()
    while True:
        index = len(done)
        if index >= min_rounds and time.perf_counter() - start >= seconds:
            break
        inputs = wl.round(index)
        for inp in inputs:
            run_one(wl, inp, tally, clock, timed_call)
        done.append(inputs)
    return done, time.perf_counter() - start


def end_to_end(wl, seed: int, seconds: float) -> tuple[Tally, dict, list[str]]:
    setup_s, setup_raw = measure_setup(wl.name, seed)
    failure = selftest(wl)
    tally, clock = Tally(), HostClock(wl.host_probe)
    rounds, elapsed = run_rounds(wl, tally, clock, untraced, seconds, wl.min_rounds)
    peak = call_peak_bytes(wl)
    tail_pct = tail_percentile(len(rounds[0]) * wl.min_rounds)
    tail = percentile(tally.latencies, tail_pct)
    beyond = sum(1 for t in tally.latencies if t > tail)
    raw_seconds = sum(t for t in tally.raw if math.isfinite(t))
    metrics = {
        "setup_s": (setup_s, "s"),
        "call_p50_s": (percentile(tally.latencies, 50), "s"),
        "call_tail_s": (tail, "s"),
        "work_per_s": (tally.work / tally.seconds if tally.seconds else 0.0, "1/s"),
        "call_peak_mib": (peak / 2**20, "MiB"),
    }
    notes = [
        f"{tally.attempted} calls in {len(rounds)} rounds, {elapsed:.1f} s measured",
        f"call_tail_s is p{tail_pct:g}, {beyond} calls beyond it",
        f"work_per_s counts {wl.work_unit} ({THROUGHPUT_NAMES[wl.name]})",
        f"failed_frac {tally.failed / tally.attempted:g} ({tally.failed} of {tally.attempted})",
        f"{wl.host_probe} probe median {statistics.median(clock.probes) * 1e3:.3f} ms "
        f"(reference {clock.reference * 1e3:g} ms); raw wall time: "
        f"setup {setup_raw:.4g} s, p50 {percentile(tally.raw, 50):.4g} s, "
        f"p{tail_pct:g} {percentile(tally.raw, tail_pct):.4g} s, "
        f"{tally.work / raw_seconds if raw_seconds else 0:.4g} {wl.work_unit}/s",
    ]
    if failure:
        notes.append(f"CHECKER SELF-TEST FAILED: {failure}")
        tally.failed += 1
    return tally, metrics, notes


def per_layer(wl, seed: int) -> tuple[Tally, dict, list[str]]:
    """Every input of the workload's first ``min_rounds`` rounds, called
    untraced and then traced, back to back. The work is fixed by the seed, not
    by the program's speed, so counts and seconds compare between versions of
    the program; the pairing keeps drift in host speed out of the overhead."""
    from spans import Tracer

    failure = selftest(wl)
    clock = HostClock(wl.host_probe)
    tracer = Tracer()

    def traced_call(fn, inp):
        # Installed only around the traced call, so untraced calls pay nothing.
        tracer.install()
        try:
            return tracer.call(fn, inp)
        finally:
            tracer.uninstall()

    rounds = [wl.round(index) for index in range(wl.min_rounds)]
    plain, traced = Tally(), Tally()
    for inputs in rounds:
        for inp in inputs:
            run_one(wl, inp, plain, clock, untraced)
            run_one(wl, inp, traced, clock, traced_call)
    path = OUT_DIR / f"trace-{wl.name}-seed{seed}.npz"
    tracer.write(path)

    own = tracer.self_seconds()
    counts = tracer.counts()
    call_s = sum(own.values())  # every span nests inside a call's root span
    gate_n = [int(n) for n in tracer.gate_qubits]
    gate_c = [int(c) for c in tracer.gate_controls]
    copied = sum(1 << n for n in gate_n)
    changed = sum(1 << (n - c) for n, c in zip(gate_n, gate_c))
    layer_time = own["sim.apply_gate"] + own["sim.StateVector"]
    metrics = {
        "trace.calls": (traced.attempted, "count"),
        "trace.call_s": (call_s, "s"),
        "trace.overhead_frac": (traced.seconds / plain.seconds - 1, "frac"),
        "trace.work": (traced.work, "count"),
        "bench.self_s": (own["call"], "s"),
        "sim.apply_gate.calls": (counts["sim.apply_gate"], "count"),
        "sim.StateVector.calls": (counts["sim.StateVector"], "count"),
        "gates.GateSpec.calls": (counts["gates.GateSpec"], "count"),
        "sim.validation_share": (own["sim.StateVector"] / layer_time if layer_time else 0.0, "frac"),
        "sim.useful_frac": (changed / copied if copied else 0.0, "frac"),
        "sim.bytes_moved_computed": (2 * 16 * copied, "B"),
    }
    for name in own:
        if name != "call":
            metrics[f"{name}.self_s"] = (own[name], "s")
    named = 1 - own["call"] / call_s
    notes = [
        f"{traced.attempted} traced calls in {len(rounds)} rounds; {plain.seconds:.2f} s "
        f"untraced and {traced.seconds:.2f} s traced at reference host speed",
        f"spans written to {path.relative_to(ROOT)}",
        f"named layers cover {named:.2%} of traced call time "
        f"({'meets' if named >= 0.9 else 'BELOW'} the 90% accounting criterion); "
        "the rest, bench.self_s, is benchmark glue and unwrapped program code",
        "self share per layer: " + ", ".join(
            f"{name} {own[name] / call_s:.2%}"
            for name in sorted(own, key=own.get, reverse=True) if own[name] > 0 and name != "call"),
    ]
    if wl.name == "sample" and traced.work:
        notes.append("protocols.s_per_shot "
                     f"{own['protocols.run_protocol_stats'] / traced.work:.3e}")
    if wl.name == "sweep" and traced.work:
        noise_s = own["noise.fidelity_sweep"] + own["noise.noisify_circuit"]
        notes.append(f"noise.s_per_angle (noise self time) {noise_s / traced.work:.3e}")
    traced.failed += plain.failed
    traced.reasons += plain.reasons
    if failure:
        notes.append(f"CHECKER SELF-TEST FAILED: {failure}")
        traced.failed += 1
    return traced, metrics, notes


def _finite(value):
    return value if isinstance(value, int) or math.isfinite(value) else None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS

    tmpdir = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    try:
        wl = WORKLOADS[name](seed, tmpdir)
        tally, metrics, notes = per_layer(wl, seed) if trace else end_to_end(wl, seed, seconds)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print("env " + json.dumps(environment(name, seed), sort_keys=True))
    print(f"workload {name} (seed {seed}, {'traced' if trace else 'untraced'}):")
    for note in notes:
        print("  " + note)
    for reason in dict.fromkeys(tally.reasons):
        print("  FAILED: " + reason)
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:40s} {value:>16.6g} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": _finite(v), "unit": u} for m, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, then one table of all metrics."""
    rows, status = [], 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if not lines:
            status = status or 1
            continue
        result = json.loads(lines[-1])
        rows.append((name, result))
    print()
    print(f"{'workload':10s} {'metric':40s} {'value':>16s} unit")
    for name, result in rows:
        for metric, entry in result["metrics"].items():
            value = entry["value"]
            text = "null" if value is None else f"{value:.6g}"
            print(f"{name:10s} {metric:40s} {text:>16s} {entry['unit']}")
        print(f"{name:10s} {'failed_frac':40s} "
              f"{result['failed'] / result['attempted']:>16.6g} frac")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured time of an untraced run; a traced run makes a "
                             "fixed number of rounds instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "dickesim" / "__init__.py").is_file():
        print(f"error: dickesim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
