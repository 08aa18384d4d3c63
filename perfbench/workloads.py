"""The four benchmark workloads: seeded inputs, the timed call, and its checks.

Every workload is a closed loop with one client. Inputs come in rounds of
ten calls over five input sizes, weighted 1, 2, 4, 2, 1 and in a seeded
order. Every run sees the same mix of sizes, and whole rounds put the median
call at the centre of the third size, the 75th percentile inside the fourth
and the 95th at the centre of the fifth, never on the edge between two
sizes. The program receives only the inputs generated here from the
workload seed.

Checks run outside the timed call and hold under any change of the random
stream the program draws from: they test sums, supports, statistical bounds,
adjoint round trips and exact identities, never a pinned histogram.
"""
from __future__ import annotations

import contextlib
import copy
import csv
import functools
import io
import json
import math
import os
from fractions import Fraction
from pathlib import Path

import numpy as np

from dickesim import cli, dicke, gates, noise, protocols, sim

ROUND_SIZES = 5
ROUND_LEVELS = (0, 1, 1, 2, 2, 2, 2, 3, 3, 4)   # size index of each call in a round


@contextlib.contextmanager
def _quiet():
    """Discard what a CLI call prints to stdout; its table goes to --out."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        yield


def reference_apply(amplitudes: np.ndarray, n: int, gate_list) -> np.ndarray:
    """Apply (controls, target, 2x2 matrix) gates by axis slicing.

    Independent of ``sim.apply_gate``'s index arithmetic; qubit 0 is the most
    significant bit, as in the program.
    """
    psi = np.array(amplitudes, dtype=complex).reshape((2,) * n)
    for controls, target, u in gate_list:
        select = [slice(None)] * n
        for c in controls:
            select[c] = 1
        select[target] = 0
        zero = tuple(select)
        select[target] = 1
        one = tuple(select)
        a0 = psi[zero].copy()
        a1 = psi[one]
        psi[zero] = u[0, 0] * a0 + u[0, 1] * a1
        psi[one] = u[1, 0] * a0 + u[1, 1] * a1
    return psi.reshape(-1)


def reference_dicke(n: int, k: int) -> np.ndarray:
    weights = np.bitwise_count(np.arange(1 << n, dtype=np.uint32))
    return np.where(weights == k, 1.0 / math.sqrt(math.comb(n, k)), 0.0).astype(complex)


def _gate_list(circuit) -> list:
    return [(g.controls, g.target, g.matrix) for g in circuit.gates]


def _expansion_source() -> np.ndarray:
    """D(4,2) on d1..d4 with both ancillas |0>, as a 6-qubit vector."""
    psi = np.zeros(64, dtype=complex)
    psi[np.arange(16) << 2] = reference_dicke(4, 2)
    return psi


class Workload:
    """Base: subclasses set the class attributes and the six methods."""

    name = ""
    work_unit = ""        # what work_per_s counts
    min_rounds = 5        # fixes the tail percentile and the traced rounds, see run.py
    host_probe = "interpreter"   # see run.HostClock

    def __init__(self, seed: int, tmpdir: Path) -> None:
        self.seed = seed
        self.tmpdir = Path(tmpdir)

    def _rng(self, round_index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, round_index])

    @staticmethod
    def _levels(rng: np.random.Generator) -> list[int]:
        return [int(j) for j in rng.permutation(ROUND_LEVELS)]

    def round(self, index: int) -> list[dict]:
        """The seeded inputs of one round; input ``level`` orders sizes."""
        raise NotImplementedError

    def call(self, inp: dict):
        """The timed call into the program."""
        raise NotImplementedError

    def collect(self, inp: dict, result) -> dict:
        """Turn a call's result into checkable output (untimed)."""
        raise NotImplementedError

    def check(self, inp: dict, out: dict) -> str | None:
        """None if the output is correct, else the reason it is not."""
        raise NotImplementedError

    def corrupt(self, inp: dict, out: dict) -> dict:
        """A copy of a correct output with one deliberate error."""
        raise NotImplementedError

    def work(self, inp: dict, out: dict) -> float:
        raise NotImplementedError


class Sample(Workload):
    """``dickesim sample`` in-process, shot counts on a log grid over [1e3, 1e5]."""

    name = "sample"
    work_unit = "shots"
    # Midpoints of five equal log strata of [1e3, 1e5]: 1585 ... 63096 shots.
    SHOTS = tuple(round(10 ** (3 + 0.4 * (j + 0.5))) for j in range(ROUND_SIZES))
    P_SUCCESS = 5 / 6

    def round(self, index):
        rng = self._rng(index)
        return [
            {
                "level": j,
                "shots": self.SHOTS[j],
                "sampler_seed": int(rng.integers(1 << 63)),
                "rerun": index == 0 and pos == 0,
            }
            for pos, j in enumerate(self._levels(rng))
        ]

    def _argv(self, inp, path):
        return ["sample", "--shots", str(inp["shots"]), "--seed", str(inp["sampler_seed"]),
                "--format", "json", "--out", str(path)]

    def call(self, inp):
        with _quiet():
            return cli.main(self._argv(inp, self.tmpdir / "sample.json"))

    def collect(self, inp, result):
        text = (self.tmpdir / "sample.json").read_bytes()
        out = {"rc": result, "text": text, "report": json.loads(text)}
        if inp["rerun"]:
            rerun_path = self.tmpdir / "sample-rerun.json"
            with _quiet():
                cli.main(self._argv(inp, rerun_path))
            out["rerun_text"] = rerun_path.read_bytes()
        return out

    @functools.cached_property
    def allowed(self) -> frozenset[str]:
        """Bitstrings with nonzero probability in the pre-measurement state."""
        circuit = protocols.build_d4_to_d5_circuit()
        pre = reference_apply(_expansion_source(), 6, _gate_list(circuit))
        support = frozenset(format(i, "06b") for i in np.flatnonzero(np.abs(pre) ** 2 > 1e-15))
        if len(support) != 13:
            raise RuntimeError(f"reference support has {len(support)} strings, expected 13")
        return support

    def check(self, inp, out):
        if out["rc"] != 0:
            return f"exit code {out['rc']}"
        shots = inp["shots"]
        outputs = out["report"]["outputs"]
        counts = {row["bitstring"]: row["count"] for row in outputs["rows"]}
        if outputs["total_shots"] != shots or sum(counts.values()) != shots:
            return f"counts sum to {sum(counts.values())}, expected {shots}"
        unexpected = set(counts) - self.allowed
        if unexpected:
            return f"bitstrings outside the support: {sorted(unexpected)}"
        successes = sum(c for bits, c in counts.items() if bits[-1] == "0")
        if successes != outputs["successes"]:
            return f"successes {outputs['successes']} but flag-0 counts sum to {successes}"
        stderr = math.sqrt(self.P_SUCCESS * (1 - self.P_SUCCESS) / shots)
        if abs(successes / shots - self.P_SUCCESS) > 5 * stderr:
            return f"p_s {successes / shots} more than 5 standard errors from 5/6"
        if "rerun_text" in out and out["rerun_text"] != out["text"]:
            return "same-seed rerun is not byte-identical"
        return None

    def corrupt(self, inp, out):
        bad = copy.deepcopy(out)
        bad["report"]["outputs"]["rows"][0]["count"] += 1
        return bad

    def work(self, inp, out):
        return inp["shots"]


class Sweep(Workload):
    """``dickesim sweep`` in-process: seeded angle ranges in [-0.1, 0.1]."""

    name = "sweep"
    work_unit = "angles"
    # Midpoints of five equal strata of [51, 401] grid points.
    STEPS = tuple(51 + 70 * j + 35 for j in range(ROUND_SIZES))
    MODES = ("post-selected", "pre-measurement")
    FORMATS = ("csv", "json")
    CHECKED_POINTS = 3
    # F(0.1) is 0.9681 in pre-measurement mode and 0.9807 post-selected.
    FIDELITY_FLOOR = 0.96

    def round(self, index):
        rng = self._rng(index)
        inputs = []
        seen = [0] * ROUND_SIZES
        for j in self._levels(rng):
            steps = self.STEPS[j]
            low, high = sorted(float(t) for t in rng.uniform(-0.1, 0.1, 2))
            # Each size cycles through the four mode/format pairs across
            # rounds; the median size meets all four in every round.
            pair = (index * ROUND_LEVELS.count(j) + seen[j]) % 4
            seen[j] += 1
            inputs.append({
                "level": j,
                "steps": steps,
                "theta_min": low,
                "theta_max": high,
                "mode": self.MODES[pair % 2],
                "format": self.FORMATS[pair // 2],
                "checked": sorted(int(i) for i in rng.choice(steps, self.CHECKED_POINTS, replace=False)),
            })
        return inputs

    def call(self, inp):
        argv = ["sweep", f"--theta-min={inp['theta_min']!r}", f"--theta-max={inp['theta_max']!r}",
                "--steps", str(inp["steps"]), "--mode", inp["mode"],
                "--format", inp["format"], "--out", str(self.tmpdir / "sweep.out")]
        with _quiet():
            return cli.main(argv)

    def collect(self, inp, result):
        text = (self.tmpdir / "sweep.out").read_text()
        if inp["format"] == "json":
            rows = [(r["theta"], r["fidelity"]) for r in json.loads(text)["outputs"]["rows"]]
        else:
            reader = csv.reader(io.StringIO(text))
            if next(reader) != ["theta", "fidelity"]:
                raise ValueError("unexpected CSV header")
            rows = [(float(t), float(f)) for t, f in reader]
        return {"rc": result, "rows": rows}

    @functools.cached_property
    def _reference(self):
        circuit = protocols.build_d4_to_d5_circuit()
        source = _expansion_source()
        flag_bit = 1 << (5 - protocols.EXPANSION_LAYOUT.index(protocols.EXPANSION_LAYOUT.flag))
        flag_zero = (np.arange(64) & flag_bit) == 0
        return circuit, source, sim.circuit_unitary(circuit) @ source, flag_zero

    def reference_fidelity(self, theta: float, mode: str) -> float:
        """F from the full-matrix oracle of the noisified circuit."""
        circuit, source, ideal, flag_zero = self._reference
        noisy = sim.circuit_unitary(noise.noisify_circuit(circuit, theta)) @ source
        if mode == "post-selected":
            ideal = np.where(flag_zero, ideal, 0)
            noisy = np.where(flag_zero, noisy, 0)
            ideal /= np.linalg.norm(ideal)
            noisy /= np.linalg.norm(noisy)
        return float(abs(np.vdot(ideal, noisy)) ** 2)

    def check(self, inp, out):
        if out["rc"] != 0:
            return f"exit code {out['rc']}"
        rows = out["rows"]
        if len(rows) != inp["steps"]:
            return f"{len(rows)} rows, expected {inp['steps']}"
        grid = np.linspace(inp["theta_min"], inp["theta_max"], inp["steps"])
        for (theta, fidelity), exact in zip(rows, grid):
            if theta != float(f"{exact:.12g}"):
                return f"theta {theta} is not grid angle {exact!r}"
            if not self.FIDELITY_FLOOR <= fidelity <= 1 + 1e-12:
                return f"fidelity {fidelity} outside [{self.FIDELITY_FLOOR}, 1 + 1e-12]"
        for index in inp["checked"]:
            expected = self.reference_fidelity(float(grid[index]), inp["mode"])
            if abs(rows[index][1] - expected) > 1e-10:
                return f"fidelity {rows[index][1]} at {grid[index]!r}, oracle gives {expected}"
        return None

    def corrupt(self, inp, out):
        bad = copy.deepcopy(out)
        index = inp["checked"][0]
        theta, fidelity = bad["rows"][index]
        bad["rows"][index] = (theta, fidelity - 1e-6)
        return bad

    def work(self, inp, out):
        return inp["steps"]


class Register(Workload):
    """Library API at 2^16 to 2^20 amplitudes: Dicke input, 24 named gates,
    one post-selection."""

    name = "register"
    work_unit = "amplitude updates"
    host_probe = "array"
    SIZES = (16, 17, 18, 19, 20)
    GATES_PER_CONTROL_COUNT = 6    # 0, 1, 2 and 3 controls, six gates each
    NAMES = ("H", "X", "RX", "RY")

    def round(self, index):
        rng = self._rng(index)
        inputs = []
        for j in self._levels(rng):
            n = self.SIZES[j]
            circuit_gates = []
            for n_controls in rng.permutation(np.repeat(np.arange(4), self.GATES_PER_CONTROL_COUNT)):
                name = self.NAMES[rng.integers(len(self.NAMES))]
                theta = float(rng.uniform(-math.pi, math.pi)) if name in ("RX", "RY") else None
                qubits = [int(q) for q in rng.choice(n, n_controls + 1, replace=False)]
                circuit_gates.append(gates.make_gate(name, qubits[:-1], qubits[-1], theta=theta))
            inputs.append({
                "level": j,
                "n": n,
                "k": int(rng.integers(1, n)),
                "circuit": gates.CircuitProgram(n, tuple(circuit_gates), tuple(f"q{i}" for i in range(n))),
                "qubit": int(rng.integers(n)),
                "outcome": int(rng.integers(2)),
            })
        return inputs

    def call(self, inp):
        state = dicke.dicke_state(inp["n"], inp["k"])
        evolved = sim.apply_circuit(state, inp["circuit"])
        probability, branch = sim.postselect(evolved, inp["qubit"], inp["outcome"])
        return state, evolved, probability, branch

    def collect(self, inp, result):
        state, evolved, probability, branch = result
        return {"input": state.amplitudes, "evolved": evolved.amplitudes,
                "probability": probability, "branch": branch.amplitudes}

    def check(self, inp, out):
        n = inp["n"]
        if np.max(np.abs(out["input"] - reference_dicke(n, inp["k"]))) > 1e-12:
            return "input is not the Dicke state"
        adjoint = [(c, t, u.conj().T) for c, t, u in reversed(_gate_list(inp["circuit"]))]
        back = reference_apply(out["evolved"], n, adjoint)
        if np.max(np.abs(back - out["input"])) > 1e-10:
            return "adjoint circuit does not return the Dicke input"
        bit = 1 << (n - 1 - inp["qubit"])
        mask = ((np.arange(1 << n) & bit) != 0) == bool(inp["outcome"])
        probability = float(np.sum(np.abs(out["evolved"][mask]) ** 2))
        if abs(out["probability"] - probability) > 1e-12:
            return f"branch probability {out['probability']}, expected {probability}"
        expected = np.where(mask, out["evolved"] / math.sqrt(probability), 0)
        if np.max(np.abs(out["branch"] - expected)) > 1e-12:
            return "post-selected branch differs from the renormalized projection"
        return None

    def corrupt(self, inp, out):
        bad = dict(out)
        bad["evolved"] = out["evolved"].copy()
        bad["evolved"][0] += 1e-6
        return bad

    def work(self, inp, out):
        return len(inp["circuit"].gates) * (1 << inp["n"])


def _binomial_weights(a_size: int, b_size: int, excitations: int) -> dict[int, Fraction]:
    """Exact weight of each j (excitations on B) in a split Dicke state."""
    total = math.comb(a_size + b_size, excitations)
    low, high = max(excitations - a_size, 0), min(b_size, excitations)
    return {j: Fraction(math.comb(a_size, excitations - j) * math.comb(b_size, j), total)
            for j in range(low, high + 1)}


def bipartition_instances(max_total: int = 12, max_added: int = 3) -> list[tuple[int, ...]]:
    """(N, M, k, n', m') accepted by BipartitionParams and max_success_probability."""
    instances = []
    for n in range(1, max_total + 1):
        for m in range(n + 1):
            for k in range(n + 1):
                for added in range(max_added + 1):
                    for added_exc in range(added + 1):
                        if added - added_exc > 0 and k < m:
                            continue
                        if added_exc > 0 and k < n - m:
                            continue
                        m_total = m + added_exc
                        low = max(m_total - k - added, 0)
                        high = min(n - k, m_total)
                        # An empty target range, or one reaching j > M (a negative
                        # binomial argument), is rejected by max_success_probability.
                        if low <= high <= m:
                            instances.append((n, m, k, added, added_exc))
    return instances


class Verify(Workload):
    """``dickesim verify`` in-process, then one seeded bipartition instance."""

    name = "verify"
    work_unit = "checks"
    min_rounds = 20
    # Size N + n' of the expanded register, which sets the instance's cost.
    TARGET_SIZES = (7, 9, 11, 13, 15)

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        self.pool = {size: [] for size in self.TARGET_SIZES}
        for instance in bipartition_instances():
            size = instance[0] + instance[3]
            if size in self.pool:
                self.pool[size].append(instance)

    def round(self, index):
        rng = self._rng(index)
        inputs = []
        for j in self._levels(rng):
            candidates = self.pool[self.TARGET_SIZES[j]]
            n, m, k, added, added_exc = candidates[rng.integers(len(candidates))]
            a_source = sorted(int(q) for q in rng.choice(n, k, replace=False))
            a_target = sorted(int(q) for q in rng.choice(n + added, k + added, replace=False))
            inputs.append({
                "level": j,
                "params": (n, m, k, added, added_exc),
                "source_split": (a_source, [q for q in range(n) if q not in a_source]),
                "target_split": (a_target, [q for q in range(n + added) if q not in a_target]),
            })
        return inputs

    def call(self, inp):
        with _quiet():
            rc = cli.main(["verify", "--out", str(self.tmpdir / "verify.json")])
        n, m, k, added, added_exc = inp["params"]
        params = dicke.BipartitionParams(n, m, k, added, added_exc)
        pmax = dicke.max_success_probability(params)
        source = dicke.decompose_source(params)
        target = dicke.decompose_target(params)
        source_ok = dicke.verify_decomposition(dicke.dicke_state(n, m), *inp["source_split"], source)
        target_ok = dicke.verify_decomposition(
            dicke.dicke_state(n + added, m + added_exc), *inp["target_split"], target)
        return rc, pmax, source, target, source_ok, target_ok

    def collect(self, inp, result):
        rc, pmax, source, target, source_ok, target_ok = result
        return {
            "rc": rc,
            "report": json.loads((self.tmpdir / "verify.json").read_text()),
            "pmax": pmax,
            "source_weights": {t.j: t.weight for t in source.terms},
            "target_weights": {t.j: t.weight for t in target.terms},
            "source_ok": source_ok,
            "target_ok": target_ok,
        }

    def check(self, inp, out):
        if out["rc"] != 0:
            return f"exit code {out['rc']}"
        checks = out["report"]["checks"]
        if not checks or out["report"]["all_passed"] is not True:
            return "suite reports all_passed false"
        failed = [c["name"] for c in checks if not c["passed"]]
        if failed:
            return f"suite checks failed: {failed}"
        if not (out["source_ok"] and out["target_ok"]):
            return "verify_decomposition rejected a Dicke state"
        n, m, k, added, added_exc = inp["params"]
        source = _binomial_weights(k, n - k, m)
        target = _binomial_weights(k + added, n - k, m + added_exc)
        if out["source_weights"] != source or out["target_weights"] != target:
            return "decomposition weights differ from the binomial formula"
        bound = min(source.get(j, Fraction(0)) / w for j, w in target.items())
        if out["pmax"] != bound:
            return f"max_success_probability {out['pmax']}, min_j w_src/w_tgt is {bound}"
        return None

    def corrupt(self, inp, out):
        bad = dict(out)
        bad["pmax"] = Fraction(out["pmax"].numerator + 1, out["pmax"].denominator)
        return bad

    def work(self, inp, out):
        # The suite's checks plus this instance's: two decompositions and the bound.
        return len(out["report"]["checks"]) + 3


WORKLOADS = {cls.name: cls for cls in (Sample, Sweep, Register, Verify)}
