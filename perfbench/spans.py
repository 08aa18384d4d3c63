"""Span tracing from outside the program.

The tracer wraps public functions of ``dickesim`` in every module namespace
that binds them (``protocols`` and ``noise`` import ``apply_circuit`` by
name, so patching ``sim`` alone would miss their calls), and wraps
``StateVector.__post_init__`` and ``GateSpec.__post_init__`` on the class.
A span records name, start, end, parent span and call id. Spans stay in
memory and are written out once, when the run ends. A wrapper records only
while a benchmark call is open, so the benchmark's own checks leave no spans.
"""
from __future__ import annotations

import functools
import importlib
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT_SPAN = "call"

# (module, attribute, span name). Both decompositions share one span name.
FUNCTIONS = (
    ("sim", "apply_gate", "sim.apply_gate"),
    ("sim", "apply_circuit", "sim.apply_circuit"),
    ("sim", "postselect", "sim.postselect"),
    ("sim", "circuit_unitary", "sim.circuit_unitary"),
    ("noise", "noisify_circuit", "noise.noisify_circuit"),
    ("noise", "fidelity_sweep", "noise.fidelity_sweep"),
    ("protocols", "run_protocol_stats", "protocols.run_protocol_stats"),
    ("protocols", "expansion_premeasurement", "protocols.expansion_premeasurement"),
    ("protocols", "run_expansion", "protocols.run_expansion"),
    ("dicke", "dicke_state", "dicke.dicke_state"),
    ("dicke", "verify_decomposition", "dicke.verify_decomposition"),
    ("dicke", "decompose_source", "dicke.decompose"),
    ("dicke", "decompose_target", "dicke.decompose"),
    ("dicke", "max_success_probability", "dicke.max_success_probability"),
    ("checks", "run_all_checks", "checks.run_all_checks"),
    ("cli", "main", "cli.main"),
)
CLASSES = (
    ("sim", "StateVector", "sim.StateVector"),
    ("gates", "GateSpec", "gates.GateSpec"),
)
SPAN_NAMES = tuple(dict.fromkeys([ROOT_SPAN] + [s for *_, s in FUNCTIONS + CLASSES]))


class Tracer:
    """Collects spans for benchmark calls while :meth:`call` is open."""

    def __init__(self) -> None:
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name = array("h")
        self.parent = array("l")
        self.call_id = array("l")
        self.start = array("d")
        self.end = array("d")
        # Register size and control count of every apply_gate span, in order.
        self.gate_qubits = array("h")
        self.gate_controls = array("h")
        self._stack = [-1]
        self._call = -1
        self._recording = False
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "dickesim" or n.startswith("dickesim.")]
        for modname, attr, span in FUNCTIONS:
            original = getattr(importlib.import_module(f"dickesim.{modname}"), attr)
            wrapper = self._wrap(original, self._ids[span], attr == "apply_gate")
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for modname, clsname, span in CLASSES:
            cls = getattr(importlib.import_module(f"dickesim.{modname}"), clsname)
            self._patch(cls, "__post_init__",
                        self._wrap(cls.__post_init__, self._ids[span], False))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def _patch(self, owner: object, key: str, wrapper: object) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, fn, name_id: int, is_gate: bool):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._recording:
                return fn(*args, **kwargs)
            if is_gate:
                tracer.gate_qubits.append(args[0].n_qubits)
                tracer.gate_controls.append(len(args[1].controls))
            index = tracer._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        return traced

    # -- spans --------------------------------------------------------------
    def _open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.call_id.append(self._call)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def call(self, fn, *args):
        """Run one benchmark call under a root span; returns (seconds, result)."""
        self._call += 1
        self._recording = True
        index = self._open(self._ids[ROOT_SPAN])
        try:
            result = fn(*args)
        finally:
            self._close(index)
            self._recording = False
        return self.end[index] - self.start[index], result

    # -- results ----------------------------------------------------------
    def self_seconds(self) -> dict[str, float]:
        """Self time per span name: duration minus the time its children cover."""
        parent = np.asarray(self.parent, dtype=np.int64)
        name = np.asarray(self.name, dtype=np.int64)
        duration = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                              minlength=len(duration))
        own = duration - covered
        totals = np.bincount(name, weights=own, minlength=len(SPAN_NAMES))
        return {n: float(totals[i]) for i, n in enumerate(SPAN_NAMES)}

    def counts(self) -> dict[str, int]:
        totals = np.bincount(np.asarray(self.name, dtype=np.int64), minlength=len(SPAN_NAMES))
        return {n: int(totals[i]) for i, n in enumerate(SPAN_NAMES)}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            span_names=np.array(SPAN_NAMES),
            name=np.asarray(self.name, dtype=np.int16),
            parent=np.asarray(self.parent, dtype=np.int64),
            call_id=np.asarray(self.call_id, dtype=np.int64),
            start=np.asarray(self.start, dtype=np.float64),
            end=np.asarray(self.end, dtype=np.float64),
        )
