"""Span tracing of the package's public functions, installed from outside.

``Tracer.install`` wraps every public function of the six package modules,
plus ``GateMatrix.__init__`` (the unitarity check) and
``StateVector.__post_init__`` (the norm check), and rebinds every module
global that refers to an original, so names imported with
``from .statevector import apply_gate`` are traced too.  Each call records a
span (name, start, end, parent span, benchmark call id) into flat arrays;
nothing is aggregated until the run ends.  Counts of work that follow from
argument shapes are accumulated at the same boundary and are labelled
"computed": they are not measured by hardware counters.
"""

from __future__ import annotations

import functools
import inspect
import os
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("statevector", "primitives", "estimators", "noise", "harness", "cli")
COMPLEX_BYTES = 16


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _count_apply_gate(counts, args, kwargs):
    state = _arg(args, kwargs, 0, "state")
    gate = _arg(args, kwargs, 1, "gate")
    controls = _arg(args, kwargs, 3, "controls", ())
    n, k = state.n_qubits, gate.arity
    rows = 1 << max(n - k - len(controls), 0)
    counts["statevector.apply_gate.cmacs"] += rows << (2 * k)
    # copy (read + write) of the whole state, then gather and scatter of the rows
    counts["statevector.apply_gate.amp_bytes"] += COMPLEX_BYTES * ((2 << n) + 2 * (rows << k))


def _count_gate_matrix(counts, args, kwargs):
    dim = len(_arg(args, kwargs, 1, "matrix"))
    counts["statevector.GateMatrix.check_cmacs"] += dim**3


def _count_apply_aa(counts, args, kwargs):
    counts["primitives.apply_aa.g_steps"] += int(_arg(args, kwargs, 2, "repetitions"))


BEFORE = {
    "statevector.apply_gate": _count_apply_gate,
    "statevector.GateMatrix": _count_gate_matrix,
    "primitives.apply_aa": _count_apply_aa,
}
WRITERS = ("harness.write_csv", "harness.write_pgm")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.call = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.call_id = -1
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name, fn):
        nid = self._name_id(name)
        before = BEFORE.get(name)
        writes_file = name in WRITERS
        counts, stack = self.counts, self.stack
        start, end = self.start, self.end

        def traced(*args, **kwargs):
            if before is not None:
                before(counts, args, kwargs)
            idx = len(start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.call.append(self.call_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
                if writes_file:
                    counts["harness.io.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

        return functools.wraps(fn)(traced)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package):
        """Wrap the layers of ``package`` (the imported ``qmean`` module)."""
        modules = [getattr(package, layer) for layer in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in [package] + modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])
        sv = package.statevector
        self._set(sv.GateMatrix, "__init__",
                  self._wrap("statevector.GateMatrix", sv.GateMatrix.__init__))
        self._set(sv.StateVector, "__post_init__",
                  self._wrap("statevector.StateVector", sv.StateVector.__post_init__))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    @contextmanager
    def root(self, call_id: int):
        """One benchmark call: a root span that every package span nests in."""
        self.call_id = call_id
        idx = len(self.start)
        self.name_id.append(self._name_id("bench.call"))
        self.parent.append(-1)
        self.call.append(call_id)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        try:
            yield
        finally:
            self.end[idx] = perf_counter()
            self.stack.pop()

    def aggregate(self, call_scale) -> dict[str, dict[str, float]]:
        """Per span name: calls, total time and self time (time minus child
        spans), each span's time multiplied by ``call_scale[its call id]``."""
        start = np.frombuffer(self.start, dtype=float)
        scale = np.asarray(call_scale, dtype=float)[np.frombuffer(self.call, dtype=np.int32)]
        dur = (np.frombuffer(self.end, dtype=float) - start) * scale
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_t = dur - child
        n = len(self.names)
        calls = np.bincount(names, minlength=n)
        total = np.bincount(names, weights=dur, minlength=n)
        own = np.bincount(names, weights=self_t, minlength=n)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def save(self, path):
        start = np.frombuffer(self.start, dtype=float)
        t0 = start.min() if start.size else 0.0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            call=np.frombuffer(self.call, dtype=np.int32),
            start_s=start - t0,
            end_s=np.frombuffer(self.end, dtype=float) - t0,
        )
