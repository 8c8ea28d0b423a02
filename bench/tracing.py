"""Spans and counts around hpmsim's layers, installed from the outside.

`Tracer.installed()` replaces every public function of the layer modules,
wherever an hpmsim module has bound it, by a wrapper that records a span
(name, start, end, parent) in memory; the original functions come back when
the block ends. Three hot methods get a call counter instead of a span, as
a span per call would cost more than the call.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter

import hpmsim.cascade
import hpmsim.embedding
import hpmsim.marching
import hpmsim.measurement
import hpmsim.ode
import hpmsim.sparse

LAYERS = {
    "ode": hpmsim.ode,
    "cascade": hpmsim.cascade,
    "embedding": hpmsim.embedding,
    "sparse": hpmsim.sparse,
    "marching": hpmsim.marching,
    "measurement": hpmsim.measurement,
}

# metric -> span whose total time it reports, over every call of the span
SPAN_TIMES = {
    "ode.compute_K_s": "ode.compute_K",
    "ode.reference_s": "ode.reference_solution",
    "cascade.solve_s": "cascade.solve_cascade",
    "embedding.assemble_A_s": "embedding.assemble_A",
    "embedding.structural_report_s": "embedding.structural_report",
    "sparse.spectral_norm_s": "sparse.spectral_norm",
    "sparse.dense_expm_s": "sparse.dense_expm",
    "sparse.dense_eigs_s": "sparse.dense_eigs",
    "marching.assemble_C_s": "marching.assemble_C",
    "marching.solve_s": "marching.solve_marching",
    "marching.condition_report_s": "marching.condition_report",
    "marching.step_errors_s": "marching.step_errors_vs_expm",
    "measurement.postselect_s": "measurement.postselect",
    "measurement.final_error_s": "measurement.final_error",
}
COUNTS = ("ode.rhs_calls", "cascade.rk4_steps", "sparse.matvec_calls")
SIZES = ("embedding.N", "embedding.nnz_A", "marching.nnz_C",
         "marching.m", "marching.k", "marching.d")
# pipeline.self_s is the root span's time not covered by a layer span called
# straight from pipeline code, so the layer spans plus it add up to trace.run_s
LAYER_METRICS = (*SPAN_TIMES, *COUNTS, *SIZES, "sparse.dense_expm_calls",
                 "pipeline.self_s", "trace.run_s")

# (class, method) -> counter name
COUNTED = [
    (hpmsim.sparse.SparseMatrix, "matvec", "sparse.matvec_calls"),
    (hpmsim.sparse.SparseMatrix, "rmatvec", "sparse.matvec_calls"),
    (hpmsim.ode.QuadraticODE, "rhs", "ode.rhs_calls"),
]


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.sizes: dict = {}
        self._stack: list[int] = []
        self._call = 0

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {"id": sid, "call": self._call, "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self._observe(name, result)
            return result
        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _observe(self, name: str, result) -> None:
        """Sizes and counts read off a layer's result at its boundary."""
        if name == "cascade.solve_cascade":
            self.counts["cascade.rk4_steps"] += len(result.ts) - 1
        elif name == "embedding.assemble_A":
            self.sizes["embedding.N"] = result.index.N
            self.sizes["embedding.nnz_A"] = result.A.nnz
        elif name == "marching.assemble_C":
            self.sizes["marching.nnz_C"] = result.nnz
        elif name == "marching.select_parameters":
            self.sizes.update({"marching.m": result.m, "marching.k": result.k,
                               "marching.d": result.d})

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer's public functions and the counted methods."""
        wrappers = {}
        for layer, module in LAYERS.items():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        patched = []
        for modname, module in list(sys.modules.items()):
            if modname != "hpmsim" and not modname.startswith("hpmsim."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        for cls, attr, counter in COUNTED:
            original = cls.__dict__[attr]
            patched.append((cls, attr, original))
            setattr(cls, attr, self._counter(counter, original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def traced_call(self, fn, *args, **kwargs):
        """One call of fn under a root span; returns (result, root span)."""
        self._call += 1
        self.counts.clear()
        self.sizes.clear()
        with self.installed(), self.span("pipeline.run") as root:
            result = fn(*args, **kwargs)
        return result, root

    def call_metrics(self, root: dict) -> dict:
        """The LAYER_METRICS of the call whose root span is `root`."""
        total: Counter = Counter()
        calls: Counter = Counter()
        covered = 0.0
        for s in self.spans:
            if s["call"] != root["call"]:
                continue
            total[s["name"]] += s["end"] - s["start"]
            calls[s["name"]] += 1
            if s["parent"] == root["id"]:
                covered += s["end"] - s["start"]
        run_s = root["end"] - root["start"]
        out = {name: total[span] for name, span in SPAN_TIMES.items()}
        out.update({name: self.counts[name] for name in COUNTS})
        out.update({name: self.sizes.get(name, 0) for name in SIZES})
        out["sparse.dense_expm_calls"] = calls["sparse.dense_expm"]
        out["pipeline.self_s"] = run_s - covered
        out["trace.run_s"] = run_s
        return out

    def dump(self) -> list[dict]:
        return [dict(s) for s in self.spans]
