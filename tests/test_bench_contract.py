"""The names the benchmark harness binds in hpmsim still exist and still count.

`bench/tracing.py` wraps `SparseMatrix.matvec`, `SparseMatrix.rmatvec` and
`QuadraticODE.rhs` through the class `__dict__` and reads sizes off the
results of the layer functions; `bench/workloads.py` builds its configs
from `generate_instance(...).F1.entries()`. Both files are loaded here as
they are, from their paths.
"""

import importlib.util
from pathlib import Path

from hpmsim import pipeline

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_std1_call_counts_every_bound_name():
    tracing = _load("tracing")
    workloads = _load("workloads")
    tracer = tracing.Tracer()
    report, root = tracer.traced_call(pipeline.run, workloads.build_config("std1", 1))
    assert report.status == "pass"
    metrics = tracer.call_metrics(root)
    assert metrics["sparse.matvec_calls"] > 0
    assert metrics["ode.rhs_calls"] > 0
    assert metrics["embedding.nnz_A"] > 0


def test_generated_workload_configs_load():
    workloads = _load("workloads")
    for name in ("gen4-gmres", "gen8"):
        cfg = workloads.build_config(name, 1)
        n = workloads.WORKLOADS[name][0]
        assert cfg.n == n and len(cfg.F1_triplets) == n * n


def test_traced_gen8_assembly_takes_no_norm_estimate():
    # m comes from the closed-form upper end of ||A||: no Lanczos pass runs
    # inside the assembly, where it used to cost about a quarter of the run
    tracing = _load("tracing")
    workloads = _load("workloads")
    tracer = tracing.Tracer()
    report, root = tracer.traced_call(pipeline.run, workloads.build_config("gen8", 1))
    assert report.status == "pass"
    spans = {s["id"]: s for s in tracer.dump() if s["call"] == root["call"]}

    def under_assembly(span) -> bool:
        while span["parent"] is not None:
            span = spans[span["parent"]]
            if span["name"] == "embedding.assemble_A":
                return True
        return False

    assert any(s["name"] == "embedding.assemble_A" for s in spans.values())
    assert not [s for s in spans.values()
                if s["name"] == "sparse.spectral_norm" and under_assembly(s)]
