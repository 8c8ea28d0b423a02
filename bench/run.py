#!/usr/bin/env python3
"""hpmsim benchmark: runs one workload through `hpmsim.pipeline.run`, checks
every output against an independent computation and prints each metric by
name and unit, then one JSON object as the last line.

    python3 bench/run.py --workload std1 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all          # std1, gen4-gmres, gen8 in turn

--trace 0 reports the end-to-end metrics of untraced calls; --trace 1 runs
untraced and traced calls in turn and reports the per-layer metrics, the
trace overhead among them. Run it from the root of a source checkout: it
imports hpmsim from ./src and writes only under bench/out/.
"""

import os

# One BLAS thread, set before numpy loads. On a two-core machine shared with
# other tenants, a second BLAS thread made gen4-gmres slower: 2.2-2.3 s a
# call against 1.5-1.9 s.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# hpmsim comes from the checkout's own sources; outside a checkout the
# benchmark exits without a result
sys.path.insert(0, str(SRC))
try:
    from hpmsim import pipeline
except ModuleNotFoundError:
    sys.exit(f"no hpmsim sources under {SRC}: run from the root of a source checkout")
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import build_config  # noqa: E402

SETUP_SAMPLES = 9
PROBE_TIMEOUT_S = 60
WORKLOAD_TIMEOUT_S = 900

# the _Stage names pipeline.run records in report.timings
STAGES = ("load", "nonlinearity", "reference", "order", "cascade", "embed",
          "decay", "parameters", "assemble_C", "solve", "condition",
          "measurement", "errors", "checks")
PER_LAYER = (*tracing.LAYER_METRICS, *(f"stage.{name}_s" for name in STAGES))


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MiB"
    return "s" if name.endswith("_s") else "count"


def setup_samples(workload: str, seed: int) -> list[dict]:
    """Fresh-interpreter set-up samples: wall time plus the probe's split."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append({"wall_s": wall, **json.loads(proc.stdout.splitlines()[-1])})
    return samples


def make_checker(workload: str, cfg):
    """Returns check(report) -> list of failure messages for this workload."""
    if workload == "std1":
        a = cfg.F2_triplets[0][2]
        lam = cfg.F1_triplets[0][2]
        u0 = cfg.u_in[0]
        K = 4.0 * abs(u0) * abs(a) / abs(lam)
        zeta = K / abs(u0)
        # du/dt = lam u + a u^2 is the Bernoulli equation in time -lam t
        u_T = checks.bernoulli_u(a / -lam, u0, -lam * cfg.T)
        blocks = Path(cfg.emit_blocks)

        def check(rep):
            m = rep.parameters["m"]
            level0 = float((blocks / f"x_{m:04d}_0.txt").read_text().split()[0])
            return checks.check_report(rep) + checks.check_level0(
                level0, zeta, u_T, K, rep.parameters["c"], rep.parameters["delta"])
        return check

    u_T = checks.ivp_reference(cfg.n, cfg.F1_triplets, cfg.F2_triplets,
                               cfg.u_in, cfg.T)

    def check(rep):
        return checks.check_report(rep) + checks.check_direction(
            rep.measurement["u_out"], u_T, cfg.epsilon)
    return check


class Tally:
    """Attempted and failed pipeline.run calls. A call fails by raising, by
    ending with a status other than pass, or by failing its checks."""

    def __init__(self, cfg, check):
        self.cfg = cfg
        self.check = check
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def attempt(self, tracer=None) -> dict:
        """One call; returns its wall time and, when traced, its layers."""
        if self.cfg.emit_blocks:
            shutil.rmtree(self.cfg.emit_blocks, ignore_errors=True)
        self.attempted += 1
        rec = {"traced": tracer is not None, "ok": False}
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rep = pipeline.run(self.cfg)
            else:
                rep, root = tracer.traced_call(pipeline.run, self.cfg)
        except Exception:  # a failed call is counted and the run goes on
            rec["run_s"] = time.perf_counter() - t0
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return rec
        rec["run_s"] = time.perf_counter() - t0
        failures = self.check(rep)
        if failures:
            self.failed += 1
            self.wrong += 1
            print(f"call {self.attempted} failed its checks: {failures}",
                  file=sys.stderr)
        rec["ok"] = not failures
        rec["checks_measured"] = checks.checks_measured(rep)
        if tracer is not None:
            rec["layers"] = {**tracer.call_metrics(root),
                             **{f"stage.{name}_s": rep.timings.get(name, 0.0)
                                for name in STAGES}}
        return rec


def median_of(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def upper_quartile(values) -> float:
    """The 75th percentile. On a shared host a call runs either at a steady
    contended speed or, when the neighbours are idle, at a faster speed that
    varies; the upper quartile sits on the steady speed and so repeats
    across runs where the median does not."""
    values = list(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def bench_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Returns the result object and the raw samples behind its figures."""
    samples = setup_samples(workload, seed)
    extra = {"emit_blocks": str(OUT / f"blocks-{workload}-{os.getpid()}")} \
        if workload == "std1" else {}
    cfg = build_config(workload, seed, **extra)
    tally = Tally(cfg, make_checker(workload, cfg))
    tracer = tracing.Tracer() if trace else None

    tally.attempt()                                # untimed warm-up
    timed: list[dict] = []
    overheads: list[float] = []     # traced minus the untraced call just before
    deadline = time.perf_counter() + seconds
    while True:
        timed.append(tally.attempt())
        if tracer is not None:
            timed.append(tally.attempt(tracer))
            overheads.append(timed[-1]["run_s"] - timed[-2]["run_s"])
        if time.perf_counter() >= deadline:
            break
    if cfg.emit_blocks:
        shutil.rmtree(cfg.emit_blocks, ignore_errors=True)

    ok = [r for r in timed if r["ok"]] or timed
    plain = [r["run_s"] for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    if tracer is None:
        metrics = {
            "setup_s": upper_quartile(s["wall_s"] for s in samples),
            "run_s": upper_quartile(plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "checks_measured": min((r.get("checks_measured", 0) for r in ok), default=0),
        }
    else:
        metrics = {name: median_of(r.get("layers", {}).get(name, 0.0) for r in traced)
                   for name in PER_LAYER}
        metrics["setup.import_s"] = median_of(s["import_s"] for s in samples)
        metrics["setup.instance_s"] = median_of(s["instance_s"] for s in samples)
        metrics["trace.overhead_s"] = median_of(overheads)
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(
            {"workload": workload, "seed": seed, "spans": tracer.dump(),
             "calls": [r["layers"] for r in traced]}) + "\n")
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    return result, {"setup_s": [s["wall_s"] for s in samples], "run_s": plain,
                    "traced_run_s": [r["run_s"] for r in traced]}


def print_result(label: str, result: dict, samples: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{label} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{label} over {len(samples['setup_s'])} set-up samples, "
          f"{len(samples['run_s'])} untraced and {len(samples['traced_run_s'])} "
          f"traced timed calls (setup_s and run_s are upper quartiles, "
          f"per-layer figures medians)")
    print(f"{label} attempted = {result['attempted']}  failed = {result['failed']}"
          f"  correct = {result['correct']}")


def run_all(args) -> dict:
    """Each workload in its own process, one after another, so that each
    reports its own peak RSS."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=WORKLOAD_TIMEOUT_S, cwd=ROOT)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            raise RuntimeError(f"workload {workload} exited with {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    return merged


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if Path(pipeline.__file__).resolve().parent.parent != SRC:
        print(f"hpmsim was imported from {pipeline.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    if args.workload == "all":
        result = run_all(args)
    else:
        result, samples = bench_workload(args.workload, args.seed, args.seconds,
                                         bool(args.trace))
        print_result(args.workload, result, samples)
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
         ).write_text(json.dumps({**result, "samples": samples}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
