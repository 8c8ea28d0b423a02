"""Command line surface: run, sweep, embed, hpm, bounds, gen.

Exit codes: 0 pass, 1 bound violation, 2 precondition/validation failure,
3 numerical failure, running out of memory or any other unexpected error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import traceback
from pathlib import Path

import numpy as np

from . import cascade as hpm
from . import embedding as emb
from . import measurement as meas
from .errors import BoundViolation, NumericalError, ValidationError
from .pipeline import (
    RunConfig,
    SWEEP_COLUMNS,
    _Stage,
    build_ode,
    generate_instance,
    in_stage,
    json_default,
    prepare,
    refuse_non_directory,
    rescaled_problem,
    run,
    sweep,
)
from .sparse import write_triplets, write_vector

EXIT_PASS = 0
EXIT_BOUND = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hpmsim",
        description="Solve quadratic dissipative ODEs through the "
                    "homotopy-embedding pipeline and verify every bound.",
    )
    ap.add_argument("--config", type=Path, help="JSON run configuration")
    ap.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    ap.add_argument("--force", action="store_true",
                    help="downgrade to warnings: c above the exp-norm cap, epsilon over "
                         "budget, ||A h|| > 1, (k+1)! < Omega for a k override, "
                         "2m(c+1)(c+2) > (k+1)!; never K >= sqrt(2)/2, ||F2|| > "
                         "|Re lambda_1| or the dimension, dense and grid caps")
    ap.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub = ap.add_subparsers(dest="command", required=True)

    rn = sub.add_parser("run", help="full pipeline with JSON report and CSV summary")
    rn.add_argument("--solver", choices=["forward", "iterative"], default=None)
    rn.add_argument("--tol", type=float, default=None,
                    help="override the solve budget delta: it sets k and the GMRES "
                         "residual target")
    rn.add_argument("--emit-blocks", default=None,
                    help="write each per-step solution block to this directory")

    sw = sub.add_parser("sweep", help="one run per parameter value, CSV table")
    sw.add_argument("--param", required=True, choices=["c", "k", "T", "epsilon"])
    sw.add_argument("--values", required=True,
                    help="comma-separated list, e.g. 0,1,2,3,4")

    em = sub.add_parser("embed", help="write the embedding matrix and initial vector")
    em.add_argument("--order", type=int, default=None,
                    help="truncation order (else the config's c; one is required)")

    sub.add_parser("hpm", help="cascade order norms as CSV (t, i, norm, bound)")
    sub.add_parser("bounds", help="JSON report of every bound check")

    gen = sub.add_parser("gen", help="write a seeded random instance")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--s", type=int, required=True)
    gen.add_argument("--K", type=float, required=True)
    gen.add_argument("--T", type=float, default=1.0)
    gen.add_argument("--epsilon", type=float, default=1e-2)
    gen.add_argument("--u-norm", type=float, default=None)
    return ap


def _load_config(args, **overrides) -> RunConfig:
    """The config file with the command line's overrides merged in, checked
    once by `RunConfig.from_dict`; an override left at None is not merged."""
    if args.config is None:
        raise ValidationError("this subcommand needs --config")
    overrides.update(force=args.force or None, seed=args.seed)
    return RunConfig.from_json(args.config, {key: value for key, value in overrides.items()
                                             if value is not None})


def _print_rows(rows: list[dict], width: int) -> None:
    """One line per bound row: its name right-aligned in width, its verdict."""
    for row in rows:
        gate = "" if row["precondition_ok"] else " (precondition not met)"
        print(f"{row['check']:>{width}}: {'pass' if row['pass'] else 'FAIL'}{gate}")


def _cmd_run(args) -> int:
    cfg = _load_config(args, solver=args.solver, tol=args.tol,
                       emit_blocks=args.emit_blocks)
    report = run(cfg, base_dir=args.config.parent)
    args.out.mkdir(parents=True, exist_ok=True)
    report.to_json(args.out / "report.json")
    with open(args.out / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check", "precondition_ok", "measured", "bound", "pass"])
        for row in report.bound_checks:
            writer.writerow([row["check"], row["precondition_ok"],
                             row["measured"], row["bound"], row["pass"]])
    _print_rows(report.bound_checks, 18)
    err = report.errors
    print(f"final_error = {err['final_error']:.3e} vs epsilon = {err['epsilon']:.3e}")
    for w in report.warnings:
        print(f"warning: {w}")
    print(f"status: {report.status}")
    return report.exit_code


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    kind, what = (int, "an integer") if args.param in ("c", "k") else (float, "a number")
    values: list = []
    if args.values.strip():
        for tok in args.values.split(","):
            try:
                values.append(kind(tok))
            except ValueError:
                raise ValidationError(f"--values token {tok!r} is not {what}") from None
    rows = sweep(cfg, args.param, values, base_dir=args.config.parent)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"sweep_{args.param}.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    print(f"wrote {path} ({len(rows)} rows)")
    bad = [r for r in rows if str(r["status"]).startswith("error")
           or r["status"] == "bound_violation"]
    return EXIT_BOUND if bad else EXIT_PASS


def _cmd_embed(args) -> int:
    cfg = _load_config(args)
    # the stages of `run` name any error; their timings are not reported
    with _Stage("load", {}):
        ode = build_ode(cfg, args.config.parent)
    with _Stage("nonlinearity", {}):
        solved, zeta, _ = rescaled_problem(ode, cfg.zeta)
    if args.order is not None:
        c = args.order
    elif cfg.c is not None:
        c = cfg.c
    else:
        raise ValidationError("embed needs --order or a c override in the config")
    with _Stage("embed", {}):
        sys_ = emb.assemble_A(solved, c, cap=cfg.dimension_cap)
    args.out.mkdir(parents=True, exist_ok=True)
    write_triplets(sys_.A, args.out / "A.txt")
    write_vector(sys_.y_in, args.out / "y_in.txt")
    sidecar = {
        "c": c,
        "n": ode.n,
        "beta": sys_.index.beta,
        "N": sys_.index.N,
        "offsets": sys_.index.offsets,
        "zeta": zeta,
        "norm_A": sys_.norm_A,
        "norm_A_lower": sys_.norm_A_lower,
    }
    (args.out / "embed.json").write_text(json.dumps(sidecar, indent=2) + "\n")
    print(f"wrote A ({sys_.A.nnz} nonzeros, N={sys_.index.N}) and y_in to {args.out}")
    return EXIT_PASS


def _cmd_hpm(args) -> int:
    cfg = _load_config(args)
    prep = prepare(cfg, args.config.parent)
    K, norm_u = prep.nl.K, prep.nl.norm_u_in
    with _Stage("cascade", {}):
        casc = hpm.solve_cascade(prep.solved, prep.sel.c, cfg.T, K=K)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "hpm.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "i", "norm_nu_i", "bound_K_pow"])
        for t, norms in zip(casc.ts, casc.order_norms.T):
            for i in range(prep.sel.c + 1):
                bound = norm_u * K ** i if K > 0 else (norm_u if i == 0 else 0.0)
                writer.writerow([f"{t:.12g}", i, f"{norms[i]:.12g}", f"{bound:.12g}"])
    print(f"wrote {path}")
    return EXIT_PASS


def _cmd_bounds(args) -> int:
    cfg = _load_config(args)
    rows = run(cfg, base_dir=args.config.parent).bound_checks + _appendix_rows(cfg.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "bounds.json"
    path.write_text(json.dumps(rows, indent=2, sort_keys=True,
                               default=json_default) + "\n")
    _print_rows(rows, 22)
    bad = [r for r in rows if r["precondition_ok"] and not r["pass"]]
    return EXIT_BOUND if bad else EXIT_PASS


def _appendix_rows(seed: int) -> list[dict]:
    rows = []
    grid = np.linspace(0.0, 10.0, 250)
    for gamma, beta, m in [(1.0, 1.0, 3), (2.0, 1.0, 1), (1.5, 1.5, 5), (3.0, 0.5, 4)]:
        res = meas.scalar_decay_check(gamma, beta, m, grid)
        rows.append({
            "check": f"scalar_decay(g={gamma},b={beta},m={m})",
            "description": "sum_j (beta t)^j/j! e^(-gamma t) <= m",
            **res, "note": "",
        })
    rng = np.random.default_rng(seed)
    for trial in range(3):
        n = int(rng.integers(2, 6))
        evals = -rng.uniform(0.05, 1.0, size=n)
        q, r = np.linalg.qr(rng.normal(size=(n, n)))
        q = q * np.sign(np.diag(r))
        M = q @ np.diag(evals) @ q.T
        res = meas.taylor_power_error_check(M, Delta=1.0, k=4, steps=3)
        rows.append({
            "check": f"taylor_power_error(trial={trial})",
            "description": "||e^(M l) - T_k(M)^l|| <= 2 l Delta(Delta+1)/(k+1)!",
            **res, "note": "",
        })
    worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 8))
        psi = rng.normal(size=dim)
        phi = psi + rng.normal(size=dim) * 0.1
        alpha = np.linalg.norm(psi)
        beta_v = np.linalg.norm(psi - phi)
        lhs = np.linalg.norm(psi / np.linalg.norm(psi) - phi / np.linalg.norm(phi))
        bound = meas.normalized_difference_bound(alpha, beta_v)
        worst = max(worst, lhs / bound if bound > 0 else 0.0)
    rows.append({
        "check": "normalized_difference",
        "description": "|| psi/||psi|| - phi/||phi|| || <= 2 beta / alpha",
        "precondition_ok": True,
        "measured": worst,
        "bound": 1.0,
        "pass": worst <= 1.0,
        "note": "ratio of measured to bound over 200 seeded pairs",
    })
    return rows


def _cmd_gen(args) -> int:
    seed = args.seed if args.seed is not None else 0
    ode = generate_instance(args.n, args.s, args.K, seed, u_norm=args.u_norm)
    cfg = {
        "n": args.n,
        "T": args.T,
        "epsilon": args.epsilon,
        "u_in": ode.u_in.tolist(),
        "F1_path": "F1.txt",
        "F2_path": "F2.txt",
        "seed": seed,
    }
    RunConfig.from_dict(cfg)    # refuse what `run` would refuse, before writing
    args.out.mkdir(parents=True, exist_ok=True)
    write_triplets(ode.F1, args.out / "F1.txt")
    write_triplets(ode.F2, args.out / "F2.txt")
    (args.out / "instance.json").write_text(json.dumps(cfg, indent=2) + "\n")
    print(f"wrote instance (n={args.n}, s={args.s}, K={args.K}) to {args.out}")
    return EXIT_PASS


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "embed": _cmd_embed,
        "hpm": _cmd_hpm,
        "bounds": _cmd_bounds,
        "gen": _cmd_gen,
    }
    try:
        refuse_non_directory(args.out, "--out")
        return handlers[args.command](args)
    except ValidationError as exc:
        print(f"validation failure{in_stage(exc)}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BoundViolation as exc:
        print(f"bound violation{in_stage(exc)}: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except NumericalError as exc:
        print(f"numerical failure{in_stage(exc)}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception as exc:    # MemoryError or a defect: trace it, exit 3
        traceback.print_exc(file=sys.stderr)
        print(f"unexpected {type(exc).__name__}{in_stage(exc)}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
