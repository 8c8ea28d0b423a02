"""End-to-end orchestration: config ingestion, the run pipeline, parameter
sweeps, and seeded random instance generation.

A run chains: nonlinearity parameter -> rescaling -> reference oracle ->
order selection -> cascade -> embedding -> step/Taylor parameters ->
marching solve -> post-selection -> error budget, and records every proved
bound next to its measured value.  `prepare()` runs the first four stages
(load, nonlinearity, reference, order) and returns what they found,
including the one order selection of the run; `run` and the CLI's `hpm`
both start from it.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import cascade as hpm
from . import embedding as emb
from . import marching as mar
from . import measurement as meas
from .errors import BoundViolation, NumericalError, ValidationError
from .ode import (
    NonlinearityParams,
    QuadraticODE,
    compute_K,
    make_ode,
    reference_solution,
    rescale,
)
from .sparse import (
    DENSE_ORACLE_CAP,
    SparseMatrix,
    dense_expm,
    read_triplets,
    spectral_norm,
    vector_norm,
    write_vector,
)

_REL_SLACK = 1e-9   # slack on measured-vs-bound comparisons that can sit at equality
# smallest largest |entry| of u_in whose square is a normal float
_TINY_STATE = math.sqrt(np.finfo(float).tiny)


def _finite_real(x) -> bool:
    return (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and math.isfinite(x))


def _integer(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _triplet(t) -> bool:
    """(i, j, value): two non-bool integers and a finite real."""
    return (isinstance(t, (list, tuple)) and len(t) == 3
            and all(_integer(x) for x in t[:2]) and _finite_real(t[2]))


# key -> (rule its value must meet, what the rule asks for); a key whose
# default is None also takes None, which leaves the choice to the run.
# u_in and the triplet lists have checks of their own in `from_dict`.
_KEY_RULES = {
    **dict.fromkeys(("n", "m", "p", "dense_cap", "dimension_cap"),
                    (lambda x: _integer(x) and x >= 1, "a positive integer")),
    "T": (lambda x: _finite_real(x) and x >= 0, "a finite nonnegative real number"),
    **dict.fromkeys(("epsilon", "g", "eta", "zeta", "tol"),
                    (lambda x: _finite_real(x) and x > 0, "a finite positive real number")),
    **dict.fromkeys(("c", "k", "seed"),
                    (lambda x: _integer(x) and x >= 0, "a nonnegative integer")),
    "solver": (lambda x: isinstance(x, str) and x in mar.SOLVERS,
               f"one of {list(mar.SOLVERS)}"),
    **dict.fromkeys(("force", "assume_valid"),
                    (lambda x: isinstance(x, bool), "true or false")),
    **dict.fromkeys(("F1_path", "F2_path", "emit_blocks"),
                    (lambda x: isinstance(x, str), "a string")),
}


@dataclass
class RunConfig:
    n: int
    T: float
    epsilon: float
    u_in: list[float]
    F1_triplets: list | None = None
    F2_triplets: list | None = None
    F1_path: str | None = None
    F2_path: str | None = None
    assume_valid: bool = False
    # optional overrides; validated against the selection rules unless forced
    c: int | None = None
    k: int | None = None
    m: int | None = None
    p: int | None = None
    g: float | None = None
    eta: float | None = None
    zeta: float | None = None
    solver: str = "forward"
    tol: float | None = None
    emit_blocks: str | None = None   # directory for the per-step x_{i,0} vectors
    dense_cap: int = DENSE_ORACLE_CAP
    dimension_cap: int = emb.N_CAP
    seed: int = 0
    force: bool = False

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ValidationError(f"config must be a JSON object, not {raw!r:.40}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        for req in ("n", "T", "epsilon", "u_in"):
            if req not in raw:
                raise ValidationError(f"config missing required key '{req}'")
        for key, (rule, what) in _KEY_RULES.items():
            value = raw.get(key)
            if key in raw and not (rule(value) or value is None
                                   and cls.__dataclass_fields__[key].default is None):
                raise ValidationError(f"config key '{key}' must be {what}, not {value!r}")
        u_in = raw["u_in"]
        if not isinstance(u_in, (list, tuple, np.ndarray)):
            raise ValidationError(f"config key 'u_in' must be a list, not {u_in!r}")
        bad = [x for x in u_in if not _finite_real(x)]
        if bad:
            raise ValidationError(
                f"config key 'u_in' holds {bad[0]!r}, not a finite real number")
        if len(u_in) and not any(u_in):
            raise ValidationError("config key 'u_in' is all zero: the solution is "
                                  "identically zero")
        if len(u_in) and max(abs(x) for x in u_in) < _TINY_STATE:
            raise ValidationError(f"config key 'u_in' has no entry of size {_TINY_STATE:.2e} "
                                  "or more: its squared norm underflows")
        for key in ("F1_triplets", "F2_triplets"):
            trips = raw.get(key)
            if trips is None:
                continue
            bad = ([t for t in trips if not _triplet(t)]
                   if isinstance(trips, (list, tuple)) else [trips])
            if bad:
                raise ValidationError(f"config key '{key}' needs [int, int, finite real] "
                                      f"triplets, not {bad[0]!r}")
        return cls(**raw)

    @classmethod
    def from_json(cls, path, overrides: dict | None = None) -> "RunConfig":
        """The config in the JSON file at path, with the keys of overrides
        replacing the file's before the one check of `from_dict`."""
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:    # unreadable, not UTF-8 or not JSON
            raise ValidationError(f"cannot read config {path}: {exc}") from exc
        if overrides and isinstance(raw, dict):
            raw = {**raw, **overrides}
        return cls.from_dict(raw)


def build_ode(config: RunConfig, base_dir: Path | None = None) -> QuadraticODE:
    n = config.n

    def load(trips, path, rows, cols, name):
        if trips is not None:
            return SparseMatrix.from_triplets(rows, cols, trips)
        if path is not None:
            p = Path(path)
            if base_dir is not None and not p.is_absolute():
                p = base_dir / p
            return read_triplets(p, (rows, cols))
        raise ValidationError(f"config needs {name}_triplets or {name}_path")

    F1 = load(config.F1_triplets, config.F1_path, n, n, "F1")
    F2 = load(config.F2_triplets, config.F2_path, n, n * n, "F2")
    return make_ode(n, F1, F2, np.asarray(config.u_in, dtype=np.float64),
                    assume_valid=config.assume_valid, dense_cap=config.dense_cap)


@dataclass
class RunReport:
    config: dict
    nonlinearity: dict
    parameters: dict
    structure: dict
    bound_checks: list
    measurement: dict
    errors: dict
    solver: dict
    warnings: list
    timings: dict
    status: str
    exit_code: int

    def to_json(self, path=None) -> str:
        payload = json.dumps(asdict(self), indent=2, sort_keys=True,
                             default=json_default)
        if path is not None:
            Path(path).write_text(payload + "\n")
        return payload


def json_default(obj):
    """Silently unwrap numpy scalars and arrays during JSON dumps."""
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


class _Stage:
    """Names the failing pipeline stage on any propagated error: the innermost
    stage sets `exc.stage`; the message is left as it is."""

    def __init__(self, name: str, timings: dict):
        self.name = name
        self.timings = timings

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.timings[self.name] = time.perf_counter() - self._t0
        if isinstance(exc, Exception) and not hasattr(exc, "stage"):
            exc.stage = self.name
        return False


def in_stage(exc: BaseException) -> str:
    """' in stage NAME' for an error a pipeline stage named, else ''."""
    stage = getattr(exc, "stage", None)
    return f" in stage {stage}" if stage else ""


def _check(name: str, description: str, measured, bound, precondition_ok: bool,
           note: str = "", at_least: bool = False) -> dict:
    """One bound row: measured <= bound, or measured >= bound when at_least."""
    if measured is None:
        ok = True
    elif at_least:
        ok = (not precondition_ok) or measured >= bound * (1 - _REL_SLACK) - 1e-300
    else:
        ok = (not precondition_ok) or measured <= bound * (1 + _REL_SLACK) + 1e-300
    return {
        "check": name,
        "description": description,
        "precondition_ok": bool(precondition_ok),
        "measured": measured,
        "bound": bound,
        "pass": bool(ok),
        "note": note,
    }


def rescaled_problem(ode: QuadraticODE, zeta: float | None = None
                     ) -> tuple[QuadraticODE, float, NonlinearityParams]:
    """The rescaled problem u -> zeta u, zeta, and the NonlinearityParams of ode.

    zeta defaults to K/||u_in|| when K > 0 (so ||u_in|| = K after the
    substitution), else 1; zeta = 1 returns ode itself.
    """
    nl = compute_K(ode)
    if zeta is None:
        zeta = nl.K / nl.norm_u_in if nl.K > 0 else 1.0
    return (rescale(ode, zeta) if zeta != 1.0 else ode), zeta, nl


@dataclass
class Prepared:
    """What a run's first four stages found: `solved` is `ode` rescaled by
    zeta, nl0 and nl their nonlinearity parameters, u_T the reference u(T)
    of `ode` and ref_error its relative error estimate, and sel the order
    selection, whose sel.c is the order in use: the config's c where it
    sets one, else the budget's."""
    ode: QuadraticODE
    solved: QuadraticODE
    zeta: float
    nl0: NonlinearityParams
    nl: NonlinearityParams
    u_T: np.ndarray
    ref_error: float
    eta: float
    sel: mar.OrderSelection


def refuse_non_directory(path, what: str) -> None:
    """Refuse, before any work, an output directory under a non-directory."""
    found = next(p for p in (Path(path), *Path(path).parents) if p.exists())
    if not found.is_dir():
        raise ValidationError(f"{what} {path} cannot be a directory: {found} is not one")


def prepare(config: RunConfig, base_dir: Path | None = None,
            timings: dict | None = None) -> Prepared:
    """The stages load, nonlinearity, reference and order, timed into timings."""
    timings = {} if timings is None else timings
    with _Stage("load", timings):
        if config.emit_blocks:
            refuse_non_directory(config.emit_blocks, "emit_blocks")
        ode = build_ode(config, base_dir)

    with _Stage("nonlinearity", timings):
        solved, zeta, nl0 = rescaled_problem(ode, config.zeta)
        if nl0.flag_K_large:
            raise ValidationError(f"K = {nl0.K:.4g} >= sqrt(2)/2: the level-0 post-selection "
                                  "bound needs K < sqrt(2)/2")
        nl = compute_K(solved) if zeta != 1.0 else nl0
        if abs(nl.K - nl0.K) > 1e-9 * max(nl0.K, 1.0):
            raise NumericalError("rescaling changed K, which must be invariant")

    with _Stage("reference", timings):
        u_T, ref_error = reference_solution(ode, config.T)
        norm_uT = float(vector_norm(u_T))
        if norm_uT == 0.0:
            raise NumericalError("reference solution vanished at T")
        eta = config.eta if config.eta is not None else nl0.norm_u_in / norm_uT

    with _Stage("order", timings):
        sel = mar.choose_order(nl.K, config.epsilon, eta, nl.norm_u_in, nl.norm_F2,
                               nl.re_lambda1, c=config.c, force=config.force)
    return Prepared(ode, solved, zeta, nl0, nl, u_T, ref_error, eta, sel)


def run(config: RunConfig, base_dir: Path | None = None) -> RunReport:
    timings: dict = {}
    prep = prepare(config, base_dir, timings)
    solved, nl, sel = prep.solved, prep.nl, prep.sel

    with _Stage("cascade", timings):
        casc = hpm.solve_cascade(solved, sel.c, config.T, K=nl.K)
        utilde_T = casc.nu[:, -1, :].sum(axis=0)
        utilde_norm = vector_norm(utilde_T)

    with _Stage("embed", timings):
        sys = emb.assemble_A(solved, sel.c, cap=config.dimension_cap)
        struct = emb.structural_report(sys, nl.norm_F2, nl.re_lambda1)

    with _Stage("decay", timings):
        g = float(config.g) if config.g is not None else _decay_ratio(sys, casc)

    with _Stage("parameters", timings):
        params = mar.select_parameters(nl, sel, sys, config.T, config.epsilon, g, prep.eta,
                                       m=config.m, p=config.p, k=config.k,
                                       delta=config.tol, force=config.force)

    with _Stage("assemble_C", timings):
        basis = sys.basis
        A_sym = emb.assemble_A_sym(sys)
        y_sym = basis.restrict(sys.y_in)
        C = mar.assemble_C(A_sym, params)
        struct.update(R=A_sym.shape[0], nnz_A_sym=A_sym.nnz)

    with _Stage("solve", timings):
        sol = mar.solve_marching(C, y_sym, solver=config.solver)
        if config.emit_blocks:
            blocks = Path(config.emit_blocks)
            blocks.mkdir(parents=True, exist_ok=True)
            for i in range(params.m + 1):
                write_vector(basis.expand(sol.step_solution(i)), blocks / f"x_{i:04d}_0.txt")

    with _Stage("condition", timings):
        # the kappa(C) oracle runs on the full A, built only where the oracle runs
        cond = mar.condition_report(params, sys.index.N, lambda: sys.A, config.dense_cap)

    with _Stage("measurement", timings):
        report_m = meas.postselect(sol, basis.group, nl, utilde_norm)

    with _Stage("errors", timings):
        budget = meas.final_error(report_m, prep.u_T, utilde_T, params.epsilon1, nl.K)

    # the oracles behind the exp_norm and step_error rows, timed apart from the checks
    with _Stage("exp_norm", timings):
        exp_row = _exp_norm_row(sys, params, sel.exp_norm_ok, config.dense_cap)

    with _Stage("step_error", timings):
        step_row = _step_error_row(C, y_sym, sol, _taylor_ok(params, sel), config.dense_cap)

    with _Stage("checks", timings):
        checks = _bound_checks(prep, config, utilde_T, struct, params, cond, report_m,
                               budget, exp_row, step_row)
        failed = [row for row in checks if row["precondition_ok"] and not row["pass"]]
        status = "pass" if not failed else "bound_violation"

    return RunReport(
        config=asdict(config),
        nonlinearity={
            "K": nl.K, "re_lambda1": nl.re_lambda1, "norm_F2": nl.norm_F2,
            "norm_u_in_original": prep.nl0.norm_u_in, "norm_u_in_solved": nl.norm_u_in,
            "zeta": prep.zeta, "flag_K_large": nl.flag_K_large,
            "flag_K_below_u_original": prep.nl0.flag_K_below_u,
            "linear_fast_path": nl.K == 0.0,
        },
        parameters={**_fields(params, "warnings"),
                    **{key: getattr(sel, key)
                       for key in ("c_formula", "c_scan", "c_required", "c_cap")}},
        structure=struct,
        bound_checks=checks,
        measurement=_fields(report_m, "eta_prime"),
        errors={**_fields(budget), "reference_error": prep.ref_error,
                "epsilon": config.epsilon, "pass": checks[-1]["pass"]},  # the target row
        solver={"name": config.solver, "residual": sol.residual,
                "iterations": sol.iterations},
        warnings=sel.warnings + params.warnings,
        timings=timings,
        status=status,
        exit_code=0 if status == "pass" else 1,
    )


def _fields(obj, *drop: str) -> dict:
    """A dataclass's fields as a report block, less drop, arrays as lists."""
    pairs = ((f.name, getattr(obj, f.name)) for f in fields(obj) if f.name not in drop)
    return {key: value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in pairs}


def _taylor_ok(params: mar.TaylorSystemParams, sel: mar.OrderSelection) -> bool:
    """The step-error bound's hypotheses, ||A h|| <= 1, 2m(c+1)(c+2) <= (k+1)!
    and ||e^(At)|| <= c+1; the condition_number row reads them too."""
    return params.contract_ok and params.factorial_ok and sel.exp_norm_ok


def _decay_ratio(sys: emb.EmbeddedSystem, casc: hpm.HpmCascade) -> float:
    """g = max_t ||y(t)|| / ||y(T)|| over the cascade's sampling grid.

    y(t) stacks Kronecker products of the cascade orders, so its norm
    profile follows from the per-order norms without forming y. The
    cascade grid has at least 1,000 steps, and it is used in place of the
    marching step grid {0, h, .., mh} at every size.
    """
    level0 = vector_norm(casc.nu.sum(axis=0), axis=1)
    profile = emb.embedded_norm_profile(sys.index, casc.order_norms, level0)
    if profile[-1] == 0.0:
        raise NumericalError("embedded trajectory vanished at T")
    return float(profile.max() / profile[-1])


def _exp_norm_row(sys: emb.EmbeddedSystem, params: mar.TaylorSystemParams,
                  precondition_ok: bool, dense_cap: int) -> dict:
    """max_j ||e^(A j h)|| over the step grid j = 0..m against c + 1.

    t = 0 gives the identity, so the maximum is at least 1, and exactly 1
    when the closed-form log-norm bound mu(A) <= 0 certifies ||e^(At)|| <= 1
    for every t >= 0.  The bound is sufficient, not necessary: where it
    fails, the norms come from dense powers of expm(A h) under the dense cap.
    """
    def row(measured, note):
        return _check("exp_norm", "max_t ||e^(A t)|| <= c + 1 on the step grid",
                      measured, float(params.c + 1), precondition_ok, note=note)

    mu = sys.log_norm_A_upper
    if mu <= 0.0:
        return row(1.0, f"certified: log-norm bound {mu:.3g} <= 0")
    if params.h == 0.0:
        return row(1.0, "h = 0: every step is e^(A 0) = I")
    N = sys.index.N
    if N ** 2 > dense_cap:
        return row(None, f"skipped: log-norm bound {mu:.3g} > 0 and N over dense cap")
    E = dense_expm(sys.A.toarray() * params.h, dense_cap)
    acc = np.eye(N)
    max_norm = 1.0
    for _ in range(params.m):
        acc = E @ acc
        max_norm = max(max_norm, spectral_norm(acc, cap=dense_cap))
    return row(max_norm, "dense E^j products")


def _step_error_row(C: mar.MarchingOperator, y: np.ndarray, sol: mar.MarchingSolution,
                    precondition_ok: bool, dense_cap: int) -> dict:
    """||expm(A j h) y_in - x_{j,0}|| against 2 j (c+1)(c+2) ||y_in|| / (k+1)!
    at each step j = 0..m; the row shows the step of tightest margin.

    The sweep runs on the operator that was marched, C.A = A_sym from
    y = V^T y_in: A V = V A_sym and V has orthonormal columns, so
    e^(A t) y_in = V e^(A_sym t) y, in the full space's norm.  The bound
    covers truncation in exact arithmetic and is 0 at j = 0: rounding, in
    the solve and in the sweep, is not in it.  So each step passes within
    its bound plus the floor gamma ||y||, gamma the marched operator's
    `probe_tol`: gamma_{2n} for the n roundings that one row of
    C x = e_0 kron y meets, the relative error to which the solve's probe
    holds each row.  The rows build each x_{j,0} from y, so a difference
    under gamma ||y|| is one row's rounding on a vector of y's size, which
    the row cannot tell from truncation.  The floor is that resolution,
    not a bound on rounding summed over the steps.
    The sweep runs while R^2 = C.N^2 fits under the dense cap.
    Measured: every step of std1 and gen4-gmres, GMRES's x_{0,0} included,
    is within 7.3e-16 of the sweep, under floors of 4.6e-15 and 4.0e-15;
    std1 on GMRES at `tol` 1e-11 reads 2.6e-16 against a bound of 7.2e-18,
    rounding that passes on the floor.  A step at 10 times a bound b fails
    wherever 9 b exceeds the floor, as at the tightest bounds of those two
    runs, 1.3e-11 and 6.0e-13.
    """
    description = "||expm(A j h) y_in - x_{j,0}|| <= 2 j (c+1)(c+2)||y_in||/(k+1)!"
    if C.N ** 2 > dense_cap:
        return _check("step_error", description, None, 0.0, True,
                      note="skipped: R over dense cap")
    rows = mar.step_errors_vs_expm(C.A, y, sol)
    floor = C.probe_tol * float(vector_norm(y))
    # step 0 is exact but for rounding; report the tightest-margin real step
    j_w = max(range(1, len(rows)), key=lambda i: rows[i]["measured"] - rows[i]["bound"])
    row = _check("step_error", description, rows[j_w]["measured"], rows[j_w]["bound"],
                 precondition_ok, note=f"tightest step j={j_w}")
    row["pass"] = (not precondition_ok) or all(r["measured"] <= r["bound"] + floor
                                               for r in rows)
    return row


def _bound_checks(prep: Prepared, config: RunConfig, utilde_T: np.ndarray, struct: dict,
                  params: mar.TaylorSystemParams, cond: dict,
                  report_m: meas.MeasurementReport, budget: meas.ErrorBudget,
                  exp_row: dict, step_row: dict) -> list[dict]:
    """Every bound row, in report order, from the stages' results and the
    oracle rows; each precondition is built beside its row from verdicts:
    params', the selection's, and prep.nl's rescaled regime."""
    checks = []
    c = params.c
    K = prep.nl.K
    # the rescaled regime ||u_in|| <= K (1 + 1e-9), which the default
    # rescaling guarantees and a zeta override may leave: the geometric bounds
    # of the truncation, level_acceptance and level_decay rows assume it
    rescaled = not prep.nl.flag_K_below_u

    # the witness is a bound only where it is at least the proved counts,
    # which every A meets: for every s from c = 3, for s <= 2 at c = 2
    witness = struct["sparsity_witness"]
    tight_row, tight_col = emb.proved_line_counts(c, struct["s"])
    judged = c >= 1 and witness >= max(tight_row, tight_col)
    checks.append(_check(
        "sparsity", "max row/col nonzeros of the embedding <= s c^2 + c witness",
        float(max(struct["max_row_nnz"], struct["max_col_nnz"])), float(witness), judged,
        note="witness only meaningful for c >= 1" if judged or c < 1 else
        f"not judged: the witness is below the proved counts (rows <= {tight_row}, "
        f"cols <= {tight_col})"))
    est = struct["norm_A_estimate"]
    checks.append(_check(
        "embedding_norm", "||A|| <= (c+1)(||F1|| + ||F2||)",
        struct["norm_A"] if est is None else est, struct["norm_A_bound"], True,
        note="closed-form upper end of ||A||" if est is None else
        "Lanczos estimate: the closed-form upper end exceeds the bound"))
    checks.append(_check(
        "embedding_spectrum", "max Re(eigenvalue of A) < 0",
        struct["max_re_eigenvalue"], 0.0, True,
        note="strict inequality; bound column is 0"))

    checks.append(exp_row)

    checks.append(_check(
        "condition_number", "kappa(C) <= 2 e sqrt(k) (m(k+1)+p)(c+2)",
        cond["measured"], cond["bound"], _taylor_ok(params, prep.sel) and params.k >= 5,
        note="" if cond["measured"] is not None else "skipped: size over dense cap"))

    trunc_measured = float(vector_norm(prep.zeta * prep.u_T - utilde_T))
    trunc_bound = hpm.truncation_bound(K, c) if K > 0 else 0.0
    trunc_pre = K > 0 and rescaled
    # the reference's own error on zeta u(T): a bound at or below it would
    # judge the row on the oracle's noise, not on the cascade
    ref_noise = prep.zeta * prep.ref_error * float(vector_norm(prep.u_T))
    noisy = trunc_pre and trunc_bound <= ref_noise
    checks.append(_check(
        "truncation", "||u(T) - u~(T)|| <= K^(c+2)/(1-K)",
        trunc_measured, trunc_bound, trunc_pre and not noisy,
        note=(f"not judged: bound within the reference's own error {ref_noise:.3g}" if noisy
              else "" if params.hpm_budget_certified
              else "bound exceeds the epsilon1 budget at the capped order")))

    checks.append(step_row)

    checks.append(_check(
        "step_acceptance", "||x_{m,0}||^2/||x||^2 >= 1/(p + 77 m g^2)",
        report_m.p1_block_ratio, report_m.p1_bound, params.acceptance_ok,
        at_least=True))
    # with c = 0 level 0 is the whole state and chi_0^2 = 1 in any regime
    checks.append(_check(
        "level_acceptance", "chi_0^2 >= (1-2K^2)/(1-2K^2 + 2 eta'^2)",
        report_m.chi0_sq, report_m.chi0_bound, c == 0 or rescaled, at_least=True))

    if report_m.level_group_norms_sq:
        worst_ratio = max(
            (g_sq / b if b > 0 else 0.0)
            for g_sq, b in zip(report_m.level_group_norms_sq, report_m.level_group_bounds)
        )
        checks.append(_check(
            "level_decay", "grouped ||y'_i||^2 < (2 K^2)^i",
            worst_ratio, 1.0, K > 0 and rescaled,
            note="ratio of measured to bound, maximized over groups"))

    checks.append(_check(
        "reference_error", "||u_a(T) - u_b(T)|| / ||u_a(T)|| <= epsilon/100, "
        "u_a the reference and u_b a looser pass", prep.ref_error, config.epsilon / 100.0, True))
    checks.append(_check("target", "final normalized error <= configured epsilon",
                         budget.final_error, config.epsilon, True))
    return checks


# -- sweeps -------------------------------------------------------------

SWEEP_COLUMNS = ["value", "measured_error", "bound", "kappa_measured",
                 "kappa_bound", "p1", "chi0_sq", "status"]


def sweep(config: RunConfig, param: str, values, base_dir: Path | None = None) -> list[dict]:
    """One pipeline run per value; failures are recorded, the sweep continues."""
    if param not in {"c", "k", "T", "epsilon"}:
        raise ValidationError(f"sweep parameter must be c, k, T or epsilon, not '{param}'")
    rows = []
    for value in values:
        cfg_dict = asdict(config)
        cfg_dict[param] = int(value) if param in ("c", "k") else float(value)
        cfg_dict["force"] = True
        row = {col: "" for col in SWEEP_COLUMNS}
        row["value"] = value
        try:
            rep = run(RunConfig.from_dict(cfg_dict), base_dir)
            row.update(_sweep_row(rep, param))
            row["status"] = rep.status
        except (ValidationError, NumericalError, BoundViolation) as exc:
            row["status"] = f"error{in_stage(exc)}: {exc}"
        rows.append(row)
    return rows


def _sweep_row(rep: RunReport, param: str) -> dict:
    by_name = {row["check"]: row for row in rep.bound_checks}
    if param == "c":
        err = by_name["truncation"]["measured"]
        bound = by_name["truncation"]["bound"]
    elif param == "k":
        err = by_name["step_error"]["measured"]
        bound = by_name["step_error"]["bound"]
    else:
        err = rep.errors["final_error"]
        bound = rep.errors["epsilon"]
    cond = by_name["condition_number"]
    return {
        "measured_error": err,
        "bound": bound,
        "kappa_measured": cond["measured"] if cond["measured"] is not None else "",
        "kappa_bound": cond["bound"],
        "p1": rep.measurement["p1_block_ratio"],
        "chi0_sq": rep.measurement["chi0_sq"],
    }


# -- random instances ---------------------------------------------------

def generate_instance(n: int, s: int, K_target: float, seed: int,
                      u_norm: float | None = None) -> QuadraticODE:
    """Seeded random instance with compute_K == K_target to ~1e-9.

    F1 is a random orthogonal conjugation of a negative diagonal (normal by
    construction); F2 is s-sparse per row and column, rescaled onto the
    target nonlinearity.
    """
    if n < 1:
        raise ValidationError("n must be positive")
    if seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, not {seed}")
    if K_target < 0 or K_target >= 1:
        raise ValidationError("K_target must lie in [0, 1)")
    if s < 0 or s > n * n:
        raise ValidationError(f"sparsity {s} infeasible for {n}x{n * n}")
    if s == 0 and K_target > 0:
        raise ValidationError("s = 0 forces F2 = 0, so K_target must be 0")
    rng = np.random.default_rng(seed)
    eigs = -rng.uniform(0.5, 2.0, size=n)
    gauss = rng.normal(size=(n, n))
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diag(r))          # deterministic orthogonal factor
    F1 = SparseMatrix(q @ np.diag(eigs) @ q.T)

    if u_norm is None:
        u_norm = K_target if K_target > 0 else 0.5
    direction = rng.normal(size=n)
    u_in = direction / np.linalg.norm(direction) * u_norm

    if s == 0:
        F2 = SparseMatrix.from_triplets(n, n * n, [])
    else:
        col_counts = np.zeros(n * n, dtype=int)
        trips = []
        for i in range(n):
            chosen: set[int] = set()
            while len(chosen) < s:
                j = int(rng.integers(0, n * n))
                if j in chosen or col_counts[j] >= s:
                    continue
                chosen.add(j)
                col_counts[j] += 1
                val = float(rng.uniform(0.5, 1.5)) * (1.0 if rng.uniform() < 0.5 else -1.0)
                trips.append((i, j, val))
        F2 = SparseMatrix.from_triplets(n, n * n, trips)
        re1 = float(eigs.max())
        target_norm = K_target * abs(re1) / (4.0 * u_norm)
        current = spectral_norm(F2)
        F2 = F2 * (target_norm / current)

    ode = make_ode(n, F1, F2, u_in)
    nl = compute_K(ode)
    if abs(nl.K - K_target) > 1e-9:
        raise NumericalError(
            f"instance generation missed K_target: {nl.K} vs {K_target}"
        )
    return ode


def instance_config(ode: QuadraticODE, T: float, epsilon: float, seed: int = 0,
                    **extra) -> RunConfig:
    """Wrap an in-memory instance as a run config with inline triplets."""
    return RunConfig.from_dict({
        "n": ode.n,
        "T": T,
        "epsilon": epsilon,
        "u_in": ode.u_in.tolist(),
        "F1_triplets": [[i, j, v] for i, j, v in ode.F1.entries()],
        "F2_triplets": [[i, j, v] for i, j, v in ode.F2.entries()],
        "seed": seed,
        **extra,
    })
