import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import hpmsim
import hpmsim.embedding
import hpmsim.marching
import hpmsim.measurement
import hpmsim.ode
import hpmsim.pipeline
from hpmsim.embedding import assemble_A, step_counts
from hpmsim.errors import NumericalError, ValidationError
from hpmsim.marching import choose_order, expm_trajectory
from hpmsim.ode import RTOL_LOOSE, compute_K, grid_steps, integrate
from hpmsim.pipeline import (
    _KEY_RULES,
    RunConfig,
    _Stage,
    build_ode,
    generate_instance,
    instance_config,
    prepare,
    rescaled_problem,
    run,
    sweep,
)
from hpmsim.sparse import DENSE_ORACLE_CAP, dense_expm, max_line_nnz, spectral_norm, vector_norm
from oracles import dense_trajectory, read_vector

STD1 = {
    "n": 1, "T": 1.0, "epsilon": 1e-2, "u_in": [0.5],
    "F1_triplets": [[0, 0, -1.0]],
    "F2_triplets": [[0, 0, 0.2]],
}


def std1_config(**extra) -> RunConfig:
    return RunConfig.from_dict({**STD1, **extra})


@pytest.fixture(scope="module")
def std1_report():
    return run(std1_config())


def test_std1_passes_all_checks(std1_report):
    rep = std1_report
    assert rep.status == "pass"
    assert rep.exit_code == 0
    for row in rep.bound_checks:
        assert row["precondition_ok"], row["check"]
        assert row["pass"], row["check"]
    assert rep.errors["final_error"] <= rep.errors["epsilon"]


def test_std1_rescaled_onto_K(std1_report):
    nl = std1_report.nonlinearity
    assert nl["K"] == pytest.approx(0.4, abs=1e-12)
    assert nl["zeta"] == pytest.approx(0.8, abs=1e-12)
    assert nl["norm_u_in_solved"] == pytest.approx(0.4, abs=1e-12)
    assert nl["flag_K_below_u_original"]


def test_std1_order_capped(std1_report):
    params = std1_report.parameters
    assert params["c"] == 3 == params["c_cap"]
    assert params["c_required"] > params["c_cap"]
    assert not params["hpm_budget_certified"]
    assert any("capped" in w for w in std1_report.warnings)


def test_config_rejects_unknown_keys():
    with pytest.raises(ValidationError, match="unknown config keys"):
        RunConfig.from_dict({**STD1, "bogus": 1})


def test_config_requires_core_keys():
    with pytest.raises(ValidationError, match="missing required key"):
        RunConfig.from_dict({"n": 1, "T": 1.0, "epsilon": 1e-2})


@pytest.mark.parametrize("key, value", [
    ("n", True), ("n", 0), ("n", 2.0),
    ("T", float("nan")), ("T", "1.0"), ("epsilon", float("inf")),
    ("u_in", [float("nan")]), ("u_in", ["0.5"]), ("u_in", [True]), ("u_in", 0.5),
    ("F2_triplets", [[0, 0, "0.2"]]), ("F2_triplets", [[0, 0.0, 0.2]]),
    ("F2_triplets", [[0, 0, float("nan")]]), ("F1_triplets", [[0, 0, float("inf")]]),
    ("F1_triplets", [[True, 0, -1.0]]), ("F1_triplets", [[0, 0]]),
    ("F1_triplets", [[0, 0, -1.0, 1.0]]), ("F1_triplets", [0, 0, -1.0]),
    ("F2_triplets", [[0, 0, True]]), ("F2_triplets", "[[0, 0, 0.2]]"),
    ("u_in", [0.0]), ("u_in", [1e-300, -1e-160]),
    ("T", -1.0), ("epsilon", 0.0), ("epsilon", -0.1),
])
def test_config_rejects_bad_values(key, value):
    with pytest.raises(ValidationError, match=f"'{key}'"):
        RunConfig.from_dict({**STD1, key: value})


def test_every_config_key_has_a_read_time_rule():
    # u_in and the triplet lists have their own checks; every other key is
    # checked from the one rule table, so a new key cannot skip the read
    own_checks = {"u_in", "F1_triplets", "F2_triplets"}
    assert set(RunConfig.__dataclass_fields__) - own_checks == set(_KEY_RULES)


def test_config_accepts_ints_as_reals():
    cfg = RunConfig.from_dict({**STD1, "T": 1, "epsilon": 1, "u_in": [1]})
    assert cfg.u_in == [1]


def test_orthogonal_start_instance_passes():
    # ||F1|| = 2 with top singular vector (1, -1): an estimator started from
    # all-ones would return 1.0 and fail the embedding-norm bound
    cfg = RunConfig.from_dict({
        "n": 2, "T": 1.0, "epsilon": 1e-2, "u_in": [0.3, 0.2],
        "F1_triplets": [[0, 0, -1.5], [0, 1, 0.5], [1, 0, 0.5], [1, 1, -1.5]],
        "F2_triplets": [[0, 0, 0.2], [1, 3, 0.2]],
    })
    rep = run(cfg)
    assert rep.status == "pass"
    row = next(r for r in rep.bound_checks if r["check"] == "embedding_norm")
    assert row["measured"] <= row["bound"]
    assert rep.errors["final_error"] <= 1e-2


# K = 1.5e-300: the rescaled y_in is about 1e-300 in size
TINY_K = {
    "n": 2, "T": 1.0, "epsilon": 1e-2, "u_in": [0.3, 0.2],
    "F1_triplets": [[0, 0, -1.0], [0, 1, 0.2], [1, 0, 0.2], [1, 1, -2.0]],
    "F2_triplets": [[0, 1, 1e-300], [1, 3, -1e-300]],
}


def test_tiny_K_iterative_solve_matches_forward():
    # unscaled, GMRES stops at once on the tiny right-hand side and returns
    # x = 0, and the residual underflows to 0 and accepts it
    fwd = run(RunConfig.from_dict(TINY_K))
    it = run(RunConfig.from_dict({**TINY_K, "solver": "iterative"}))
    assert fwd.status == it.status == "pass"
    assert np.max(np.abs(np.subtract(it.measurement["u_out"],
                                     fwd.measurement["u_out"]))) <= 1e-12


def test_tiny_K_residual_refuses_a_perturbed_march(monkeypatch):
    march = hpmsim.marching.MarchingOperator.march

    # x's blocks scaled by 1 + 1e-6 cos j, j counted over the whole march
    def perturbed(self, y_in):
        for i, X, carry in march(self, y_in):
            j = np.arange(i * X.size, (i + 1) * X.size).reshape(X.shape)
            yield i, X * (1.0 + 1e-6 * np.cos(j)), carry

    monkeypatch.setattr(hpmsim.marching.MarchingOperator, "march", perturbed)
    with pytest.raises(NumericalError, match="residual") as info:
        run(RunConfig.from_dict(TINY_K))
    assert info.value.stage == "solve"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_march_stops_after_its_first_chunk(monkeypatch):
    # the march yields one step at a time, and ||A h|| = 922: the first
    # step's Taylor terms overflow, and the fold is left there, with no
    # warning, not after m = 4
    march = hpmsim.marching.MarchingOperator.march
    firsts = []

    def counted(self, y_in):
        for chunk in march(self, y_in):
            firsts.append(chunk[0])
            yield chunk

    monkeypatch.setattr(hpmsim.marching.MarchingOperator, "march", counted)
    with pytest.raises(NumericalError, match="residual nan") as info:
        run(std1_config(T=800.0, m=4, k=1500, force=True))
    assert info.value.stage == "solve"
    assert firsts == [0]


def test_final_error_has_one_verdict_within_the_slack(monkeypatch):
    # epsilon (1 + 1e-10) is within the target row's relative slack of 1e-9:
    # errors.pass reads that row, so it agrees with status
    final_error = hpmsim.measurement.final_error
    eps = STD1["epsilon"]
    monkeypatch.setattr(hpmsim.measurement, "final_error", lambda *args: dataclasses.replace(
        final_error(*args), final_error=eps * (1 + 1e-10)))
    rep = run(std1_config())
    [target] = [row for row in rep.bound_checks if row["check"] == "target"]
    assert rep.errors["final_error"] > eps
    assert target["pass"] and rep.status == "pass"
    assert rep.errors["pass"] is True


def test_final_error_takes_scaled_norms_where_the_reference_does():
    # ||u(T)|| ~ 2.8e-165: its square underflows, so an unscaled norm reads 0
    # where the reference stage's scaled one does not
    rep = run(RunConfig.from_dict({**STD1, "T": 25, "u_in": [2e-154], "force": True}))
    assert rep.status == "pass"
    assert rep.errors["final_error"] <= rep.errors["epsilon"]


@pytest.mark.parametrize("u_in,judged", [(1e-12, True), (1e-17, False), (1e-100, False)])
def test_truncation_row_is_judged_only_above_the_reference_error(u_in, judged):
    rep = run(std1_config(u_in=[u_in]))
    [row] = [r for r in rep.bound_checks if r["check"] == "truncation"]
    noise = (rep.nonlinearity["zeta"] * rep.errors["reference_error"]
             * u_in * math.exp(-1.0))
    # the bound against the reference's own error on zeta u(T), ||u(T)|| within
    # 1% of u_in e^-T at this K
    assert (row["bound"] > 1.01 * noise) is judged
    assert (row["bound"] > 0.99 * noise) is judged
    assert row["precondition_ok"] is judged
    assert row["measured"] is not None and row["pass"]
    assert ("not judged" in row["note"]) is not judged
    assert rep.status == "pass"


def test_reference_stage_samples_only_T():
    # T alone: DOP853 takes the same steps, so u(T) and the error estimate
    # are bit for bit those of the last samples of both passes on the
    # default grid of 1,000 steps
    for config in (RunConfig.from_dict(STD1),
                   instance_config(generate_instance(3, 2, 0.3, 7), 1.0, 1e-2)):
        prep = prepare(config)
        ode, T = prep.ode, config.T
        ts = np.linspace(0.0, T, grid_steps(ode, T) + 1)
        assert len(ts) > 1000
        diverge = 1e3 * vector_norm(ode.u_in)
        full = integrate(ode.rhs, ode.u_in, ts, diverge)[-1]
        loose = integrate(ode.rhs, ode.u_in, ts, diverge, rtol=RTOL_LOOSE)[-1]
        assert np.array_equal(prep.u_T, full)
        assert prep.ref_error == float(vector_norm(full - loose) / vector_norm(full))


def test_linear_fast_path():
    cfg = RunConfig.from_dict({
        "n": 1, "T": 1.0, "epsilon": 1e-2, "u_in": [0.5],
        "F1_triplets": [[0, 0, -1.0]],
        "F2_triplets": [],
    })
    rep = run(cfg)
    assert rep.status == "pass"
    assert rep.nonlinearity["linear_fast_path"]
    assert any("linear fast path" in w for w in rep.warnings)
    assert rep.parameters["c"] == 0
    assert rep.measurement["chi0_sq"] == 1.0
    # pure linear problem: only the marching error remains
    assert rep.errors["hpm_part"] <= 1e-12


def test_strong_nonlinearity_rejected_with_stage():
    cfg = RunConfig.from_dict({
        "n": 1, "T": 1.0, "epsilon": 1e-2, "u_in": [1.0],
        "F1_triplets": [[0, 0, -1.0]],
        "F2_triplets": [[0, 0, 0.5]],   # K = 2 >= sqrt(2)/2
    })
    with pytest.raises(ValidationError, match="sqrt") as info:
        run(cfg)
    assert info.value.stage == "nonlinearity"


def test_run_selects_the_order_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return choose_order(*args, **kwargs)

    monkeypatch.setattr(hpmsim.marching, "choose_order", counted)
    for extra in ({}, {"c": 2}):
        calls.clear()
        assert run(std1_config(**extra)).status == "pass"
        assert len(calls) == 1


def test_run_takes_the_norm_of_F1_once(monkeypatch):
    # ||F1|| comes from one dense SVD when the instance is built, and the
    # rescaled instance keeps it: no stage estimates it again
    cfg = instance_config(generate_instance(2, 1, 0.1, 3), 1.0, 1e-2)
    spectra, shapes = [], []
    f1_spectrum = hpmsim.ode.f1_spectrum

    def counted(*args, **kwargs):
        spectra.append(args)
        return f1_spectrum(*args, **kwargs)

    def recorded(matrix, *args, **kwargs):
        shapes.append(matrix.shape)
        return spectral_norm(matrix, *args, **kwargs)

    monkeypatch.setattr(hpmsim.ode, "f1_spectrum", counted)
    for module in (hpmsim.ode, hpmsim.embedding, hpmsim.marching, hpmsim.pipeline):
        monkeypatch.setattr(module, "spectral_norm", recorded)
    assert run(cfg).status == "pass"
    assert len(spectra) == 1
    assert shapes and (2, 2) not in shapes


def test_level_acceptance_needs_the_rescaled_regime_above_order_zero():
    # F2 = 0 gives K = 0 and the bound 1, which only the c = 0 state meets:
    # with c = 1 the higher levels still hold u_in kron u_in, and the row's
    # bound does not apply outside ||u_in|| <= K
    linear = {"n": 2, "T": 1.0, "epsilon": 1e-2, "u_in": [0.3, 0.2],
              "F1_triplets": [[0, 0, -1.0], [1, 1, -2.0]], "F2_triplets": []}
    for c, applies in ((None, True), (1, False)):
        rep = run(RunConfig.from_dict({**linear, "c": c}))
        assert rep.status == "pass", c
        row = next(r for r in rep.bound_checks if r["check"] == "level_acceptance")
        assert row["precondition_ok"] is applies and row["pass"], c
    assert row["measured"] < row["bound"]


def test_tiny_nonlinearity_step_error_bound_is_positive():
    # K = 2e-300 makes ||y_in|| ~ 2e-300, whose unscaled square is 0: the
    # step-error bound read 0 and the row passed as 0 <= 0
    rep = run(std1_config(F2_triplets=[[0, 0, 1e-300]]))
    assert rep.status == "pass"
    row = next(r for r in rep.bound_checks if r["check"] == "step_error")
    assert row["precondition_ok"]
    assert 0.0 < row["bound"]
    assert row["measured"] <= row["bound"]


STEP_ERROR_RUNS = {
    "std1": std1_config,
    "gen4-gmres": lambda: instance_config(generate_instance(4, 2, 0.3, 7), 1.0, 1e-2,
                                          solver="iterative"),
}


@pytest.mark.parametrize("name", sorted(STEP_ERROR_RUNS))
@pytest.mark.parametrize("step, excess, passes", [
    ("tightest", "9 bound", False),     # measured at 10 times the tightest bound
    (0, "floor / 2", True),             # step 0's bound is 0: rounding within the floor
    (0, "2 floor", False),
])
def test_step_error_verdict_allows_the_rounding_floor_and_no_more(
        monkeypatch, name, step, excess, passes):
    # one step's measured error is set to its bound plus the excess; the
    # floor is gamma ||y_in||, gamma the probe_tol of the marched operator
    # on A_sym, which the sweep is given with the restricted y_in
    step_errors = hpmsim.marching.step_errors_vs_expm

    def inflated(A, y, sol):
        rows = step_errors(A, y, sol)
        floor = (hpmsim.marching.MarchingOperator(A, sol.params).probe_tol
                 * np.linalg.norm(y))
        j = (min(range(1, len(rows)), key=lambda i: rows[i]["bound"])
             if step == "tightest" else step)
        bound = rows[j]["bound"]
        rows[j]["measured"] = bound + {"9 bound": 9 * bound, "floor / 2": floor / 2,
                                       "2 floor": 2 * floor}[excess]
        return rows

    monkeypatch.setattr(hpmsim.marching, "step_errors_vs_expm", inflated)
    rep = run(STEP_ERROR_RUNS[name]())
    row = next(r for r in rep.bound_checks if r["check"] == "step_error")
    assert row["precondition_ok"]
    assert row["pass"] is passes
    assert rep.status == ("pass" if passes else "bound_violation")


@pytest.mark.parametrize("name", sorted(STEP_ERROR_RUNS))
def test_a_corrupted_orbit_map_is_refused_in_stage_assemble_C(monkeypatch, name):
    # the first two coordinates of level 1 trade orbit ids: A V = V A_sym
    # fails, and the reduction's probe refuses the run before the solve
    orbit_basis = hpmsim.embedding.orbit_basis

    def corrupted(index):
        basis = orbit_basis(index)
        i = index.level_slice(1).start
        orbit = basis.orbit.copy()
        assert orbit[i] != orbit[i + 1]
        orbit[[i, i + 1]] = orbit[[i + 1, i]]
        return dataclasses.replace(basis, orbit=orbit)

    def no_solve(*args, **kwargs):
        raise AssertionError("the solve ran")

    monkeypatch.setattr(hpmsim.embedding, "orbit_basis", corrupted)
    monkeypatch.setattr(hpmsim.marching, "solve_marching", no_solve)
    with pytest.raises(NumericalError, match="does not keep the orbit basis") as info:
        run(STEP_ERROR_RUNS[name]())
    assert info.value.stage == "assemble_C"


@pytest.mark.parametrize("name", sorted(STEP_ERROR_RUNS))
def test_a_run_reads_the_solution_in_orbit_coordinates(monkeypatch, tmp_path, name):
    # post-selection and the step-error sweep get the R-length step starts
    # and final block that the march gave; only the emitted blocks are
    # expanded to the full N, and so are constant on every orbit
    seen = []
    for module, attr in ((hpmsim.measurement, "postselect"),
                         (hpmsim.marching, "step_errors_vs_expm")):
        def record(*args, _original=getattr(module, attr)):
            seen.append(next(a for a in args if isinstance(a, hpmsim.marching.MarchingSolution)))
            return _original(*args)
        monkeypatch.setattr(module, attr, record)
    rep = run(STEP_ERROR_RUNS[name]())
    R = rep.structure["R"]
    assert R < rep.structure["N"] and len(seen) == 2
    for sol in seen:
        assert sol.starts.shape == (rep.parameters["m"] + 1, R) and sol.final.shape == (R,)

    blocks = tmp_path / "blocks"
    rep = run(dataclasses.replace(STEP_ERROR_RUNS[name](), emit_blocks=str(blocks)))
    p = rep.parameters
    basis = hpmsim.embedding.orbit_basis(hpmsim.embedding.build_index_map(p["c"], rep.config["n"]))
    for i in range(p["m"] + 1):
        x = read_vector(blocks / f"x_{i:04d}_0.txt")
        assert x.shape == (p["N"],)
        assert np.array_equal(x, x[basis.reps][basis.orbit])


def test_structure_reports_the_orbit_count_beside_N(std1_report):
    # std1 at c = 3: 12 coordinates in 8 orbits; parameters.N stays the full N
    struct = std1_report.structure
    assert (struct["N"], struct["R"], struct["nnz_A_sym"]) == (12, 8, 16)
    assert std1_report.parameters["N"] == 12


def test_stage_names_innermost_stage_once_and_keeps_arguments():
    timings = {}
    with pytest.raises(NumericalError) as info:
        with _Stage("outer", timings), _Stage("inner", timings):
            raise NumericalError("bad value", 3, {"k": 1})
    assert info.value.stage == "inner"
    assert info.value.args == ("bad value", 3, {"k": 1})
    assert set(timings) == {"outer", "inner"}


def test_report_deterministic_modulo_timings(std1_report):
    a = json.loads(std1_report.to_json())
    b = json.loads(run(std1_config()).to_json())
    a.pop("timings")
    b.pop("timings")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_solver_override_iterative():
    rep = run(std1_config(solver="iterative"))
    assert rep.status == "pass"
    assert rep.solver["name"] == "iterative"


def test_forward_and_iterative_reports_agree():
    a = run(std1_config())
    b = run(std1_config(solver="iterative"))
    assert a.errors["final_error"] == pytest.approx(b.errors["final_error"], abs=1e-12)
    assert a.measurement["chi0_sq"] == pytest.approx(b.measurement["chi0_sq"], abs=1e-12)


def test_report_counts_solver_iterations(std1_report):
    assert std1_report.solver["iterations"] is None
    rep = run(std1_config(solver="iterative"))
    assert 1 <= rep.solver["iterations"] <= rep.parameters["m"] + 1


def test_T_zero_degenerate():
    rep = run(std1_config(T=0.0))
    assert rep.status == "pass"
    assert rep.errors["final_error"] <= 1e-12


# -- sweeps ----------------------------------------------------------------

def test_sweep_c_monotone_below_bound():
    rows = sweep(std1_config(), "c", [0, 1, 2, 3, 4])
    errs = [row["measured_error"] for row in rows]
    bounds = [row["bound"] for row in rows]
    for e, b in zip(errs, bounds):
        assert e <= b
    for lo, hi in zip(errs[1:], errs[:-1]):
        assert lo <= hi + 1e-9
    assert all(row["status"] == "pass" for row in rows)


def test_sweep_k_decays_factorially():
    rows = sweep(std1_config(), "k", [5, 6, 7, 8])
    bounds = [row["bound"] for row in rows]
    for lo, hi in zip(bounds[1:], bounds[:-1]):
        assert lo < hi / 5.0
    for row in rows:
        assert row["measured_error"] <= row["bound"] + 1e-9


def test_sweep_empty_values():
    assert sweep(std1_config(), "epsilon", []) == []


def test_sweep_rejects_unknown_param():
    with pytest.raises(ValidationError):
        sweep(std1_config(), "zeta", [1.0])


def test_sweep_T_final_error_under_epsilon():
    rows = sweep(std1_config(), "T", [0.5, 1.0, 1.5])
    for row in rows:
        assert row["status"] == "pass"
        assert row["measured_error"] <= row["bound"]  # bound column is epsilon


def test_sweep_records_failures_and_continues():
    rows = sweep(std1_config(), "epsilon", [1e-2, -1.0])
    assert rows[0]["status"] == "pass"
    assert str(rows[1]["status"]).startswith("error: config key 'epsilon' must be")


def test_over_cap_paths_still_pass():
    # a tiny dense cap marks every dense-gated check as skipped; the
    # spectrum row, the log-norm certificate of exp_norm and g do not depend
    # on the cap, and the run still passes.  The step-error sweep runs on
    # A_sym, R = 8: it is measured at R^2 = 64 <= 100 and skipped below
    rep = run(std1_config(dense_cap=100))
    assert rep.status == "pass"
    by_name = {r["check"]: r for r in rep.bound_checks}
    assert by_name["exp_norm"]["measured"] == 1.0
    assert by_name["step_error"]["measured"] is not None
    small = next(r for r in run(std1_config(dense_cap=50)).bound_checks
                 if r["check"] == "step_error")
    assert small["measured"] is None and small["note"] == "skipped: R over dense cap"
    assert by_name["embedding_spectrum"]["measured"] == -1.0
    assert by_name["condition_number"]["measured"] is None
    assert rep.parameters["g"] == run(std1_config()).parameters["g"]


def test_condition_row_over_the_cap_never_assembles_C(monkeypatch):
    def refuse(self):
        raise AssertionError("C assembled over the dense cap")

    monkeypatch.setattr(hpmsim.marching.MarchingOperator, "tocsr", refuse)
    # size^2 = 972^2 is over the cap, N^2 = 144 under it
    rep = run(std1_config(dense_cap=10_000))
    row = next(r for r in rep.bound_checks if r["check"] == "condition_number")
    assert row["measured"] is None and row["pass"]
    assert row["note"] == "skipped: size over dense cap"
    assert rep.status == "pass"


# F1 = [[-1, 3], [0, -1]] is not normal: mu(F1) = 0.5 > 0, so the log-norm
# bound cannot certify ||e^(At)|| <= 1, and ||e^(At)|| does rise above 1
NONNORMAL = {
    "n": 2, "T": 1.0, "epsilon": 1e-2, "u_in": [0.3, 0.2],
    "F1_triplets": [[0, 0, -1.0], [0, 1, 3.0], [1, 1, -1.0]],
    "F2_triplets": [[0, 1, 0.1]], "assume_valid": True,
}


def _exp_norm_row(rep):
    return next(r for r in rep.bound_checks if r["check"] == "exp_norm")


def test_exp_norm_certified_by_the_log_norm_bound(std1_report):
    row = _exp_norm_row(std1_report)
    mu = std1_report.structure["log_norm_A_upper"]
    assert mu < 0.0
    assert row["measured"] == 1.0
    assert row["note"] == f"certified: log-norm bound {mu:.3g} <= 0"


def test_exp_norm_at_T_zero_is_one():
    # T = 0 makes h = 0 and the step grid {0}, where e^(A 0) = I: both the
    # certificate and the dense fallback give 1 at any dense cap
    row = _exp_norm_row(run(std1_config(T=0.0)))
    assert row["measured"] == 1.0
    assert row["note"].startswith("certified: ")
    for cap in (DENSE_ORACLE_CAP, 100):
        rep = run(RunConfig.from_dict({**NONNORMAL, "T": 0.0, "dense_cap": cap}))
        assert rep.structure["log_norm_A_upper"] > 0.0
        assert _exp_norm_row(rep)["measured"] == 1.0
        assert "dense cap" not in _exp_norm_row(rep)["note"]


def test_exp_norm_falls_back_to_dense_products_where_the_bound_fails():
    rep = run(RunConfig.from_dict(NONNORMAL))
    row = _exp_norm_row(rep)
    assert rep.structure["log_norm_A_upper"] > 0.0
    assert row["note"] == "dense E^j products"
    # the oracle: dense scipy expm of A t at the run's own step grid
    solved, _, _ = rescaled_problem(build_ode(RunConfig.from_dict(NONNORMAL)))
    A = assemble_A(solved, rep.parameters["c"]).A.toarray()
    m, h = rep.parameters["m"], rep.parameters["h"]
    want = max(np.linalg.norm(scipy.linalg.expm(A * j * h), 2) for j in range(m + 1))
    assert row["measured"] == pytest.approx(want, rel=1e-12)
    assert row["pass"] and row["precondition_ok"]
    # over the dense cap the row is skipped and names the failed certificate
    rep = run(RunConfig.from_dict({**NONNORMAL, "dense_cap": 100}))
    row = _exp_norm_row(rep)
    mu = rep.structure["log_norm_A_upper"]
    assert row["measured"] is None
    assert row["note"] == f"skipped: log-norm bound {mu:.3g} > 0 and N over dense cap"


@pytest.mark.parametrize("n", [1, 4])
def test_expm_sweep_matches_dense_powers(n):
    # one expm_multiply sweep against powers of the dense expm(A h) applied
    # to y_in, on std1 and gen4 at the order and step grid a run selects
    cfg = (std1_config() if n == 1 else
           instance_config(generate_instance(n, 2, 0.3, 7), T=1.0, epsilon=1e-2))
    solved, _, _ = rescaled_problem(build_ode(cfg))
    sys = assemble_A(solved, 3)
    m, h = step_counts(cfg.T, sys.norm_A)
    sweep_traj = expm_trajectory(sys.A, sys.y_in, h, m)
    dense = dense_trajectory(sys.A, sys.y_in, h, m)
    assert sweep_traj.shape == (m + 1, sys.index.N)
    assert np.abs(sweep_traj - dense).max() <= 1e-14 * np.linalg.norm(sys.y_in)
    assert np.array_equal(expm_trajectory(sys.A, sys.y_in, 0.0, m)[m], sys.y_in)


def test_override_beyond_order_cap_needs_force():
    with pytest.raises(ValidationError, match="exponential-norm"):
        run(std1_config(c=6))
    rep = run(std1_config(c=6, force=True))
    assert any("override c = 6" in w for w in rep.warnings)
    # the exp-norm rows are now outside their precondition, reported as such
    row = [r for r in rep.bound_checks if r["check"] == "exp_norm"][0]
    assert not row["precondition_ok"]


def test_override_small_k_needs_force():
    with pytest.raises(ValidationError, match="violates"):
        run(std1_config(k=6))
    rep = run(std1_config(k=6, force=True))
    assert rep.parameters["k"] == 6
    assert any("k = 6" in w for w in rep.warnings)


@pytest.mark.parametrize("n", [1, 4])
def test_decay_ratio_matches_dense_step_grid(n):
    # g from the cascade profile against ||expm(A j h) y_in|| on the step grid
    cfg = (std1_config() if n == 1 else
           instance_config(generate_instance(n, 2, 0.3, 7), T=1.0, epsilon=1e-2))
    rep = run(cfg)
    solved, _, _ = rescaled_problem(build_ode(cfg))
    sys = assemble_A(solved, rep.parameters["c"])
    E = dense_expm(sys.A.toarray() * rep.parameters["h"])
    y, norms = sys.y_in, [np.linalg.norm(sys.y_in)]
    for _ in range(rep.parameters["m"]):
        y = E @ y
        norms.append(np.linalg.norm(y))
    assert rep.parameters["g"] == pytest.approx(max(norms) / norms[-1], rel=1e-12)


def test_decay_grid_refinement_stable(std1_report):
    # computing g on a 4x finer step grid must not flip the acceptance
    # probability's bound check
    rep4 = run(std1_config(m=4 * std1_report.parameters["m"], force=True))
    g_coarse = std1_report.parameters["g"]
    g_fine = rep4.parameters["g"]
    assert g_fine == pytest.approx(g_coarse, rel=0.05)
    for rep in (std1_report, rep4):
        row = [r for r in rep.bound_checks if r["check"] == "step_acceptance"][0]
        assert row["precondition_ok"] and row["pass"]


# -- random instances --------------------------------------------------------

def test_generate_instance_hits_K_target():
    ode = generate_instance(n=2, s=2, K_target=0.3, seed=7)
    assert compute_K(ode).K == pytest.approx(0.3, abs=1e-9)


def test_generate_instance_deterministic():
    a = generate_instance(n=3, s=2, K_target=0.25, seed=11)
    b = generate_instance(n=3, s=2, K_target=0.25, seed=11)
    assert list(a.F1.entries()) == list(b.F1.entries())
    assert list(a.F2.entries()) == list(b.F2.entries())
    assert np.array_equal(a.u_in, b.u_in)


def test_generate_instance_seed_changes_matrices():
    a = generate_instance(n=3, s=2, K_target=0.25, seed=11)
    b = generate_instance(n=3, s=2, K_target=0.25, seed=12)
    assert list(a.F2.entries()) != list(b.F2.entries())


def test_generate_instance_sparsity_respected():
    ode = generate_instance(n=3, s=2, K_target=0.3, seed=5)
    assert max(max_line_nnz(ode.F2)) <= 2


def test_generate_instance_zero_sparsity():
    ode = generate_instance(n=2, s=0, K_target=0.0, seed=1)
    assert ode.F2.nnz == 0
    with pytest.raises(ValidationError, match="K_target must be 0"):
        generate_instance(n=2, s=0, K_target=0.3, seed=1)


def test_generate_instance_infeasible_sparsity():
    with pytest.raises(ValidationError, match="infeasible"):
        generate_instance(n=1, s=2, K_target=0.3, seed=1)


def test_instance_config_roundtrip():
    ode = generate_instance(n=2, s=2, K_target=0.3, seed=7)
    cfg = instance_config(ode, T=1.0, epsilon=1e-2, seed=7)
    rep = run(cfg)
    assert rep.status == "pass"
    assert rep.errors["final_error"] <= 1e-2


# the closed-form upper end of ||A|| (7.625) lies above (c+1)(||F1|| + ||F2||)
# = 7.4 here, while ||A|| = 6.407 lies below it: F1 = -diag(1, 1.2, 1.4, 1.6),
# F2 = 0.05 times the first four rows of the 16 x 16 Sylvester Hadamard matrix
HADAMARD = {
    "n": 4, "T": 1.0, "epsilon": 1e-2, "u_in": [0.1, 0.05, -0.05, 0.02], "c": 3,
    "F1_triplets": [[i, i, -v] for i, v in enumerate([1.0, 1.2, 1.4, 1.6])],
    "F2_triplets": [[i, j, 0.05 * float(scipy.linalg.hadamard(16)[i, j])]
                    for i in range(4) for j in range(16)],
}


def test_embedding_norm_row_falls_back_to_lanczos_above_the_bound():
    rep = run(RunConfig.from_dict(HADAMARD))
    assert rep.status == "pass"
    struct = rep.structure
    assert struct["norm_A"] > struct["norm_A_bound"]
    solved, _, _ = rescaled_problem(build_ode(RunConfig.from_dict(HADAMARD)))
    sys = assemble_A(solved, 3)
    est = spectral_norm(sys.A, lower=sys.norm_A_lower)
    assert struct["norm_A_estimate"] == est < struct["norm_A_bound"]
    row = next(r for r in rep.bound_checks if r["check"] == "embedding_norm")
    assert row["measured"] == est and row["pass"]
    assert row["note"].startswith("Lanczos estimate")
    # m = ceil(T upper) = 8, one more than ceil(T ||A||)
    assert rep.parameters["m"] == 8 == math.ceil(struct["norm_A"]) > math.ceil(est)


def test_embedding_norm_row_measures_the_upper_end_below_the_bound(std1_report):
    row = next(r for r in std1_report.bound_checks if r["check"] == "embedding_norm")
    assert std1_report.structure["norm_A_estimate"] is None
    assert row["measured"] == std1_report.structure["norm_A"]
    assert row["note"] == "closed-form upper end of ||A||"


def test_step_override_between_norm_and_upper_end_needs_force():
    # T ||A|| <= 7 < T upper: ||A h|| <= 1 holds, but only the upper end is proved
    with pytest.raises(ValidationError, match="per-step contract"):
        run(RunConfig.from_dict({**HADAMARD, "m": 7}))
    rep = run(RunConfig.from_dict({**HADAMARD, "m": 7, "force": True}))
    assert rep.parameters["m"] == 7
    assert any("per-step contract" in w for w in rep.warnings)


def report_at_threads(config: str, threads: str) -> dict:
    """The report of `run(config)`, timings dropped, from a fresh interpreter
    with OPENBLAS_NUM_THREADS = threads; config is a Python expression."""
    src = str(Path(hpmsim.__file__).resolve().parents[1])
    code = ("import json; from hpmsim.pipeline import RunConfig, generate_instance, "
            f"instance_config, run; rep = json.loads(run({config}).to_json()); "
            "rep.pop('timings'); print(json.dumps(rep, sort_keys=True))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
                         check=True, timeout=120).stdout
    return json.loads(out)


GEN4 = "instance_config(generate_instance(4, 2, 0.3, 7), 1.0, 1e-2{})"


def test_forward_report_does_not_depend_on_the_blas_thread_count():
    # a BLAS dot product splits its sum by thread; the squared norms of the
    # post-selection are pairwise sums, so the report is the same bit for bit;
    # on std1 kappa(C) runs too, through ARPACK and SuperLU
    for config in (GEN4.format(""), f"RunConfig.from_dict({STD1!r})"):
        reports = [json.dumps(report_at_threads(config, threads), sort_keys=True)
                   for threads in ("1", "2")]
        assert reports[0] == reports[1], config


def test_forward_probe_gap_does_not_depend_on_the_blas_thread_count():
    # the probe's dot products are numpy products and pairwise sums, not
    # BLAS: gen8's largest normalised gap, a rounding-level figure that the
    # exact residual (0 by construction) never showed, agrees bit for bit
    gaps = [report_at_threads("instance_config(generate_instance(8, 2, 0.3, 7), "
                              "1.0, 1e-2)", threads)["solver"]["residual"]
            for threads in ("1", "2")]
    assert gaps[0] == gaps[1]
    assert 0.0 < gaps[0] < 1e-13


def test_forward_run_at_the_budget_order_does_not_hold_x():
    # n = 4 at c = 6: N = 78,100, m = 15, k = 16 and p = 15, so x would be
    # (d+1) N floats, 161 MiB, and the run peaked at 312 MiB holding it; the
    # forward fold keeps the (m+1) N step starts, 9.5 MiB.  The peak is the
    # child's VmHWM, which starts afresh at exec: its ru_maxrss keeps the
    # peak of the process that started it
    src = str(Path(hpmsim.__file__).resolve().parents[1])
    code = ("from hpmsim.pipeline import generate_instance, instance_config, run; "
            "rep = run(instance_config(generate_instance(4, 2, 0.3, 7), 1.0, 1e-2, "
            "c=6, force=True)); hwm = [line.split()[1] for line in "
            "open('/proc/self/status') if line.startswith('VmHWM:')][0]; "
            "print(rep.status, int(hwm) / 1024)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
                         check=True, timeout=120).stdout.split()
    assert out[0] == "pass"
    assert float(out[1]) < 250.0


def assert_close_tree(a, b, rel: float, atol: float, path: str = "report") -> None:
    """a and b hold the same keys, lengths, strings and flags, and floats
    within rel of each other or within atol."""
    assert type(a) is type(b), path
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for key in a:
            assert_close_tree(a[key], b[key], rel, atol, f"{path}.{key}")
    elif isinstance(a, list):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_close_tree(x, y, rel, atol, f"{path}[{i}]")
    elif isinstance(a, float):
        assert abs(a - b) <= rel * max(abs(a), abs(b)) + atol, (path, a, b)
    else:
        assert a == b, path


def test_iterative_report_moves_only_in_its_last_bits_with_the_blas_thread_count():
    # scipy's GMRES takes BLAS dot products, so the README allows the
    # iterative path's values to differ in their last bits between thread
    # counts; every decision in the report must still agree: the status,
    # iteration count and each row's pass, precondition, note and skip (a
    # None measured) compare equal in the tree.  Errors and residuals are
    # differences of states of norm at most 1, so a change in the last bits
    # of the solution moves them by about 1e-16 absolute (6e-10 relative in
    # final_error, 20% in the residual): atol bounds those
    one, two = (report_at_threads(GEN4.format(", solver='iterative'"), threads)
                for threads in ("1", "2"))
    assert one["status"] == "pass"
    assert one["parameters"] == two["parameters"]
    assert_close_tree(one, two, rel=1e-12, atol=1e-14)
