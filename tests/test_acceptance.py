"""Acceptance suite: every proved bound checked at its stated tolerance.

Each criterion prints one CRITERION line (visible with pytest -s or -rA)
and asserts its condition.  Shared pipeline runs are module-scoped.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from hpmsim.cascade import truncation_bound
from hpmsim.embedding import (
    assemble_A,
    build_index_map,
    enumerate_level,
    level_sizes,
    structural_report,
    total_dimension,
)
from hpmsim.cascade import solve_cascade
from hpmsim.marching import (
    TaylorSystemParams,
    assemble_C,
    condition_report,
    solve_marching,
    step_counts,
    step_errors_vs_expm,
)
from hpmsim.measurement import (
    normalized_difference_bound,
    poisson_tail_sum,
    taylor_power_error_check,
)
from hpmsim.ode import compute_K
from hpmsim.pipeline import (
    RunConfig,
    build_ode,
    generate_instance,
    instance_config,
    rescaled_problem,
    run,
    sweep,
)
from hpmsim.sparse import SparseMatrix, dense_expm, spectral_norm
from oracles import (
    amplitude_lower_bound,
    bernoulli_closed_form,
    build_embedded_vector,
    component_difference_bound,
    dense_condition_number,
    dense_trajectory,
    read_vector,
    reference_C,
    taylor_polynomial_apply,
    unrank,
)

ABS_TOL = 1e-9   # stated integrator-noise slack

STD1 = {
    "n": 1, "T": 1.0, "epsilon": 1e-2, "u_in": [0.5],
    "F1_triplets": [[0, 0, -1.0]],
    "F2_triplets": [[0, 0, 0.2]],
}
K_STD1 = 0.4


def _line(num: int, name: str, ok: bool, detail: str) -> None:
    state = "PASS" if ok else "FAIL"
    print(f"CRITERION {num} [{name}]: {state} - {detail}")


@pytest.fixture(scope="module")
def std1_run(tmp_path_factory):
    blocks = tmp_path_factory.mktemp("std1_blocks")
    t0 = time.perf_counter()
    rep = run(RunConfig.from_dict({**STD1, "emit_blocks": str(blocks)}))
    return rep, time.perf_counter() - t0


@pytest.fixture(scope="module")
def seeded_n2_run():
    ode = generate_instance(n=2, s=2, K_target=0.3, seed=7)
    cfg = instance_config(ode, T=1.0, epsilon=1e-2, seed=7)
    t0 = time.perf_counter()
    rep = run(cfg)
    return rep, time.perf_counter() - t0


# -- criterion 1: end-to-end correctness ----------------------------------

def test_criterion1_std1_end_to_end(std1_run):
    rep, elapsed = std1_run
    err = rep.errors["final_error"]
    # independent validation against the closed-form scalar oracle
    u_exact = bernoulli_closed_form(0.2, 0.5, 1.0)
    u_out = np.array(rep.measurement["u_out"])
    direct = float(np.linalg.norm(u_out - np.array([u_exact]) / abs(u_exact)))
    # for n = 1 u_out is [1.0] whatever the solver returns, so also compare
    # the un-normalized level-0 entry of the final block with zeta u(T)
    m, c, delta = (rep.parameters[key] for key in ("m", "c", "delta"))
    K, zeta = rep.nonlinearity["K"], rep.nonlinearity["zeta"]
    x_m0 = read_vector(Path(rep.config["emit_blocks"]) / f"x_{m:04d}_0.txt")
    level0_err = abs(x_m0[0] - zeta * u_exact)
    level0_bound = K ** (c + 2) / (1 - K) + delta
    ok = (err <= 1e-2 and direct <= 1e-2 and level0_err <= level0_bound
          and elapsed < 10.0 and rep.status == "pass")
    _line(1, "end-to-end STD1", ok,
          f"final_error={err:.3e} (oracle check {direct:.3e}) <= 1e-2, "
          f"level-0 |x_m0 - zeta u(T)| = {level0_err:.3e} <= {level0_bound:.3e}, "
          f"runtime {elapsed:.2f}s < 10s")
    assert ok


def test_criterion1_seeded_n2_end_to_end(seeded_n2_run):
    rep, elapsed = seeded_n2_run
    err = rep.errors["final_error"]
    ok = err <= 1e-2 and elapsed < 10.0 and rep.status == "pass"
    _line(1, "end-to-end seeded n=2 K=0.3", ok,
          f"final_error={err:.3e} <= 1e-2 vs DOP853 reference, "
          f"runtime {elapsed:.2f}s < 10s")
    assert ok
    assert rep.nonlinearity["K"] == pytest.approx(0.3, abs=1e-9)


# -- criterion 2: truncation-order decay -----------------------------------

@pytest.fixture(scope="module")
def order_sweep():
    return sweep(RunConfig.from_dict(STD1), "c", [0, 1, 2, 3, 4])


def test_criterion2_truncation_bound_every_order(order_sweep):
    errs = [row["measured_error"] for row in order_sweep]
    bounds = [row["bound"] for row in order_sweep]
    ok = all(e <= b + ABS_TOL for e, b in zip(errs, bounds))
    _line(2, "truncation error under geometric bound", ok,
          "measured " + ", ".join(f"{e:.3e}" for e in errs) +
          " below bounds " + ", ".join(f"{b:.3e}" for b in bounds))
    assert ok


def test_criterion2_geometric_ratio_window(order_sweep):
    errs = [row["measured_error"] for row in order_sweep]
    ratios = [lo / hi for lo, hi in zip(errs[1:], errs[:-1])]
    lo_edge = K_STD1 / 4.0
    ok = all(lo_edge <= r < 1.0 for r in ratios)
    _line(2, "consecutive-order ratio in [K/4, 1)", ok,
          f"ratios {', '.join(f'{r:.4f}' for r in ratios)} vs window "
          f"[{lo_edge:.3f}, 1)")
    # The measured ratio of consecutive truncation errors for this problem is
    # analytically (K/4)(1 - e^(-T)) ~ 0.0632: each cascade order carries the
    # closed form nu_i(t) = u0 e^(-t) (a u0 (1 - e^(-t)))^i, so consecutive
    # tails shrink by a u0 (1 - e^(-1)) = 0.1 * 0.6321, strictly below the
    # window's lower edge K/4 = 0.1.  The window as stated cannot contain it
    # for any finite T; the assertion is kept faithful to the stated check.
    assert ok, (
        f"measured ratios {ratios} fall below K/4 = {lo_edge}: the measured "
        f"decay rate is (K/4)(1 - e^-T) = {lo_edge * (1 - math.exp(-1.0)):.4f}, "
        "which lies outside the required window for every finite T"
    )


# -- criterion 3: per-step Taylor error ------------------------------------

def test_criterion3_step_error_decay():
    ode = generate_instance(n=2, s=2, K_target=0.2, seed=31, u_norm=1.0)
    sys = assemble_A(ode, 1)
    assert sys.index.N <= 500
    T = 1.9 / sys.norm_A
    m, h = step_counts(T, sys.norm_A)
    assert m == 2
    worst_by_k = {}
    for k in range(3, 9):
        assert 2 * m * 2 * 3 <= math.factorial(k + 1)
        params = TaylorSystemParams(
            c=1, h=h, m=m, k=k, p=m, d=m * (k + 1) + m, delta=1e-10,
            epsilon1=0.0, Omega=0.0, g_est=1.0, eta_est=1.0, eta_prime=0.0,
            norm_A=sys.norm_A, N=sys.index.N)
        C = assemble_C(sys.A, params)
        sol = solve_marching(C, sys.y_in)
        rows = step_errors_vs_expm(sys.A, sys.y_in, sol,
                                   dense_trajectory(sys.A, sys.y_in, h, m))
        worst_by_k[k] = max(r["measured"] - r["bound"] for r in rows)
    ok = all(v <= ABS_TOL for v in worst_by_k.values())
    _line(3, "per-step factorial error bound, k=3..8", ok,
          "max (measured - bound) per k: " +
          ", ".join(f"k={k}:{v:.2e}" for k, v in worst_by_k.items()))
    assert ok


# -- criterion 4: exponential norm bound ------------------------------------

def test_criterion4_exp_norm_bound_20_instances():
    combos = [(1, c) for c in range(1, 6)] + [(2, c) for c in range(1, 6)] + \
             [(3, c) for c in range(1, 4)] + [(4, c) for c in range(1, 4)] + \
             [(1, 6), (2, 4), (3, 4), (4, 2)]
    assert len(combos) == 20
    worst = 0.0
    for idx, (n, c) in enumerate(combos):
        K = 0.4
        # place (c+1)||F2|| at 95% of |Re lambda_1| to exercise the transient
        u_norm = K * (c + 1) / (4 * 0.95)
        ode = generate_instance(n=n, s=min(2, n * n), K_target=K,
                                seed=100 + idx, u_norm=u_norm)
        nl = compute_K(ode)
        assert (c + 1) * nl.norm_F2 <= abs(nl.re_lambda1) * (1 + 1e-9)
        sys = assemble_A(ode, c)
        N = sys.index.N
        assert N <= 2000
        E = dense_expm(sys.A.toarray() * 0.1)
        acc = np.eye(N)
        mx = 1.0   # t = 0 gives the identity
        for _ in range(10):
            acc = E @ acc
            if N <= 250:
                mx = max(mx, float(np.linalg.svd(acc, compute_uv=False)[0]))
            else:
                mx = max(mx, spectral_norm(acc))
        assert mx <= (c + 1) * (1 + 1e-6), (n, c)
        worst = max(worst, mx / (c + 1))
        # the closed-form log-norm bound certifies ||e^(At)|| <= 1 here, and
        # the dense products agree: no step norm rises above the identity's
        assert sys.log_norm_A_upper <= 0.0, (n, c)
        assert mx == 1.0, (n, c)
    _line(4, "||expm(At)|| <= c+1 on 20 seeded instances", True,
          f"worst measured/bound ratio {worst:.3f}")


# -- criterion 5: condition number bound -------------------------------------

def _kappa_case(n, c, seed, m_target, k, u_norm=1.0):
    ode = generate_instance(n=n, s=min(2, n * n), K_target=0.3,
                            seed=seed, u_norm=u_norm)
    sys = assemble_A(ode, c)
    m, h = step_counts((m_target - 0.1) / sys.norm_A, sys.norm_A)
    assert m == m_target
    params = TaylorSystemParams(
        c=c, h=h, m=m, k=k, p=m, d=m * (k + 1) + m, delta=1e-10,
        epsilon1=0.0, Omega=0.0, g_est=1.0, eta_est=1.0, eta_prime=0.0,
        norm_A=sys.norm_A, N=sys.index.N)
    size = (params.d + 1) * sys.index.N
    return sys.A, params, size


def test_criterion5_condition_number_bound():
    results = []
    # hand-checkable 4x4 system
    A = SparseMatrix.from_triplets(1, 1, [(0, 0, 0.5)])
    params = TaylorSystemParams(c=0, h=1.0, m=1, k=1, p=1, d=3, delta=1e-10,
                                epsilon1=0.0, Omega=0.0, g_est=1.0,
                                eta_est=1.0, eta_prime=0.0, norm_A=0.5, N=1)
    kappa = dense_condition_number(reference_C(A, params).toarray())
    measured = condition_report(params, A.shape[0], lambda: A)["measured"]
    bound = 2 * math.e * math.sqrt(params.k) * (params.m * (params.k + 1) + params.p) * (params.c + 2)
    results.append(("4x4", kappa, bound, 4))
    assert kappa == pytest.approx(6.332670303617229, rel=1e-9)
    assert measured == pytest.approx(kappa, rel=1e-10)
    assert kappa <= bound

    for case in [dict(n=2, c=1, seed=51, m_target=2, k=5),
                 dict(n=2, c=2, seed=52, m_target=3, k=6),
                 dict(n=1, c=3, seed=53, m_target=4, k=8),
                 dict(n=2, c=2, seed=54, m_target=5, k=13)]:
        A, params, size = _kappa_case(**case)
        assert size <= 2000, case
        kappa = dense_condition_number(reference_C(A, params).toarray())
        measured = condition_report(params, A.shape[0], lambda: A)["measured"]
        bound = 2 * math.e * math.sqrt(params.k) * (params.m * (params.k + 1) + params.p) * (params.c + 2)
        results.append((f"n={case['n']},c={case['c']},k={case['k']}", kappa, bound, size))
        assert measured == pytest.approx(kappa, rel=1e-10), case
        assert kappa <= bound, case

    _line(5, "kappa(C) under the explicit bound", True,
          "; ".join(f"{name} (size {size}): {kap:.1f} <= {b:.1f}"
                    for name, kap, b, size in results))


def test_criterion5_std1_pipeline_kappa(std1_run):
    rep, _ = std1_run
    row = [r for r in rep.bound_checks if r["check"] == "condition_number"][0]
    par = rep.parameters
    size = (par["d"] + 1) * par["N"]
    assert size <= 2000
    assert row["measured"] is not None
    assert row["measured"] <= row["bound"]
    # the operator route against a dense SVD of the same C
    solved, _, _ = rescaled_problem(build_ode(RunConfig.from_dict(STD1)))
    sys = assemble_A(solved, par["c"])
    params = TaylorSystemParams(
        c=par["c"], h=par["h"], m=par["m"], k=par["k"], p=par["p"], d=par["d"],
        delta=par["delta"], epsilon1=0.0, Omega=0.0, g_est=1.0, eta_est=1.0,
        eta_prime=0.0, norm_A=par["norm_A"], N=par["N"])
    kappa = dense_condition_number(reference_C(sys.A, params).toarray())
    assert row["measured"] == pytest.approx(kappa, rel=1e-10)
    _line(5, "kappa(C) on the STD1 run", True,
          f"size {size}: measured {row['measured']:.1f} <= bound {row['bound']:.1f}, "
          f"dense SVD {kappa:.1f}")


# -- criterion 6: acceptance probabilities ------------------------------------

def test_criterion6_probability_bounds(std1_run, seeded_n2_run):
    details = []
    for name, (rep, _) in (("STD1", std1_run), ("n=2", seeded_n2_run)):
        m = rep.measurement
        p, mm, g = rep.parameters["p"], rep.parameters["m"], rep.parameters["g"]
        p1_bound = 1.0 / (p + 77.0 * mm * g * g)
        assert m["p1_block_ratio"] >= p1_bound, name
        assert m["chi0_sq"] >= m["chi0_bound"], name
        assert 0 < m["p1_block_ratio"] <= 1.0
        assert 0 < m["chi0_sq"] <= 1.0
        details.append(
            f"{name}: p1 {m['p1_block_ratio']:.3e} >= {p1_bound:.3e}, "
            f"chi0^2 {m['chi0_sq']:.3f} >= {m['chi0_bound']:.3e}")
    _line(6, "post-selection probabilities above bounds", True, "; ".join(details))


# -- criterion 7: structural identities ----------------------------------------

def test_criterion7_structural_identities():
    for c in range(0, 11):
        beta = level_sizes(c)
        assert beta[0] == 1
        for i in range(1, c + 1):
            assert beta[i] == sum(math.comb(kk, i) for kk in range(i, c + 1))
        for n in range(1, 5):
            assert sum(n ** (i + 1) * beta[i] for i in range(c + 1)) == \
                total_dimension(n, c)
    for c in range(0, 9):
        index = build_index_map(c, 1)
        for i in range(c + 1):
            for j in range(index.beta[i]):
                assert index.rank(i, unrank(index, i, j)) == j
            assert unrank(index, i, 0) == tuple([0] * (i + 1))

    details = []
    for n, c, seed in [(1, 3, 61), (2, 2, 62), (2, 3, 63), (3, 2, 64)]:
        ode = generate_instance(n=n, s=min(2, n * n), K_target=0.35,
                                seed=seed, u_norm=1.0)
        sys = assemble_A(ode, c)
        rep = structural_report(sys, spectral_norm(ode.F2),
                                compute_K(ode).re_lambda1)
        assert rep["max_re_eigenvalue"] < 0, (n, c)
        # the block structure alone fixes the spectrum: compare with all of A's
        dense_max = float(np.linalg.eigvals(sys.A.toarray()).real.max())
        assert rep["max_re_eigenvalue"] == pytest.approx(dense_max, abs=1e-12), (n, c)
        assert rep["norm_A"] <= rep["norm_A_bound"] * (1 + 1e-9)
        assert rep["sparsity_within_witness"], (n, c)
        details.append(f"(n={n},c={c}): maxRe={rep['max_re_eigenvalue']:.2f}, "
                       f"||A||={rep['norm_A']:.2f}<={rep['norm_A_bound']:.2f}, "
                       f"nnz {max(rep['max_row_nnz'], rep['max_col_nnz'])}"
                       f"<={rep['sparsity_witness']}")
    _line(7, "beta/N identities, rank round-trips, spectrum, norm, sparsity",
          True, "; ".join(details))


# -- criterion 8: embedding consistency oracle ---------------------------------

def _fd_residual(ode, c, T, steps):
    casc = solve_cascade(ode, c, T, dt=T / steps)
    sys = assemble_A(ode, c)
    ys = np.stack([build_embedded_vector(sys.index, casc.nu[:, t, :])
                   for t in range(len(casc.ts))])
    h = casc.ts[1] - casc.ts[0]
    worst = 0.0
    for t in range(1, len(casc.ts) - 1):
        deriv = (ys[t + 1] - ys[t - 1]) / (2 * h)
        worst = max(worst, float(np.linalg.norm(deriv - (sys.A @ ys[t]))))
    return worst


def test_criterion8_embedding_consistency():
    details = []
    for n, c, seed in [(1, 2, 71), (2, 2, 72), (2, 3, 73)]:
        ode = generate_instance(n=n, s=min(2, n * n), K_target=0.3,
                                seed=seed, u_norm=0.4)
        coarse = _fd_residual(ode, c, 0.5, 50)
        fine = _fd_residual(ode, c, 0.5, 100)
        ratio = coarse / fine
        assert 3.0 <= ratio <= 5.0, (n, c, ratio)
        details.append(f"(n={n},c={c}): residual {coarse:.2e} -> {fine:.2e}, "
                       f"ratio {ratio:.2f}")
    _line(8, "d/dt of the stacked cascade matches A y to O(dt^2)", True,
          "; ".join(details))


# -- criterion 9: solver equivalence --------------------------------------------

def test_criterion9_solver_equivalence():
    details = []
    for n, c, seed, k in [(2, 2, 81, 8), (2, 3, 82, 10), (3, 3, 83, 9)]:
        ode = generate_instance(n=n, s=min(2, n * n), K_target=0.3,
                                seed=seed, u_norm=1.0)
        sys = assemble_A(ode, c)
        assert sys.index.N <= 500
        m, h = step_counts(1.0, sys.norm_A)
        params = TaylorSystemParams(
            c=c, h=h, m=m, k=k, p=m, d=m * (k + 1) + m, delta=1e-10,
            epsilon1=0.0, Omega=0.0, g_est=1.0, eta_est=1.0, eta_prime=0.0,
            norm_A=sys.norm_A, N=sys.index.N)
        C = assemble_C(sys.A, params)
        sol = solve_marching(C, sys.y_in)
        y = sys.y_in.copy()
        worst = 0.0
        for j in range(m + 1):
            worst = max(worst, float(np.linalg.norm(sol.step_solution(j) - y)))
            y = taylor_polynomial_apply(sys.A, h, k, y)
        assert worst <= 1e-10, (n, c, worst)
        details.append(f"(n={n},c={c},N={sys.index.N}): max diff {worst:.2e}")
    _line(9, "block solve equals iterated Taylor application", True,
          "; ".join(details))


# -- criterion 10: scalar and vector utility bounds ----------------------------------------------

def test_criterion10_scalar_grid():
    ts = np.linspace(0.0, 20.0, 10)
    gammas = [1.0, 1.5, 2.0, 3.0, 5.0]
    betas = [0.25, 0.5, 1.0, 1.5, 2.0]
    ms = [1, 2, 3, 5]
    points = checked = 0
    for t in ts:
        for gamma in gammas:
            for beta in betas:
                for m in ms:
                    points += 1
                    if gamma / beta < 1.0:
                        continue
                    checked += 1
                    val = poisson_tail_sum(beta, gamma, m, float(t))
                    assert val <= m * (1 + 1e-12), (t, gamma, beta, m)
    assert points == 1000
    _line(10, "scalar decay sums on a 1000-point grid", True,
          f"{checked} of {points} grid points satisfy gamma/beta >= 1; all bounded")


def test_criterion10_matrix_taylor_powers():
    rng = np.random.default_rng(90)
    worst = 0.0
    for trial in range(10):
        n = int(rng.integers(2, 6))
        q, r = np.linalg.qr(rng.normal(size=(n, n)))
        q = q * np.sign(np.diag(r))
        M = q @ np.diag(-rng.uniform(0.05, 1.0, n)) @ q.T
        res = taylor_power_error_check(M, Delta=1.0, k=5, steps=4)
        assert res["precondition_ok"] and res["pass"], trial
        worst = max(worst, res["measured"] / res["bound"])
    _line(10, "matrix exponential vs Taylor powers, 10 seeded matrices", True,
          f"worst measured/bound ratio {worst:.3f}")


def test_criterion10_vector_pair_bounds():
    rng = np.random.default_rng(91)
    for _ in range(1000):
        dim = int(rng.integers(1, 6))
        psi = rng.normal(size=dim)
        if np.linalg.norm(psi) == 0:
            continue
        phi = psi + rng.normal(size=dim) * rng.uniform(0, 0.3)
        alpha = np.linalg.norm(psi)
        beta = np.linalg.norm(psi - phi)
        lhs = np.linalg.norm(psi / alpha - phi / np.linalg.norm(phi))
        assert lhs <= normalized_difference_bound(alpha, beta) + 1e-12

    checked = 0
    while checked < 1000:
        dim = int(rng.integers(1, 5))
        def unit():
            v = rng.normal(size=dim)
            return v / np.linalg.norm(v)
        a_amp = rng.uniform(0.2, 1.0)
        b_amp = rng.uniform(0.0, 1.0)
        psi = np.concatenate([a_amp * unit(), math.sqrt(1 - a_amp**2) * unit()])
        phi = np.concatenate([b_amp * unit(), math.sqrt(1 - b_amp**2) * unit()])
        delta = float(np.linalg.norm(psi - phi))
        if delta >= a_amp:
            continue
        psi0 = psi[:dim] / a_amp
        phi0 = phi[:dim] / b_amp if b_amp > 0 else psi0
        assert np.linalg.norm(psi0 - phi0) <= \
            component_difference_bound(a_amp, delta) + 1e-12
        assert b_amp >= amplitude_lower_bound(a_amp, delta) - 1e-12
        checked += 1
    _line(10, "normalized-vector bounds on 1000 random pairs", True,
          "difference, component, and amplitude inequalities all hold")
