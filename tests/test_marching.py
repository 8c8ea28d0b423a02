import dataclasses
import math
import re

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hpmsim.cascade import truncation_bound
from hpmsim.embedding import assemble_A, assemble_A_sym, orbit_basis
import hpmsim.marching as marching
import hpmsim.sparse as sparse_mod
from hpmsim.errors import NumericalError, ValidationError
from hpmsim.marching import (
    MarchingOperator,
    TaylorSystemParams,
    _factor,
    assemble_C,
    choose_order,
    condition_report,
    expm_trajectory,
    select_parameters,
    solve_marching,
    step_counts,
    step_errors_vs_expm,
    taylor_order_for,
)
from hpmsim.ode import compute_K, make_ode, reference_solution, rescale
from hpmsim.pipeline import RunConfig, generate_instance, instance_config, run
from hpmsim.sparse import SparseMatrix, dense_expm, spectral_norm
from oracles import (
    dense_condition_number,
    dense_trajectory,
    marched_x,
    reference_C,
    taylor_polynomial_apply,
)


def tiny_params(N: int, m: int, k: int, p: int, h: float, c: int = 0,
                g: float = 1.0) -> TaylorSystemParams:
    return TaylorSystemParams(
        c=c, h=h, m=m, k=k, p=p, d=m * (k + 1) + p, delta=1e-10,
        epsilon1=0.0, Omega=0.0, g_est=g, eta_est=1.0, eta_prime=0.0,
        norm_A=0.0, N=N)


def std1_scaled():
    F1 = SparseMatrix.from_triplets(1, 1, [(0, 0, -1.0)])
    F2 = SparseMatrix.from_triplets(1, 1, [(0, 0, 0.2)])
    return rescale(make_ode(1, F1, F2, [0.5]), 0.8)


def stable_system(n: int, c: int, seed: int, f2_scale: float = 0.05):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    q = q * np.sign(np.diag(r))
    F1 = SparseMatrix(q @ np.diag(-rng.uniform(0.8, 1.5, n)) @ q.T)
    F2 = SparseMatrix(rng.normal(size=(n, n * n)) * f2_scale)
    ode = make_ode(n, F1, F2, rng.normal(size=n) * 0.3)
    return ode, assemble_A(ode, c)


# -- the hand-checkable 4x4 system ----------------------------------------

def test_assemble_C_4x4_exact():
    a = 0.5
    A = SparseMatrix.from_triplets(1, 1, [(0, 0, a)])
    params = tiny_params(N=1, m=1, k=1, p=1, h=1.0)
    C = assemble_C(A, params)
    expected = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [-a, 1.0, 0.0, 0.0],
        [-1.0, -1.0, 1.0, 0.0],
        [0.0, 0.0, -1.0, 1.0],
    ])
    assert np.array_equal(C @ np.eye(4), expected)
    assert np.array_equal(reference_C(A, params).toarray(), expected)


def test_solve_4x4_forward_substitution_by_hand():
    a, y0 = 0.5, 2.0
    A = SparseMatrix.from_triplets(1, 1, [(0, 0, a)])
    params = tiny_params(N=1, m=1, k=1, p=1, h=1.0)
    C = assemble_C(A, params)
    sol = solve_marching(C, np.array([y0]))
    x = marched_x(C, np.array([y0]))
    assert x == pytest.approx([y0, a * y0, (1 + a) * y0, (1 + a) * y0], abs=1e-14)
    # block (1, 0) is T_1(a) y0
    assert sol.step_solution(1)[0] == pytest.approx((1 + a) * y0, abs=1e-14)


def test_zero_matrix_pure_copying():
    A = SparseMatrix.from_triplets(3, 3, [])
    params = tiny_params(N=3, m=2, k=2, p=2, h=0.5)
    C = assemble_C(A, params)
    y = np.array([1.0, -2.0, 3.0])
    sol = solve_marching(C, y)
    for i in range(3):
        assert np.array_equal(sol.step_solution(i), y)


def test_first_block_bit_for_bit():
    ode, sys = stable_system(2, 1, seed=4)
    m, h = step_counts(1.0, sys.norm_A)
    params = tiny_params(N=sys.index.N, m=m, k=6, p=m, h=h, c=1)
    C = assemble_C(sys.A, params)
    sol = solve_marching(C, sys.y_in)
    assert np.array_equal(sol.step_solution(0), sys.y_in)


def test_copy_blocks_identical():
    ode, sys = stable_system(2, 1, seed=4)
    m, h = step_counts(1.0, sys.norm_A)
    params = tiny_params(N=sys.index.N, m=m, k=6, p=3, h=h, c=1)
    C = assemble_C(sys.A, params)
    sol = solve_marching(C, sys.y_in)
    assert np.array_equal(sol.extract_final(), sol.step_solution(params.m))
    # the march forms no copy tail: the copies of x_{m,0} solve C's copy rows
    x = marched_x(C, sys.y_in)
    rhs = np.zeros(C.shape[0])
    rhs[:sys.index.N] = sys.y_in
    tail = (C @ x - rhs)[params.m * (params.k + 1) * sys.index.N:]
    assert np.abs(tail).max() <= 1e-14 * np.linalg.norm(sys.y_in)
    assert np.count_nonzero(tail[sys.index.N:]) == 0


def test_step_equivalence_recurrences():
    # x_{i,j} = (A h / j) x_{i,j-1} and x_{i+1,0} = sum_j x_{i,j}
    ode, sys = stable_system(2, 2, seed=12)
    m, h = step_counts(1.5, sys.norm_A)
    params = tiny_params(N=sys.index.N, m=m, k=5, p=m, h=h, c=2)
    C = assemble_C(sys.A, params)
    X = marched_x(C, sys.y_in).reshape(params.d + 1, sys.index.N)
    for i in range(m):
        acc = np.zeros(sys.index.N)
        for j in range(params.k + 1):
            blk = X[i * (params.k + 1) + j]
            acc += blk
            if j >= 1:
                pred = (sys.A @ X[i * (params.k + 1) + j - 1]) * (h / j)
                assert np.allclose(blk, pred, atol=1e-13)
        nxt = X[(i + 1) * (params.k + 1)]
        assert np.allclose(nxt, acc, atol=1e-13)


def test_solution_matches_taylor_power_iteration():
    # independent oracle: apply T_k(Ah) j times directly
    ode, sys = stable_system(2, 2, seed=12)
    m, h = step_counts(1.5, sys.norm_A)
    params = tiny_params(N=sys.index.N, m=m, k=8, p=m, h=h, c=2)
    C = assemble_C(sys.A, params)
    sol = solve_marching(C, sys.y_in)
    y = sys.y_in.copy()
    for j in range(m + 1):
        assert np.linalg.norm(sol.step_solution(j) - y) <= 1e-10
        y = taylor_polynomial_apply(sys.A, h, params.k, y)


def test_forward_and_iterative_agree():
    ode, sys = stable_system(2, 1, seed=6)
    m, h = step_counts(1.0, sys.norm_A)
    params = tiny_params(N=sys.index.N, m=m, k=6, p=m, h=h, c=1)
    C = assemble_C(sys.A, params)
    a = solve_marching(C, sys.y_in, solver="forward")
    b = solve_marching(C, sys.y_in, solver="iterative")
    assert_same_fields(a, b, 1e-12)


@pytest.mark.parametrize("solver", marching.SOLVERS)
@pytest.mark.parametrize("n, c, seed", [(1, 3, 1), (2, 1, 2), (2, 3, 3), (3, 2, 4), (3, 3, 5)])
def test_the_orbit_solve_is_the_full_solve(n, c, seed, solver):
    # solve_marching on A_sym from the restricted y_in, expanded, against
    # solve_marching on the full A from y_in itself
    ode, sys = stable_system(n, c, seed)
    m, h = step_counts(1.0, sys.norm_A)
    params = tiny_params(N=sys.index.N, m=m, k=8, p=m, h=h, c=c)
    full = solve_marching(assemble_C(sys.A, params), sys.y_in, solver=solver)
    basis = orbit_basis(sys.index)
    C = assemble_C(assemble_A_sym(ode, sys, basis), params)
    assert C.N == basis.reps.size < sys.index.N
    sym = solve_marching(C, basis.restrict(sys.y_in), solver=solver)
    assert sym.exponent == full.exponent and sym.iterations == full.iterations
    for got, want in ((basis.expand(sym.starts), full.starts),
                      (basis.expand(sym.final), full.final)):
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
    assert abs(sym.norm_sq - full.norm_sq) <= 1e-14 * full.norm_sq


def assert_same_fields(a, b, rtol: float) -> None:
    """The fields of two solutions of one system agree within rtol."""
    scale = max(1.0, math.sqrt(a.norm_sq))
    assert a.exponent == b.exponent
    assert np.linalg.norm(a.starts - b.starts) <= rtol * scale
    assert np.linalg.norm(a.final - b.final) <= rtol * scale
    assert abs(a.norm_sq - b.norm_sq) <= rtol * a.norm_sq


def test_unknown_solver_rejected():
    A = SparseMatrix.from_triplets(1, 1, [])
    params = tiny_params(N=1, m=1, k=1, p=1, h=0.0)
    C = assemble_C(A, params)
    with pytest.raises(ValidationError):
        solve_marching(C, np.array([1.0]), solver="magic")


@pytest.mark.parametrize("norm_sq, residual", [(math.inf, 0.0), (math.nan, 0.0),
                                                (1.0, math.nan), (1.0, math.inf)])
def test_solve_refuses_a_nan_residual_or_a_non_finite_norm(monkeypatch, norm_sq, residual):
    # the copy tail adds (p+1) ||x_{m,0}||^2 to ||x||^2 with no row check of its
    # own, and NaN compares False with any target
    A = SparseMatrix.from_triplets(1, 1, [])
    params = tiny_params(N=1, m=1, k=1, p=1, h=1.0)
    C = assemble_C(A, params)
    monkeypatch.setattr(marching, "_forward_fold", lambda C, y: (
        np.ones((2, 1)), np.ones(1), norm_sq, residual))
    with pytest.raises(NumericalError, match="residual" if norm_sq == 1.0 else r"\|\|x\|\|"):
        solve_marching(C, np.array([1.0]))


def test_final_block_near_matrix_exponential():
    ode, sys = stable_system(2, 2, seed=12)
    T = 1.5
    m, h = step_counts(T, sys.norm_A)
    params = tiny_params(N=sys.index.N, m=m, k=8, p=m, h=h, c=2)
    C = assemble_C(sys.A, params)
    sol = solve_marching(C, sys.y_in)
    exact = dense_expm(sys.A.toarray() * (m * h)) @ sys.y_in
    err = np.linalg.norm(exact - sol.extract_final())
    bound = 2 * m * 3 * 4 * np.linalg.norm(sys.y_in) / math.factorial(9)
    assert err <= bound


def test_step_errors_bounded_every_step():
    ode, sys = stable_system(2, 1, seed=4)
    m, h = step_counts(1.9 / sys.norm_A, sys.norm_A)
    params = tiny_params(N=sys.index.N, m=m, k=5, p=m, h=h, c=1)
    C = assemble_C(sys.A, params)
    sol = solve_marching(C, sys.y_in)
    rows = step_errors_vs_expm(sys.A, sys.y_in, sol,
                               dense_trajectory(sys.A, sys.y_in, h, m))
    assert len(rows) == m + 1
    assert rows[0]["measured"] == 0.0
    for row in rows:
        assert row["measured"] <= row["bound"] + 1e-9


def test_expm_trajectory_ignores_the_global_generator():
    # expm_multiply's onenormest draws from numpy's global generator; for this
    # matrix and horizon the draws change its step choice, and with it the
    # last bits of the result, unless the sweep seeds the generator itself
    rng = np.random.default_rng(20)
    A = sp.random_array((60, 60), density=0.2, rng=rng, format="csr")
    A.data = rng.normal(size=A.data.size)
    A = A.tocsr() - 2.0 * sp.eye_array(60, format="csr")
    y = np.ones(60)
    raw, ours = set(), set()
    for seed in range(5):
        np.random.seed(seed)
        raw.add(spla.expm_multiply(A, y, start=0.0, stop=20.0, num=11, endpoint=True).tobytes())
        np.random.seed(seed)
        ours.add(expm_trajectory(A, y, 2.0, 10).tobytes())
        # the caller's generator state is put back
        after = np.random.get_state()[1]
        np.random.seed(seed)
        assert np.array_equal(after, np.random.get_state()[1])
    assert len(raw) > 1
    assert len(ours) == 1


# -- the operator against an explicitly built marching matrix ---------------

def random_A(N: int, seed: int, normal: bool) -> sp.csr_array:
    rng = np.random.default_rng(seed)
    if normal:
        q, _ = np.linalg.qr(rng.normal(size=(N, N)))
        dense = q @ np.diag(-rng.uniform(0.5, 1.5, N)) @ q.T
    else:
        # strictly upper part makes it non-normal; sparsify the rest
        dense = np.triu(rng.normal(size=(N, N)) * 2.0, 1) - np.diag(rng.uniform(0.5, 1.5, N))
        dense[rng.random((N, N)) < 0.4] = 0.0
    return sp.csr_array(dense)


OPERATOR_CASES = [
    dict(N=1, m=1, k=1, p=1, seed=0, normal=True),
    dict(N=3, m=2, k=5, p=2, seed=1, normal=False),
    dict(N=4, m=3, k=6, p=1, seed=2, normal=True),
    dict(N=5, m=2, k=7, p=4, seed=3, normal=False),
    dict(N=1, m=2, k=3, p=2, seed=5, normal=True),
    dict(N=2, m=3, k=4, p=1, seed=6, normal=False),
    dict(N=3, m=2, k=6, p=3, seed=7, normal=False),
    dict(N=3, m=1, k=5, p=2, seed=8, normal=True),
]


def operator_case(case) -> tuple[sp.csr_array, TaylorSystemParams]:
    A = random_A(case["N"], case["seed"], case["normal"])
    h = 0.9 / max(np.linalg.norm(A.toarray(), 2), 1e-12)
    return A, tiny_params(N=A.shape[0], m=case["m"], k=case["k"], p=case["p"], h=h)


@pytest.mark.parametrize("case", OPERATOR_CASES)
def test_operator_matches_reference_matrix(case):
    A, params = operator_case(case)
    C = assemble_C(A, params)
    ref = reference_C(A, params)
    assert C.shape == ref.shape
    assert C.nnz == ref.nnz
    assert np.array_equal(C @ np.eye(C.shape[0]), ref.toarray())
    rng = np.random.default_rng(case["seed"] + 100)
    v = rng.normal(size=C.shape[0])
    assert np.allclose(C @ v, ref @ v, rtol=0.0, atol=1e-13 * np.linalg.norm(v))
    V = rng.normal(size=(C.shape[0], 3))
    assert np.allclose(C @ V, ref @ V, rtol=0.0, atol=1e-13 * np.linalg.norm(V))
    y = rng.normal(size=A.shape[0])
    rhs = np.zeros(C.shape[0])
    rhs[:A.shape[0]] = y
    expected = spla.spsolve_triangular(ref, rhs, lower=True)
    assert np.linalg.norm(marched_x(C, y) - expected) <= 1e-12 * np.linalg.norm(expected)


def assert_same_csr(got: sp.csr_array, want: sp.csr_array) -> None:
    assert got.format == "csr" and got.shape == want.shape and got.nnz == want.nnz
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr


@pytest.mark.parametrize("case", OPERATOR_CASES)
def test_tocsr_is_the_reference_matrix_entry_for_entry(case):
    A, params = operator_case(case)
    C = assemble_C(A, params)
    Cs = C.tocsr()
    assert_same_csr(Cs, reference_C(A, params))
    assert Cs.nnz == C.nnz
    assert np.array_equal(Cs.toarray(), C @ np.eye(C.shape[0]))


def test_tocsr_keeps_zero_couplings_and_a_zero_A():
    A, params = operator_case(OPERATOR_CASES[1])
    # h = 0 makes every coupling -A h/j zero; they stay stored, as in the oracle
    for A, params in ((A, dataclasses.replace(params, h=0.0)),
                      (SparseMatrix.from_triplets(3, 3, []), params)):
        C = assemble_C(A, params)
        assert_same_csr(C.tocsr(), reference_C(A, params))
        assert C.tocsr().nnz == C.nnz


@pytest.mark.parametrize("case", OPERATOR_CASES)
def test_factor_of_C_has_no_fill_and_applies_its_inverse(case):
    A, params = operator_case(case)
    Cs = assemble_C(A, params).tocsr()
    size = Cs.shape[0]
    lu = _factor(Cs)
    # unit lower triangular C factors in its own order as L = C, U = I
    assert np.array_equal(lu.perm_r, np.arange(size))
    assert np.array_equal(lu.perm_c, np.arange(size))
    assert lu.L.nnz == Cs.nnz and lu.U.nnz == size
    # C^{-1} and C^{-T} on a vector and on a block of three
    dense_inv = np.linalg.inv(reference_C(A, params).toarray())
    rng = np.random.default_rng(case["seed"] + 200)
    for x in (rng.normal(size=size), rng.normal(size=(size, 3))):
        for got, want in ((lu.solve(x), dense_inv @ x),
                          (lu.solve(x, trans="T"), dense_inv.T @ x)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("r", [1, 3])
@pytest.mark.parametrize("steps", [1, 2])
def test_chunked_products_match_reference_matrix(steps, r):
    # m = 5 steps, each order one product of A with the (N, m) stack of the
    # steps' blocks; the copy tail of p = 9 blocks follows in one subtraction.
    # The kernel on chunks of one step, or of two with one step left over,
    # fills in Taylor terms that zero every coupling row of the explicit matrix
    A = random_A(4, seed=9, normal=False)
    params = tiny_params(N=4, m=5, k=3, p=9, h=0.2)
    m, k = params.m, params.k
    C = assemble_C(A, params)
    ref = reference_C(A, params)
    rng = np.random.default_rng(steps + 10 * r)
    x = rng.normal(size=(C.shape[0], r)).squeeze()
    got, want = C @ x, ref @ x
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    X = rng.normal(size=(m, k + 1, 4))
    for i0 in range(0, m, steps):
        C._taylor(X[i0:i0 + steps].transpose(1, 2, 0))
    v = np.zeros(C.shape[0])
    v[:X.size] = X.ravel()
    rows = (ref @ v)[:X.size].reshape(m, k + 1, 4)
    assert np.abs(rows[:, 1:]).max() <= 1e-14 * np.abs(X).max()


GMRES_RUNS = {
    "std1": lambda: RunConfig.from_dict({
        "n": 1, "T": 1.0, "epsilon": 1e-2, "u_in": [0.5], "F1_triplets": [[0, 0, -1.0]],
        "F2_triplets": [[0, 0, 0.2]], "solver": "iterative"}),
    "gen2": lambda: instance_config(generate_instance(2, 2, 0.3, 7), 1.0, 1e-2,
                                    solver="iterative"),
}


def spy_solve(monkeypatch) -> dict:
    """Patches `solve_marching` to record the C and y_in of the run's solve."""
    solve, seen = marching.solve_marching, {}

    def spy(C, y_in, **kwargs):
        seen.update(C=C, y_in=y_in)
        return solve(C, y_in, **kwargs)

    monkeypatch.setattr(marching, "solve_marching", spy)
    return seen


@pytest.mark.parametrize("block", [1, None])
@pytest.mark.parametrize("name", sorted(GMRES_RUNS))
def test_gmres_residual_refuses_a_perturbed_x(monkeypatch, name, block):
    # GMRES's x, its block x_{0,1} alone or all of it, scaled by
    # 1 + 1e-6 cos j: the residual C @ x - e_0 kron y misses the target, and
    # the message prints it as the explicit matrix gives it (gen2's C,
    # 11,396 square, is 1 GiB dense: it stays sparse).  C and y come from
    # the run: GMRES itself sees I - D^{-1} L and D^{-1} rhs
    gmres, seen = spla.gmres, spy_solve(monkeypatch)

    def perturbed(op, b, **kwargs):
        x, _ = gmres(op, b, **kwargs)
        scale = 1.0 + 1e-6 * np.cos(np.arange(x.size))
        if block is not None:
            N = seen["C"].N
            scale[:block * N] = scale[(block + 1) * N:] = 1.0
        seen["x"] = x * scale
        return seen["x"], 0

    monkeypatch.setattr(spla, "gmres", perturbed)
    with pytest.raises(NumericalError, match="residual") as info:
        run(GMRES_RUNS[name]())
    assert info.value.stage == "solve"
    C, y_in = seen["C"], seen["y_in"]
    # the solve takes y_in scaled by a power of two into [1/2, 1)
    y = np.ldexp(y_in, -np.frexp(np.abs(y_in).max())[1])
    rhs = np.zeros(C.shape[0])
    rhs[:y.size] = y
    want = np.linalg.norm(reference_C(C.A, C.params) @ seen["x"] - rhs) / np.linalg.norm(rhs)
    printed = float(re.search(r"residual (\S+) misses", str(info.value)).group(1))
    # .3e keeps four digits: within half a unit of the fourth
    assert abs(printed - want) <= 5e-4 * want


# the k = 0 case has steps of one block and no coupling rows
FOLD_CASES = [*OPERATOR_CASES, dict(N=2, m=4, k=0, p=3, seed=9, normal=False)]


@pytest.mark.parametrize("steps", [*range(1, 8), None])
def test_forward_fold_keeps_the_blocks_of_the_marched_x(steps):
    # every case marched over 1-7 steps, or over its own m
    for case in FOLD_CASES:
        if steps is not None:
            case = dict(case, m=steps)
        A, params = operator_case(case)
        C = assemble_C(A, params)
        m, k, N = params.m, params.k, A.shape[0]
        y = np.random.default_rng(case["seed"] + 300).normal(size=N)
        y *= 3.0 / np.abs(y).max()          # solved as y / 4
        sol = solve_marching(C, y)
        assert sol.iterations is None and sol.exponent == 2
        X = marched_x(C, np.ldexp(y, -sol.exponent)).reshape(params.d + 1, N)
        assert np.array_equal(sol.starts, X[:m * (k + 1) + 1:k + 1])
        assert np.array_equal(sol.final, X[-1])
        want = math.fsum((X * X).ravel())
        assert abs(sol.norm_sq - want) <= 1e-15 * want
        assert np.array_equal(sol.step_solution(m), np.ldexp(X[m * (k + 1)], 2))
        assert sol.residual <= 1e-13


@pytest.mark.parametrize("scaled", ["block", "carry"])
@pytest.mark.parametrize("name", sorted(GMRES_RUNS))
def test_forward_probe_refuses_a_march_off_by_1e_9(monkeypatch, name, scaled):
    # after the first step is marched, its coupling block x_{0,1} or the
    # carry it yields is scaled by 1 + 1e-9; the march goes on from its own
    # clean values.  The carry reaches only the probe's summation rows
    march = MarchingOperator.march

    def perturbed(self, y_in):
        for i, X, carry in march(self, y_in):
            if i == 0 and scaled == "block":
                X[1] *= 1.0 + 1e-9
            elif i == 0:
                carry = carry * (1.0 + 1e-9)
            yield i, X, carry

    monkeypatch.setattr(MarchingOperator, "march", perturbed)
    with pytest.raises(NumericalError, match="solver 'forward' residual") as info:
        run(dataclasses.replace(GMRES_RUNS[name](), solver="forward"))
    assert info.value.stage == "solve"


@pytest.mark.parametrize("solver", ["forward", "iterative"])
@pytest.mark.parametrize("name", sorted(GMRES_RUNS))
def test_a_taylor_kernel_off_by_1e_9_is_refused(monkeypatch, name, solver):
    # the kernel scales its first term by 1 + 1e-9 wherever it runs.  The
    # forward probe sees the march's coupling rows miss; GMRES solves
    # (D' - L) x = e_0 kron y for the kernel's D', and its exact residual,
    # through C's own products with A, misses by (D - D') x
    taylor = MarchingOperator._taylor

    def defective(self, X):
        taylor(self, X)
        X[1] *= 1.0 + 1e-9

    monkeypatch.setattr(MarchingOperator, "_taylor", defective)
    with pytest.raises(NumericalError, match=f"solver '{solver}' residual") as info:
        run(dataclasses.replace(GMRES_RUNS[name](), solver=solver))
    assert info.value.stage == "solve"


def test_forward_probe_passes_a_march_that_underflows():
    # k = 200 at ||A h|| <= 1: the Taylor terms fall through the subnormal
    # range to zero, where rounding errors are absolute, not relative; the
    # underflow floor on each normaliser keeps the clean march within target
    config = dataclasses.replace(GMRES_RUNS["std1"](), solver="forward", k=200, force=True)
    rep = run(config)
    assert rep.status == "pass"
    assert 0.0 < rep.solver["residual"] < 1e-13


@pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
@pytest.mark.parametrize("case", OPERATOR_CASES)
def test_gmres_fields_match_the_forward_fold(case, scale):
    # both take the fields on y_in scaled into [1/2, 1): a y_in of 1e-300 or
    # 1e300 has ||x||^2 neither underflow nor overflow
    A, params = operator_case(case)
    C = assemble_C(A, params)
    y = np.random.default_rng(case["seed"] + 400).normal(size=A.shape[0]) * scale
    fwd = solve_marching(C, y, solver="forward")
    it = solve_marching(C, y, solver="iterative")
    assert_same_fields(fwd, it, 1e-12)
    assert 0.0 < fwd.norm_sq < math.inf
    assert fwd.residual <= 1e-12 and it.residual <= 1e-12


@pytest.mark.parametrize("case", OPERATOR_CASES)
def test_preconditioned_operator_matches_dense(case):
    A, params = operator_case(case)
    C = assemble_C(A, params)
    size, N, m, k = C.shape[0], A.shape[0], params.m, params.k
    # group of each row and column: step i for blocks i(k+1)..i(k+1)+k, m for the tail
    group = np.minimum(np.arange(size) // N // (k + 1), m)
    dense = reference_C(A, params).toarray()
    D = np.where(group[:, None] == group[None, :], dense, 0.0)
    L = D - dense
    # C = D - L differs from D only in the summation rows
    assert np.count_nonzero(L) == m * (k + 1) * N
    want = np.eye(size) - np.linalg.solve(D, L)
    got = np.column_stack([C._preconditioned(e) for e in np.eye(size)])
    assert np.abs(got - want).max() <= 1e-13
    v = np.random.default_rng(case["seed"]).normal(size=size)
    assert np.abs(C._preconditioned(v) - want @ v).max() <= 1e-13 * np.linalg.norm(v)
    # D^{-1} (e_0 kron y) is the kernel on step 0 alone
    rhs = np.zeros(size)
    rhs[:N] = v[:N]
    head = np.zeros((k + 1, N))
    head[0] = v[:N]
    C._taylor(head)
    assert np.abs(head.ravel() - np.linalg.solve(D, rhs)[:(k + 1) * N]).max() \
        <= 1e-13 * np.linalg.norm(v[:N])


@pytest.mark.parametrize("T", [0.0, 0.5, 1.5])
@pytest.mark.parametrize("c", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_preconditioned_gmres_ends_within_m_plus_1_iterations(n, c, T):
    # D^{-1} C = I - D^{-1} L with (D^{-1} L)^{m+1} = 0, L the summation rows
    ode, sys = stable_system(n, c, seed=10 * n + c)
    m, h = step_counts(T, sys.norm_A)
    for k in (1, 5, 9):
        params = tiny_params(N=sys.index.N, m=m, k=k, p=m + 1, h=h, c=c)
        C = assemble_C(sys.A, params)
        sol = solve_marching(C, sys.y_in, solver="iterative")
        assert 1 <= sol.iterations <= m + 1
        X = marched_x(C, np.ldexp(sys.y_in, -sol.exponent)).reshape(params.d + 1, -1)
        x_norm = np.linalg.norm(X)
        assert np.linalg.norm(sol.starts - X[:m * (k + 1) + 1:k + 1]) <= 1e-12 * x_norm
        assert np.linalg.norm(sol.final - X[-1]) <= 1e-12 * x_norm
        assert abs(sol.norm_sq - x_norm ** 2) <= 1e-12 * x_norm ** 2


def test_gmres_runs_on_the_preconditioned_operator_with_one_product_with_C(monkeypatch):
    # GMRES applies I - D^{-1} L, each product one `_taylor` over all steps;
    # the solve's one product with C is its exact residual
    ode, sys = stable_system(2, 1, seed=6)
    m, h = step_counts(1.0, sys.norm_A)
    params = tiny_params(N=sys.index.N, m=m, k=6, p=m, h=h, c=1)
    C = assemble_C(sys.A, params)
    calls, products = [], []
    gmres, matvec = spla.gmres, MarchingOperator._matvec

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return gmres(*args, **kwargs)

    def counted(self, x):
        products.append(x.shape)
        return matvec(self, x)

    monkeypatch.setattr(spla, "gmres", spy)
    monkeypatch.setattr(MarchingOperator, "_matvec", counted)
    sol = solve_marching(C, sys.y_in, solver="iterative")
    [((op, b), kwargs)] = calls
    assert products == [(C.shape[0],)]
    assert 1 <= sol.iterations <= m + 1
    assert kwargs["restart"] == params.m + 2 and "M" not in kwargs
    v = np.random.default_rng(0).normal(size=C.shape[0])
    assert np.array_equal(op @ v, C._preconditioned(v))


@pytest.mark.parametrize("case", OPERATOR_CASES)
def test_condition_report_matches_dense_svd(case):
    A, params = operator_case(case)
    rep = condition_report(assemble_C(A, params))
    dense = dense_condition_number(reference_C(A, params).toarray())
    assert rep["measured"] == pytest.approx(dense, rel=1e-10)


@pytest.mark.parametrize("which", ["C", "inverse"])
def test_condition_report_refuses_estimate_below_certificate(monkeypatch, which):
    A = random_A(3, 1, normal=False)
    params = tiny_params(N=3, m=2, k=5, p=2, h=0.3)
    C = assemble_C(A, params)
    real_svds = sparse_mod.svds
    calls = []

    def short_svds(op, **kw):
        calls.append(op)
        sig = real_svds(op, **kw)
        # ||C|| is estimated first, then ||C^{-1}||
        return sig * 1e-6 if len(calls) == (1 if which == "C" else 2) else sig

    monkeypatch.setattr(sparse_mod, "svds", short_svds)
    with pytest.raises(NumericalError, match="below its certified lower bound"):
        condition_report(C)


@pytest.mark.parametrize("case", OPERATOR_CASES)
def test_norm_floor_is_largest_row_or_column_norm(monkeypatch, case):
    # ||C|| is certified by the sparse branch of spectral_norm on C.tocsr():
    # an estimate a hair below the largest row or column norm is refused
    A, params = operator_case(case)
    real_svds = sparse_mod.svds
    # ||A h|| = 2.7 lets a column outweigh the k + 2 of a summation row
    for params in (params, dataclasses.replace(params, h=3.0 * params.h)):
        ref = reference_C(A, params)
        sq = ref.multiply(ref)
        exact = math.sqrt(max(sq.sum(axis=0).max(), sq.sum(axis=1).max()))
        Cs = assemble_C(A, params).tocsr()
        norm = spectral_norm(Cs)
        for factor in (1.0 - 1e-9, 1.0 + 1e-9):
            # svds sees C scaled by a power of two; the ratio is scale-free
            monkeypatch.setattr(sparse_mod, "svds", lambda op, f=factor, **kw:
                                real_svds(op, **kw) * (exact / norm) * f)
            if factor < 1.0:
                with pytest.raises(NumericalError, match="below its certified"):
                    spectral_norm(Cs)
            else:
                assert spectral_norm(Cs) == pytest.approx(exact * factor, rel=1e-14)
        monkeypatch.setattr(sparse_mod, "svds", real_svds)


def test_condition_report_takes_no_product_through_the_operator(monkeypatch):
    A, params = operator_case(OPERATOR_CASES[3])
    C = assemble_C(A, params)
    want = condition_report(C)

    def refuse(*args, **kwargs):
        raise AssertionError("a product through the marching operator")

    for name in ("_matvec", "_taylor", "march"):
        monkeypatch.setattr(MarchingOperator, name, refuse)
    got = condition_report(C)
    assert got == want and got["measured"] is not None
    # over the cap C is never assembled, and the row is skipped
    monkeypatch.setattr(MarchingOperator, "tocsr", refuse)
    size = C.shape[0]
    skipped = condition_report(C, dense_cap=size * size - 1)
    assert skipped == {"bound": want["bound"], "measured": None}


def test_spectral_norm_of_operator_needs_lower_bound():
    C = assemble_C(random_A(2, 0, normal=True), tiny_params(N=2, m=1, k=2, p=1, h=0.5))
    with pytest.raises(ValidationError, match="lower bound"):
        spectral_norm(C)


# -- parameter selection ----------------------------------------------------

def test_step_counts_ceiling():
    m, h = step_counts(1.0, 2.2)
    assert (m, h) == (3, pytest.approx(1.0 / 3.0))
    assert step_counts(0.0, 5.0) == (1, 0.0)
    assert step_counts(2.0, 0.4) == (1, 2.0)


def test_taylor_order_factorial_postcondition():
    for omega in (1.0, 10.0, 1e4, 1e9, 6.2e9, 1e15):
        k = taylor_order_for(omega)
        assert math.factorial(k + 1) >= omega
        assert k >= 5


def test_choose_order_std1_cross_check():
    ode = std1_scaled()
    nl = compute_K(ode)
    u_T, _ = reference_solution(ode, 1.0)
    eta = nl.norm_u_in / np.linalg.norm(u_T)
    eps = 1e-2
    sel = choose_order(nl.K, eps, eta, nl.norm_u_in, nl.norm_F2, nl.re_lambda1)
    # formula value, recomputed independently
    arg = 4 * nl.norm_u_in / ((1 - nl.K) * eps * eta)
    assert sel.c_formula == math.ceil(math.log(arg) / math.log(1 / nl.K))
    # brute-force scan against the epsilon1 budget
    scan = 0
    while truncation_bound(nl.K, scan) > sel.epsilon1:
        scan += 1
    assert sel.c_scan == scan
    assert sel.c_required == max(sel.c_formula, sel.c_scan)
    # the exp-norm cap binds for this instance: (c+1) 0.25 <= 1 forces c <= 3
    assert sel.c_cap == 3
    assert sel.c == 3
    assert not sel.certified


def test_choose_order_rejects_strong_nonlinearity():
    with pytest.raises(ValidationError, match="nonlinearity too strong"):
        choose_order(0.75, 1e-2, 2.0, 0.75, 0.1, -1.0)


def test_choose_order_rejects_epsilon_too_large():
    ode = std1_scaled()
    nl = compute_K(ode)
    with pytest.raises(ValidationError, match="budget"):
        choose_order(nl.K, 0.5, 2.5, nl.norm_u_in, nl.norm_F2, nl.re_lambda1)


def test_choose_order_rejects_f2_over_lambda():
    with pytest.raises(ValidationError, match="exponential-norm"):
        choose_order(0.5, 1e-3, 2.0, 0.25, 1.5, -1.0)


def test_choose_order_linear():
    sel = choose_order(0.0, 1e-3, 2.0, 0.5, 0.0, -1.0)
    assert sel.c == 0 and sel.certified


def _std1_order_args():
    nl = compute_K(std1_scaled())
    return nl, (nl.K, 1e-2, 2.5, nl.norm_u_in, nl.norm_F2, nl.re_lambda1)


def test_choose_order_over_cap_override_needs_force():
    _, args = _std1_order_args()
    with pytest.raises(ValidationError, match="override c = 5 violates the exponential-norm"):
        choose_order(*args, c=5)
    sel = choose_order(*args, c=5, force=True)
    assert sel.c == 5 and sel.c_cap == 3
    assert sel.warnings[0].startswith("override c = 5 violates the exponential-norm")
    assert sel.warnings[-1] == "order override: using c = 5, budget selection was 3"


def test_choose_order_certifies_an_override_on_its_own_tail():
    nl, args = _std1_order_args()
    budget = choose_order(*args)
    assert not budget.certified
    forced = choose_order(*args, c=budget.c_required, force=True)
    assert forced.certified
    # no cap binds here: the budget's order is certified, a lower one is not,
    # and an override equal to the budget's order is certified again
    args = (0.3, 1e-2, 1.0, 0.3, 0.01, -1.0)
    budget = choose_order(*args)
    assert budget.certified and budget.c > 0
    low = choose_order(*args, c=budget.c - 1)
    assert not low.certified
    assert low.warnings == [f"order override: using c = {budget.c - 1}, "
                            f"budget selection was {budget.c}"]
    same = choose_order(*args, c=budget.c)
    assert same.certified and same.warnings == []


def test_choose_order_linear_override_is_warned():
    sel = choose_order(0.0, 1e-3, 2.0, 0.5, 0.0, -1.0, c=2)
    assert sel.c == 2 and sel.certified
    assert sel.warnings == ["linear fast path (F2 = 0)",
                            "order override: using c = 2, budget selection was 0"]


def test_select_parameters_refuses_an_embedding_at_another_order():
    ode = std1_scaled()
    nl, args = _std1_order_args()
    sel = choose_order(*args, c=2)
    with pytest.raises(ValidationError, match="order 3"):
        select_parameters(nl, sel, assemble_A(ode, 3), 1.0, 1e-2, g=2.75, eta=2.5)


def test_select_parameters_postconditions():
    ode = std1_scaled()
    nl = compute_K(ode)
    sys = assemble_A(ode, 3)
    u_T, _ = reference_solution(ode, 1.0)
    eta = nl.norm_u_in / np.linalg.norm(u_T)
    sel = choose_order(nl.K, 1e-2, eta, nl.norm_u_in, nl.norm_F2, nl.re_lambda1)
    params = select_parameters(nl, sel, sys, 1.0, 1e-2, g=2.75, eta=eta)
    assert params.m == params.p == math.ceil(sys.norm_A)
    assert params.h == pytest.approx(1.0 / params.m)
    assert params.norm_A * params.h <= 1.0 + 1e-12
    assert math.factorial(params.k + 1) >= params.Omega
    assert 2 * params.m * (params.c + 1) * (params.c + 2) <= math.factorial(params.k + 1)
    assert params.d == params.m * (params.k + 1) + params.p
    expected_delta = 1e-2 * math.sqrt(1 - 2 * nl.K**2) / (
        30 * math.sqrt(78 * params.m) * 2.75 * params.eta_prime)
    assert params.delta == pytest.approx(expected_delta, rel=1e-12)
    assert params.epsilon1 == pytest.approx(1e-2 * nl.K / (4 * params.eta_prime), rel=1e-12)


def test_select_parameters_rejects_g_below_one():
    ode = std1_scaled()
    nl = compute_K(ode)
    sys = assemble_A(ode, 3)
    sel = choose_order(nl.K, 1e-2, 2.5, nl.norm_u_in, nl.norm_F2, nl.re_lambda1)
    with pytest.raises(ValidationError):
        select_parameters(nl, sel, sys, 1.0, 1e-2, g=0.5, eta=2.5)


# -- condition number --------------------------------------------------------

def test_condition_bound_formula_value():
    # m=3, k=5, p=3, c=2: 2 e sqrt(5) (3*6+3) (2+2)
    params = tiny_params(N=1, m=3, k=5, p=3, h=0.1, c=2)
    A = SparseMatrix.from_triplets(1, 1, [])
    C = assemble_C(A, params)
    rep = condition_report(C)
    assert rep["bound"] == pytest.approx(1021.1481756733905, rel=1e-12)


def forced_rows(m: int, k: int, p: int) -> dict:
    """The bound rows, by name, of a forced run of du/dt = -u/2 to T = 1:
    F2 = 0 puts c at 0, h = 1/m and ||A h|| = 1/(2m)."""
    rep = run(RunConfig.from_dict({
        "n": 1, "T": 1.0, "epsilon": 1e-2, "u_in": [0.3], "F1_triplets": [[0, 0, -0.5]],
        "F2_triplets": [], "m": m, "k": k, "p": p, "force": True}))
    assert rep.parameters["c"] == 0
    return {row["check"]: row for row in rep.bound_checks}


def test_condition_4x4_measured_under_bound():
    a = 0.5
    A = SparseMatrix.from_triplets(1, 1, [(0, 0, a)])
    params = tiny_params(N=1, m=1, k=1, p=1, h=1.0)
    C = assemble_C(A, params)
    rep = condition_report(C)
    assert rep["measured"] == pytest.approx(6.332670303617229, rel=1e-9)
    assert rep["measured"] <= 2 * math.e * math.sqrt(1) * 3 * 2
    # k = 1 misses both k >= 5 and the margin: 2m(c+1)(c+2) = 4 > (k+1)! = 2;
    # the run, which builds the precondition, at the same m, k, p and h
    assert not forced_rows(m=1, k=1, p=1)["condition_number"]["precondition_ok"]


def test_condition_precondition_needs_k_ge_5():
    # m = 1, c = 0: 2m(c+1)(c+2) = 4 <= (k+1)! at k = 4 and 5, ||A h|| = 1/2 and
    # the exp-norm verdict holds, so k >= 5 is the one precondition that moves
    A = SparseMatrix.from_triplets(1, 1, [])
    for k, ok in ((4, False), (5, True)):
        params = tiny_params(N=1, m=1, k=k, p=1, h=1.0)
        assert params.contract_ok and params.factorial_ok
        rows = forced_rows(m=1, k=k, p=1)
        # step_error reads the contract, the margin and the exp-norm verdict
        assert rows["step_error"]["precondition_ok"], k
        assert rows["condition_number"]["precondition_ok"] is ok, k
        rep = condition_report(assemble_C(A, params))
        assert sorted(rep) == ["bound", "measured"]


def test_condition_identity_like():
    # A = 0 reduces all couplings to copies; kappa stays small
    A = SparseMatrix.from_triplets(2, 2, [])
    params = tiny_params(N=2, m=1, k=1, p=1, h=1.0)
    C = assemble_C(A, params)
    rep = condition_report(C)
    assert rep["measured"] <= rep["bound"]
