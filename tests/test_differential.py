"""Whole runs held against what must not change and against dense oracles.

The relabelling test runs an instance and the same instance with its state
coordinates permuted, and asks for the same verdicts, counts and values.
The differential test recomputes a run's values from a dense A written
index by index here, y_in from repeated Kronecker products and x from a
triangular solve on the marching matrix `oracles.reference_C`, and u(T)
from scipy's implicit Radau: none of it runs the orbit basis, the march,
the package's integrator or a probe of the package.
"""

import itertools
import math
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.sparse import csr_array
from scipy.sparse.linalg import spsolve_triangular

from hpmsim.cascade import solve_cascade
from hpmsim.embedding import build_index_map
from hpmsim.marching import SOLVERS
from hpmsim.ode import make_ode
from hpmsim.pipeline import generate_instance, instance_config, run
from hpmsim.sparse import SparseMatrix
from oracles import level_groups, read_vector, reference_C

T, EPSILON = 1.0, 1e-2
LABEL_SEED = 5          # a permutation other than the identity at n = 2 and n = 3


def relabel(ode, perm: np.ndarray):
    """The instance in coordinates where new coordinate a holds old perm[a]:
    u -> P u, F1 -> P F1 P^T, F2 -> P F2 (P^T kron P^T)."""
    n = ode.n
    new = np.empty(n, dtype=np.int64)
    new[perm] = np.arange(n)            # old coordinate i moves to new[i]
    F1 = [(new[i], new[j], v) for i, j, v in ode.F1.entries()]
    F2 = [(new[i], new[j // n] * n + new[j % n], v) for i, j, v in ode.F2.entries()]
    return make_ode(n, SparseMatrix.from_triplets(n, n, F1),
                    SparseMatrix.from_triplets(n, n * n, F2), ode.u_in[perm])


def close(a, b, rel: float = 1e-12) -> bool:
    """a and b, numbers, lists of numbers or None, agree within rel of a."""
    if a is None or b is None:
        return a is b
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rel * np.abs(a)))


# report fields that count or decide, and must be equal
EQUAL = {"nonlinearity": ("flag_K_below_u_original",),
         "parameters": ("c", "m", "k", "p", "d", "N"),
         "structure": ("R", "nnz_A_sym", "max_row_nnz", "max_col_nnz")}
# norm-valued fields, equal but for the order of sums: within 1e-12 relative
NORMS = {"nonlinearity": ("K", "re_lambda1", "norm_F2", "norm_u_in_original",
                          "norm_u_in_solved", "zeta"),
         "parameters": ("h", "delta", "epsilon1", "Omega", "g", "eta", "eta_prime", "norm_A"),
         "structure": ("norm_A", "norm_A_lower", "norm_A_estimate", "log_norm_A_upper",
                       "norm_A_bound", "max_re_eigenvalue"),
         "measurement": ("p1_block_ratio", "p1_measured", "p1_bound", "chi0_sq",
                         "chi0_bound", "level_group_norms_sq", "level_group_bounds"),
         "errors": ("hpm_part_bound",)}


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("n", [2, 3])
def test_a_relabelled_instance_runs_to_the_same_report(n, solver):
    ode = generate_instance(n, 2, 0.3, 7)
    perm = np.random.default_rng(LABEL_SEED).permutation(n)
    assert (perm != np.arange(n)).any()
    a = run(instance_config(ode, T, EPSILON, solver=solver))
    b = run(instance_config(relabel(ode, perm), T, EPSILON, solver=solver))

    assert (a.status, a.exit_code) == (b.status, b.exit_code)
    for section, keys in EQUAL.items():
        for key in keys:
            assert getattr(a, section)[key] == getattr(b, section)[key], (section, key)
    for section, keys in NORMS.items():
        for key in keys:
            assert close(getattr(a, section)[key], getattr(b, section)[key]), (section, key)
    # u_out in the original coordinates
    assert close(a.measurement["u_out"], np.asarray(b.measurement["u_out"])[np.argsort(perm)])

    # the reference's own noise: truncation and the final error compare
    # u(T) from two integrations, each within its reference_error of u(T)
    err_a, err_b = a.errors["reference_error"], b.errors["reference_error"]
    noise = err_a + err_b
    norm_uT = a.nonlinearity["norm_u_in_original"] / a.parameters["eta"]
    u_scale = a.nonlinearity["norm_u_in_solved"]
    by_name = {row["check"]: row for row in b.bound_checks}
    assert [row["check"] for row in a.bound_checks] == list(by_name)
    for row in a.bound_checks:
        other = by_name[row["check"]]
        for key in ("pass", "precondition_ok"):
            assert row[key] == other[key], (row["check"], key)
        assert (row["measured"] is None) == (other["measured"] is None), row["check"]
        assert close(row["bound"], other["bound"]), row["check"]
        got, want = other["measured"], row["measured"]
        if want is None:
            continue
        if row["check"] == "truncation":
            # ||zeta u(T) - u~(T)||: u(T) moves by at most its error
            assert abs(got - want) <= a.nonlinearity["zeta"] * norm_uT * noise
        elif row["check"] == "target":
            # a normalized difference: twice the relative error of u(T)
            assert abs(got - want) <= 2 * noise + 1e-12
        elif row["check"] == "reference_error":
            # two estimates of the same integration error agree within either
            assert abs(got - want) <= min(got, want)
        elif row["check"] == "step_error":
            # rounding left after truncation, of two vectors of y_in's size
            assert abs(got - want) <= 1e-12 * u_scale
        else:
            assert close(want, got), row["check"]
    assert abs(a.errors["final_error"] - b.errors["final_error"]) <= 2 * noise + 1e-12
    assert abs(a.errors["hpm_part"] - b.errors["hpm_part"]) <= 2 * noise + 1e-12
    # ||u_out - u~(T)/||u~(T)|||| of two unit vectors, rounding apart
    assert abs(a.errors["solve_part"] - b.errors["solve_part"]) <= 1e-12


def test_an_instance_at_norm_K_is_rescaled_under_every_labelling():
    # generate_instance sets ||u_in|| = K, here ||u_in|| = 0.29999999999999993
    # against K = 0.2999999999999999: the flag must not read the last bit
    ode = generate_instance(3, 2, 0.3, 7)
    for perm in itertools.permutations(range(3)):
        rep = run(instance_config(relabel(ode, np.array(perm)), T, EPSILON))
        assert not rep.nonlinearity["flag_K_below_u_original"], perm
    # std1 starts outside the regime, K = 0.4 < ||u_in|| = 0.5
    std1 = make_ode(1, SparseMatrix.from_triplets(1, 1, [(0, 0, -1.0)]),
                    SparseMatrix.from_triplets(1, 1, [(0, 0, 0.2)]), [0.5])
    assert run(instance_config(std1, T, EPSILON)).nonlinearity["flag_K_below_u_original"]


# -- the dense differential oracle ----------------------------------------

def dense_A(F1: np.ndarray, F2: np.ndarray, c: int):
    """A written entry by entry from the embedding's rule, and the layout's
    index map: in component a of level i, F1 moves one slot's tensor index,
    and F2 splits slot k of a into (l, a_k - 1 - l) and its index into two;
    level 0 gets F1 and F2 into every level-1 component."""
    n = F1.shape[0]
    index = build_index_map(c, n)

    def coord(i, a, t):
        return (index.offsets[i] + index.rank(i, a) * n ** (i + 1)
                + sum(d * n ** (i - s) for s, d in enumerate(t)))

    A = np.zeros((index.N, index.N))
    for u, v in itertools.product(range(n), repeat=2):
        A[u, v] += F1[u, v]
    for a, u, v, w in itertools.product(index.levels[1] if c else [],
                                        range(n), range(n), range(n)):
        A[u, coord(1, a, (v, w))] += F2[u, v * n + w]
    for i in range(1, c + 1):
        for a in index.levels[i]:
            for t in itertools.product(range(n), repeat=i + 1):
                row = coord(i, a, t)
                for s, v in itertools.product(range(i + 1), range(n)):
                    A[row, coord(i, a, t[:s] + (v,) + t[s + 1:])] += F1[t[s], v]
                for k in range(i + 1):
                    for l, v, w in itertools.product(range(a[k]), range(n), range(n)):
                        refined = a[:k] + (l, a[k] - 1 - l) + a[k + 1:]
                        col = coord(i + 1, refined, t[:k] + (v, w) + t[k + 1:])
                        A[row, col] += F2[t[k], v * n + w]
    return A, index


def dense_y_in(u: np.ndarray, index) -> np.ndarray:
    """u^(kron i+1) at the first component (a = 0) of every level i."""
    y, power = np.zeros(index.N), u
    for i in range(index.c + 1):
        y[index.offsets[i]:index.offsets[i] + power.size] = power
        power = np.kron(power, u)
    return y


@settings(max_examples=16, deadline=None, derandomize=True)
@given(st.integers(1, 2), st.integers(0, 3), st.floats(0.05, 1.0),
       st.sampled_from([0.1, 0.3, 0.5]), st.integers(0, 1_000), st.sampled_from(SOLVERS),
       st.booleans())
@example(2, 1, 0.5, 0.3, 7, "forward", True)
def test_a_run_reads_as_its_dense_oracle(n, c, T_end, K, seed, solver, nonnormal):
    ode = generate_instance(n, n, K, seed)
    if nonnormal and n == 2:
        # F1's eigenvalues a, b under an upper coupling 3 sqrt(ab): (F1 + F1^T)/2
        # has determinant ab - 9ab/4 < 0, so mu(F1) > 0, no log-norm bound
        # certifies exp_norm and the row takes dense powers.  u_in along e_0,
        # an eigenvector, keeps the cascade's order 0 within its decay guard
        a, b = np.linalg.eigvalsh(ode.F1.toarray())
        F1 = np.array([[a, 3 * np.sqrt(a * b)], [0.0, b]])
        u_in = np.array([np.linalg.norm(ode.u_in), 0.0])
        ode = make_ode(n, SparseMatrix(F1), ode.F2, u_in, assume_valid=True)
    with tempfile.TemporaryDirectory() as blocks:
        rep = run(instance_config(ode, T_end, EPSILON, c=c, solver=solver,
                                  emit_blocks=blocks, assume_valid=nonnormal))
        par = rep.parameters
        # V x_{j,0}: the run's step starts in the full layout
        starts = [read_vector(Path(blocks) / f"x_{j:04d}_0.txt") for j in range(par["m"] + 1)]
    assert par["c"] == c
    # the instance as solved: u -> zeta u, F2 -> F2 / zeta
    zeta = rep.nonlinearity["zeta"]
    F1, F2, u = ode.F1.toarray(), ode.F2.toarray() / zeta, ode.u_in * zeta
    A, index = dense_A(F1, F2, c)
    y_in = dense_y_in(u, index)
    N = index.N

    norm = np.linalg.svd(A, compute_uv=False)[0]
    assert rep.structure["norm_A_lower"] <= norm <= rep.structure["norm_A"]

    # x = C^-1 (e_0 kron y_in), C the marching matrix of A at the run's m, k, p, h
    params = types.SimpleNamespace(**{key: par[key] for key in ("m", "k", "p", "d", "h")})
    C = reference_C(csr_array(A), params)
    rhs = np.zeros(C.shape[0])
    rhs[:N] = y_in
    X = spsolve_triangular(C, rhs, lower=True).reshape(par["d"] + 1, N)
    start, final = X[par["m"] * (par["k"] + 1)], X[-1]
    level0 = final[:n]
    # ||x - C^-1 b|| / ||x|| <= kappa(C) times the run's relative residual,
    # and the condition_number row's bound holds kappa(C); 1e-12 is rounding
    kappa = next(row["bound"] for row in rep.bound_checks if row["check"] == "condition_number")
    tol = 1e-12 + kappa * rep.solver["residual"]
    got = rep.measurement
    assert np.linalg.norm(np.array(got["u_out"]) - level0 / np.linalg.norm(level0)) <= tol
    p1 = got["p1_block_ratio"]
    assert abs(p1 - start @ start / np.sum(X * X)) <= tol * p1
    assert abs(got["chi0_sq"] - level0 @ level0 / (final @ final)) <= tol * got["chi0_sq"]
    group = level_groups(index)
    want = [float(final[group == g] @ final[group == g]) for g in range(1, c + 1)]
    assert np.allclose(got["level_group_norms_sq"], want, rtol=tol, atol=0.0)

    # u~(T), the cascade's orders summed at T, is level 0 of e^(A T) y_in, to
    # a thousand times the integrator's relative tolerance of 1e-13
    solved = make_ode(n, ode.F1, SparseMatrix(F2), u, assume_valid=True)
    utilde = solve_cascade(solved, c, T_end).nu[:, -1, :].sum(axis=0)
    utilde_expm = (expm(A * T_end) @ y_in)[:n]
    assert np.linalg.norm(utilde - utilde_expm) <= 1e-10 * np.linalg.norm(u)

    rows = {row["check"]: row for row in rep.bound_checks}
    # the truncation row, ||zeta u(T) - u~(T)||, from u~(T) of e^(A T) y_in and
    # u(T) of an implicit Radau integration at rtol 1e-12: the run's u(T) is
    # within its reference_error, Radau's within a thousand times its rtol,
    # and the run's u~(T) within 1e-10 ||u|| of e^(A T) y_in, as above
    F1_in, F2_in = ode.F1.toarray(), ode.F2.toarray()
    u_T = solve_ivp(lambda t, v: F1_in @ v + F2_in @ np.kron(v, v), (0.0, T_end), ode.u_in,
                    method="Radau", rtol=1e-12, atol=1e-14 * np.linalg.norm(ode.u_in)).y[:, -1]
    noise = zeta * np.linalg.norm(u_T) * (rep.errors["reference_error"] + 1e-9)
    assert abs(rows["truncation"]["measured"] - np.linalg.norm(zeta * u_T - utilde_expm)) \
        <= noise + 1e-10 * np.linalg.norm(u)
    # the level_decay row, max_g ||y'_g||^2 / (2 K^2)^g over the groups of x's
    # final block, absent at c = 0, where no group exists
    K = rep.nonlinearity["K"]
    if c == 0:
        assert "level_decay" not in rows
    else:
        worst = max(w / (2 * K * K) ** g for g, w in enumerate(want, start=1))
        assert rows["level_decay"]["measured"] == pytest.approx(worst, rel=tol, abs=0.0)
    E = expm(A * par["h"])
    max_power = max(np.linalg.norm(np.linalg.matrix_power(E, j), 2)
                    for j in range(par["m"] + 1))
    if rows["exp_norm"]["note"].startswith("certified"):
        assert rows["exp_norm"]["measured"] == 1.0
        assert max_power <= 1.0 + 1e-12
    else:
        assert nonnormal and rows["exp_norm"]["note"] == "dense E^j products"
        assert rows["exp_norm"]["measured"] == pytest.approx(max_power, rel=1e-10)

    # every step within its bound 2 j (c+1)(c+2) ||y_in|| / (k+1)! plus a
    # rounding floor gamma_{2n} ||y_in||, n = 100: the run's floor takes
    # n = max(rho + 1, k) + ceil(log2 R) + 30, under 100 at these sizes
    assert rows["step_error"]["precondition_ok"]
    norm_y = np.linalg.norm(y_in)
    floor = 200 * 2.0 ** -53 / (1 - 200 * 2.0 ** -53) * norm_y
    for j, x_j in enumerate(starts):
        bound = 2 * j * (c + 1) * (c + 2) * norm_y / math.factorial(par["k"] + 1)
        assert np.linalg.norm(expm(A * (j * par["h"])) @ y_in - x_j) <= bound + floor, j

    # kappa(C), where the run measures it, against a dense SVD of C
    if rows["condition_number"]["measured"] is not None:
        assert rows["condition_number"]["measured"] == pytest.approx(
            np.linalg.cond(C.toarray()), rel=1e-8)
