"""Taylor time marching as one block linear system.

The marching matrix stacks m Taylor steps of order k plus p copy rows:
unit diagonal, -A h/j couplings inside each step, -identity summation rows
at step boundaries, -identity copy rows at the tail.  C is an operator and
is never stored: applying it costs one product of A with the m k coupling
blocks.  The system is unit lower triangular, so forward substitution
solves it exactly in m k products with A; a residual checked GMRES on the
operator, preconditioned by the inverse of C's block diagonal over the
steps, doubles as an independent path.  The operator also
applies C^T, and `inverse()` applies C^{-1} and C^{-T} by substitution, so
the condition number ||C|| ||C^{-1}|| comes from Lanczos without forming C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .cascade import min_order_for_bound, truncation_bound
from .embedding import EmbeddedSystem, step_counts
from .errors import NumericalError, ValidationError
from .ode import SQRT_HALF, NonlinearityParams
from .sparse import DENSE_ORACLE_CAP, spectral_norm, vector_norm

SOLVE_FLOOR = 1e-10
SOLVERS = ("forward", "iterative")


@dataclass
class OrderSelection:
    """Truncation order bookkeeping: budget-driven choice vs the hard cap."""
    c: int
    c_formula: int
    c_scan: int
    c_required: int
    c_cap: int | None          # largest order with (c+1)||F2|| <= |Re lambda_1|
    epsilon1: float
    eta_prime: float
    certified: bool            # tail bound at the chosen c meets epsilon1
    warnings: list[str] = field(default_factory=list)


def choose_order(K: float, epsilon: float, eta: float, norm_u_in: float,
                 norm_F2: float, re_lambda1: float, force: bool = False) -> OrderSelection:
    """Pick the truncation order for a target accuracy.

    The order satisfying the error budget is the max of the closed-form
    choice ceil(log_{1/K}(4||u_in|| / ((1-K) eps eta))) and a direct scan of
    the geometric tail against epsilon1 = eps K / (4 eta').  Both are then
    capped so (c+1)||F2|| <= |Re lambda_1| keeps ||e^{At}|| <= c+1 provable;
    a capped order is flagged as not bound-certified.
    """
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    warnings: list[str] = []
    if K == 0.0:
        return OrderSelection(c=0, c_formula=0, c_scan=0, c_required=0,
                              c_cap=None, epsilon1=0.0, eta_prime=0.0,
                              certified=True, warnings=["linear fast path (F2 = 0)"])
    if K >= SQRT_HALF:
        raise ValidationError(
            f"nonlinearity too strong: K = {K:.4g} >= sqrt(2)/2; "
            "the post-selection bound is unavailable"
        )
    eta_prime = eta * K / norm_u_in
    eps_budget = 0.1 * math.sqrt(1.0 - 2.0 * K * K) / eta_prime
    if epsilon > eps_budget:
        msg = (f"epsilon = {epsilon:.4g} exceeds the admissible budget "
               f"0.1 sqrt(1-2K^2)/eta' = {eps_budget:.4g}")
        if not force:
            raise ValidationError(msg)
        warnings.append(msg)
    epsilon1 = epsilon * K / (4.0 * eta_prime)
    arg = 4.0 * norm_u_in / ((1.0 - K) * epsilon * eta)
    c_formula = max(0, math.ceil(math.log(arg) / math.log(1.0 / K))) if arg > 1 else 0
    c_scan = min_order_for_bound(K, epsilon1)
    c_required = max(c_formula, c_scan)
    if norm_F2 > 0:
        c_cap = int(math.floor(abs(re_lambda1) * (1 + 1e-12) / norm_F2)) - 1
    else:
        c_cap = None
    if c_cap is not None and c_cap < 0:
        raise ValidationError(
            f"||F2|| = {norm_F2:.4g} exceeds |Re lambda_1| = {abs(re_lambda1):.4g}: "
            "the exponential-norm precondition fails at every order"
        )
    c = c_required
    certified = True
    if c_cap is not None and c_required > c_cap:
        c = c_cap
        certified = False
        warnings.append(
            f"order capped at {c_cap} by the exponential-norm precondition "
            f"(budget wants {c_required}); tail bound "
            f"{truncation_bound(K, c):.3e} exceeds epsilon1 = {epsilon1:.3e}, "
            "relying on measured truncation error instead"
        )
    return OrderSelection(c=c, c_formula=c_formula, c_scan=c_scan,
                          c_required=c_required, c_cap=c_cap, epsilon1=epsilon1,
                          eta_prime=eta_prime, certified=certified, warnings=warnings)


@dataclass
class TaylorSystemParams:
    c: int
    h: float
    m: int
    k: int
    p: int
    d: int                      # m(k+1) + p
    delta: float
    epsilon1: float
    Omega: float
    g_est: float
    eta_est: float
    eta_prime: float
    norm_A: float
    N: int
    hpm_budget_certified: bool = True
    warnings: list[str] = field(default_factory=list)

    def block_index(self, i: int, j: int) -> int:
        if i < 0 or i > self.m:
            raise ValidationError(f"step index {i} outside 0..{self.m}")
        if i < self.m:
            if j < 0 or j > self.k:
                raise ValidationError(f"inner index {j} outside 0..{self.k}")
            return i * (self.k + 1) + j
        if j < 0 or j > self.p:
            raise ValidationError(f"copy index {j} outside 0..{self.p}")
        return self.m * (self.k + 1) + j


def taylor_order_for(Omega: float) -> int:
    """Smallest workable k: floor(2 log(Omega)/log log(Omega)) bumped until
    (k+1)! >= Omega, checked with exact integer factorials."""
    k = 5
    if Omega > math.e ** math.e:
        ln = math.log(Omega)
        k = max(5, int(2.0 * ln / math.log(ln)))
    while math.factorial(k + 1) < Omega:
        k += 1
    return k


def select_parameters(nl: NonlinearityParams, sel: OrderSelection, sys: EmbeddedSystem,
                      T: float, epsilon: float, g: float, eta: float,
                      overrides: dict | None = None,
                      force: bool = False) -> TaylorSystemParams:
    """Fill in (h, m, k, p, delta) for a target accuracy epsilon.

    sel is the run's order selection; an assembled order other than sel.c
    (an override) is certified on its own tail bound.  Step count and
    grid come from ||A||; delta follows the error budget split and Omega
    = 50 m (c+1)(c+2) g / delta drives the Taylor order.
    """
    overrides = dict(overrides or {})
    if g < 1.0 - 1e-9:
        raise ValidationError(f"g = {g} cannot be below 1")
    if eta <= 0:
        raise ValidationError("eta must be positive")
    c = sys.index.c
    warnings: list[str] = []
    epsilon1, eta_prime, certified = sel.epsilon1, sel.eta_prime, sel.certified
    if "c" in overrides or sel.c != c:
        if sel.c != c:
            warnings.append(f"order override: using c = {c}, budget selection was {sel.c}")
        certified = nl.K < 1 and truncation_bound(nl.K, c) <= epsilon1

    m, h = step_counts(T, sys.norm_A)
    m = int(overrides.get("m", m))
    p = int(overrides.get("p", m))
    if m < 1 or p < 1:
        raise ValidationError("m and p must be positive")
    h = float(overrides.get("h", T / m if T > 0 else 0.0))
    if sys.norm_A * h > 1.0 + 1e-9:
        msg = f"||A h|| = {sys.norm_A * h:.4g} > 1 breaks the per-step contract"
        if not force:
            raise ValidationError(msg)
        warnings.append(msg)

    scale = eta_prime if eta_prime > 0 else 1.0
    delta = epsilon * math.sqrt(max(1.0 - 2.0 * nl.K ** 2, 0.0)) / (
        30.0 * math.sqrt(78.0 * m) * g * scale)
    delta = float(overrides.get("delta", delta))
    if delta <= 0.0:
        raise ValidationError(
            f"solver budget degenerated to delta = {delta} (K = {nl.K:.4g})"
        )
    Omega = 50.0 * m * (c + 1) * (c + 2) * g / delta
    if "k" in overrides:
        k = int(overrides["k"])
        if math.factorial(k + 1) < Omega:
            msg = f"override k = {k} violates (k+1)! >= Omega = {Omega:.4g}"
            if not force:
                raise ValidationError(msg)
            warnings.append(msg)
    else:
        k = taylor_order_for(Omega)
        if math.factorial(k + 1) < Omega:
            raise ValidationError("Taylor order selection failed its own postcondition")
    if 2.0 * m * (c + 1) * (c + 2) > math.factorial(k + 1):
        msg = f"step-error precondition 2m(c+1)(c+2) <= (k+1)! fails at k = {k}"
        if not force:
            raise ValidationError(msg)
        warnings.append(msg)
    d = m * (k + 1) + p
    return TaylorSystemParams(
        c=c, h=h, m=m, k=k, p=p, d=d, delta=delta, epsilon1=epsilon1,
        Omega=Omega, g_est=g, eta_est=eta, eta_prime=eta_prime,
        norm_A=sys.norm_A, N=sys.index.N,
        hpm_budget_certified=certified, warnings=warnings,
    )


class MarchingOperator(spla.LinearOperator):
    """The (d+1)N-square marching matrix C as an operator; never stored.

    x is read as d+1 blocks of length N.  Step i owns blocks i(k+1)+j,
    j = 0..k; the copy tail owns blocks m(k+1)..d.
    """

    def __init__(self, A: sp.csr_array, params: TaylorSystemParams):
        N = A.shape[0]
        size = (params.d + 1) * N
        super().__init__(np.float64, (size, size))
        self.A = A
        self.params = params
        self.N = N

    @cached_property
    def AT(self) -> sp.csr_array:
        """A^T as its own csr_array, built on first use: its products gather
        rows, where those of the CSC view A.T scatter columns."""
        return self.A.T.tocsr()

    @property
    def nnz(self) -> int:
        """Entry count of the matrix this operator stands for."""
        m, k, p, d, N = (self.params.m, self.params.k, self.params.p,
                         self.params.d, self.N)
        return (d + 1) * N + m * k * self.A.nnz + m * (k + 1) * N + p * N

    def march(self, y_in: np.ndarray) -> np.ndarray:
        """Solves C x = e_0 kron y_in in m k products with A."""
        rhs = np.zeros(self.shape[0])
        rhs[:self.N] = y_in
        return self._solve(rhs)

    def _solve(self, b: np.ndarray) -> np.ndarray:
        """C^{-1} b, b a vector or a (size, r) stack, by forward substitution:
        m k products with A."""
        m, k, h, d = self.params.m, self.params.k, self.params.h, self.params.d
        X = np.array(b, dtype=np.float64).reshape(d + 1, self.N, *np.shape(b)[1:])
        for i in range(m):
            base = i * (k + 1)
            if i:
                X[base] += cur
            for j in range(1, k + 1):
                X[base + j] += (h / j) * (self.A @ X[base + j - 1])
            cur = X[base:base + k + 1].sum(axis=0)
        tail = X[m * (k + 1):]
        tail[0] += cur
        np.cumsum(tail, axis=0, out=tail)
        return X.reshape(np.shape(b))

    def _solve_T(self, b: np.ndarray) -> np.ndarray:
        """C^{-T} b by backward substitution: m k products with A^T."""
        m, k, h, d = self.params.m, self.params.k, self.params.h, self.params.d
        Z = np.array(b, dtype=np.float64).reshape(d + 1, self.N, *np.shape(b)[1:])
        tail = Z[m * (k + 1):][::-1]
        np.cumsum(tail, axis=0, out=tail)
        for i in reversed(range(m)):
            base = i * (k + 1)
            Z[base:base + k + 1] += Z[base + k + 1]
            for j in range(k - 1, -1, -1):
                Z[base + j] += (h / (j + 1)) * (self.AT @ Z[base + j + 1])
        return Z.reshape(np.shape(b))

    def inverse(self) -> spla.LinearOperator:
        """C^{-1} as an operator: forward solves, transposed by backward ones."""
        return spla.LinearOperator(self.shape, matvec=self._solve, rmatvec=self._solve_T,
                                   matmat=self._solve, rmatmat=self._solve_T,
                                   dtype=np.float64)

    def step_inverse(self) -> spla.LinearOperator:
        """D^{-1} as an operator, D the block diagonal of C over the m steps
        and the copy tail: C without its summation rows.  All steps are
        solved at once, in k products of A with an (N, m) stack."""
        m, k, h, d, N = self.params.m, self.params.k, self.params.h, self.params.d, self.N

        def solve(b: np.ndarray) -> np.ndarray:
            X = np.array(b, dtype=np.float64).reshape(d + 1, N, -1)
            steps = X[:m * (k + 1)].reshape(m, k + 1, N, -1)
            for j in range(1, k + 1):
                src = np.moveaxis(steps[:, j - 1], 1, 0).reshape(N, -1)
                steps[:, j] += (h / j) * np.moveaxis((self.A @ src).reshape(N, m, -1), 0, 1)
            tail = X[m * (k + 1):]
            np.cumsum(tail, axis=0, out=tail)
            return X.reshape(np.shape(b))

        return spla.LinearOperator(self.shape, matvec=solve, matmat=solve, dtype=np.float64)

    def _matmat(self, x: np.ndarray) -> np.ndarray:
        m, k, d, N = self.params.m, self.params.k, self.params.d, self.N
        r = x.shape[1]
        # row i(k+1)+j couples to block i(k+1)+j-1 with -h/j, j = 1..k
        coef = -self.params.h / np.arange(1, k + 1)
        X = x.reshape(d + 1, N, r)
        Y = X.copy()
        steps = X[:m * (k + 1)].reshape(m, k + 1, N, r)
        # all m k coupling blocks in one product: A @ (N, m k r)
        src = np.moveaxis(steps[:, :k], 2, 0).reshape(N, m * k * r)
        prod = np.moveaxis((self.A @ src).reshape(N, m, k, r), 0, 2)
        Y_steps = Y[:m * (k + 1)].reshape(m, k + 1, N, r)
        Y_steps[:, 1:] += coef[None, :, None, None] * prod
        # summation rows (i+1)(k+1) and copy rows m(k+1)+1..d
        Y[k + 1:m * (k + 1) + 1:k + 1] -= steps.sum(axis=1)
        Y[m * (k + 1) + 1:] -= X[m * (k + 1):d]
        return Y.reshape(-1, r)

    def _rmatmat(self, y: np.ndarray) -> np.ndarray:
        m, k, d, N = self.params.m, self.params.k, self.params.d, self.N
        r = y.shape[1]
        coef = -self.params.h / np.arange(1, k + 1)
        Y = y.reshape(d + 1, N, r)
        X = Y.copy()
        steps = Y[:m * (k + 1)].reshape(m, k + 1, N, r)
        # block i(k+1)+j-1 takes -h/j A^T y_{i(k+1)+j}: A^T @ (N, m k r)
        src = np.moveaxis(steps[:, 1:], 2, 0).reshape(N, m * k * r)
        prod = np.moveaxis((self.AT @ src).reshape(N, m, k, r), 0, 2)
        X_steps = X[:m * (k + 1)].reshape(m, k + 1, N, r)
        X_steps[:, :k] += coef[None, :, None, None] * prod
        # every block of step i takes -y of its summation row (i+1)(k+1)
        X_steps -= Y[k + 1:m * (k + 1) + 1:k + 1][:, None]
        X[m * (k + 1):d] -= Y[m * (k + 1) + 1:]
        return X.reshape(-1, r)


def assemble_C(A: sp.csr_array, params: TaylorSystemParams) -> MarchingOperator:
    """The (d+1)N-square marching matrix; unit lower triangular by blocks."""
    return MarchingOperator(A, params)


@dataclass
class MarchingSolution:
    x: np.ndarray
    params: TaylorSystemParams
    residual: float
    iterations: int | None = None      # GMRES inner iterations; None for forward

    def extract_block(self, i: int, j: int) -> np.ndarray:
        N = self.params.N
        l = self.params.block_index(i, j)
        return self.x[l * N:(l + 1) * N]

    def extract_final(self) -> np.ndarray:
        return self.extract_block(self.params.m, self.params.p)

    def step_solution(self, i: int) -> np.ndarray:
        """The time-t=ih approximation x_{i,0}."""
        return self.extract_block(i, 0)


def solve_marching(C: MarchingOperator, y_in: np.ndarray, delta: float,
                   params: TaylorSystemParams,
                   solver: str = "forward") -> MarchingSolution:
    """Solve C x = e_0 kron y_in to relative residual min(delta, 1e-10)."""
    N = params.N
    if y_in.shape != (N,):
        raise ValidationError(f"y_in must have length {N}")
    rhs = np.zeros((params.d + 1) * N)
    rhs[:N] = y_in
    target = min(delta, SOLVE_FLOOR) if delta > 0 else SOLVE_FLOOR
    iterations = None
    if solver == "forward":
        x = C.march(y_in)
    elif solver == "iterative":
        # D^{-1} C = I - D^{-1} L, with D^{-1} L strictly lower triangular over
        # the m steps and the tail: GMRES ends within m+1 iterations, and the
        # basis holds m+3 vectors; restarts continue should rounding need more
        presids = []
        x, info = spla.gmres(C, rhs, rtol=target / 10.0, atol=0.0, M=C.step_inverse(),
                             restart=params.m + 2, maxiter=5000,
                             callback=presids.append, callback_type="pr_norm")
        if info != 0:
            raise NumericalError(f"gmres did not converge (info={info})")
        iterations = len(presids)
    else:
        raise ValidationError(f"unknown solver '{solver}'")
    rhs_norm = np.linalg.norm(rhs)
    residual = float(np.linalg.norm(C @ x - rhs) / max(rhs_norm, np.finfo(float).tiny))
    if residual > max(target, 1e-12):
        raise NumericalError(
            f"solver '{solver}' residual {residual:.3e} misses target {target:.3e}"
        )
    return MarchingSolution(x=x, params=params, residual=residual, iterations=iterations)


def expm_trajectory(A: sp.csr_array, y_in: np.ndarray, h: float, m: int) -> np.ndarray:
    """expm(A j h) y_in for j = 0..m, stacked, from one `expm_multiply` sweep
    over the step grid (Al-Mohy and Higham 2011, SIAM J. Sci. Comput. 33(2))."""
    # onenormest, which the sweep calls for a large ||A||_1 T, draws its probe
    # columns from numpy's global generator: seed it, then put it back, so
    # the trajectory is the same on every run
    state = np.random.get_state()
    np.random.seed(0)
    try:
        return spla.expm_multiply(A, y_in, start=0.0, stop=m * h, num=m + 1,
                                  endpoint=True)
    finally:
        np.random.set_state(state)


def step_errors_vs_expm(sys: EmbeddedSystem, params: TaylorSystemParams,
                        sol: MarchingSolution, exact: np.ndarray | None = None
                        ) -> list[dict]:
    """Per-step ||expm(A j h) y_in - x_{j,0}|| against the factorial bound.

    exact holds the trajectory expm(A j h) y_in, j = 0..m, row by row; it
    defaults to `expm_trajectory` on the sparse A.
    """
    if exact is None:
        exact = expm_trajectory(sys.A, sys.y_in, params.h, params.m)
    norm_yin = float(vector_norm(sys.y_in))
    # an int / int quotient underflows to 0 where float((k+1)!) would overflow
    inv_fact = 1 / math.factorial(params.k + 1)
    rows = []
    for j in range(params.m + 1):
        measured = float(vector_norm(exact[j] - sol.step_solution(j)))
        bound = 2.0 * j * (params.c + 1) * (params.c + 2) * norm_yin * inv_fact
        rows.append({"step": j, "measured": measured, "bound": bound})
    return rows


def _norm_floor(C: MarchingOperator) -> float:
    """The largest row and column 2-norms of C, lower bounds on ||C||.

    A summation row holds a unit diagonal and k+1 entries -1; for k >= 1 the
    first column of a step holds 1, the column of -A h and a summation -1.
    """
    k, h = C.params.k, C.params.h
    col_sq = float(C.A.multiply(C.A).sum(axis=0).max(initial=0.0))
    return math.sqrt(max(k + 2.0, 2.0 + h * h * col_sq if k else 0.0))


def condition_report(C: MarchingOperator, params: TaylorSystemParams,
                     exp_norm_precondition_ok: bool,
                     dense_cap: int = DENSE_ORACLE_CAP) -> dict:
    """kappa(C) against 2e sqrt(k) (m(k+1)+p)(c+2).

    kappa = ||C|| ||C^{-1}|| by Lanczos on the operator and on its inverse
    march, each certified from below: ||C|| by its row and column norms,
    ||C^{-1}|| by ||C^{-1} b|| / ||b|| for the all-ones probe b.  Measured while
    size^2 stays under the dense cap, which bounds the Lanczos cost.
    """
    m, k, p, c = params.m, params.k, params.p, params.c
    bound = 2.0 * math.e * math.sqrt(k) * (m * (k + 1) + p) * (c + 2)
    preconditions = {
        "norm_Ah_le_1": params.norm_A * params.h <= 1.0 + 1e-9,
        "k_ge_5": k >= 5,
        "factorial_margin": 2.0 * m * (c + 1) * (c + 2) <= math.factorial(k + 1),
        "exp_norm_bound": exp_norm_precondition_ok,
    }
    size = C.shape[0]
    measured = None
    if size * size <= dense_cap:
        # all ones: each step sums what came before, so C^{-1} amplifies it
        inv = C.inverse()
        inv_floor = float(np.linalg.norm(inv @ np.ones(size))) / math.sqrt(size)
        measured = (spectral_norm(C, lower=_norm_floor(C))
                    * spectral_norm(inv, lower=inv_floor))
    return {
        "bound": bound,
        "measured": measured,
        "precondition_ok": all(preconditions.values()),
        "preconditions": preconditions,
        "pass": measured is None or measured <= bound,
    }
