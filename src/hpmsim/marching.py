"""Taylor time marching as one block linear system.

The marching matrix stacks m Taylor steps of order k plus p copy rows:
unit diagonal, -A h/j couplings inside each step, -identity summation rows
at step boundaries, -identity copy rows at the tail.  C is an operator, and
no solve stores it.  One in-place kernel, `MarchingOperator._taylor`, runs
the step recurrence x_{i,j} = (h/j) A x_{i,j-1}, on one step or on all m
steps at once, one product of A a term.  The system is unit lower
triangular, so forward substitution solves it exactly in m k products with
A, one step at a time through one reused buffer.  The forward solve is a
fold over those steps: it keeps the step starts x_{i,0} and ||x||^2, and
checks every coupling and summation row of C x = e_0 kron y_in with one
seeded Freivalds probe z (Freivalds, MFCS 1979): w = A^T z and |A|^T |z|
are taken once, two products, and each row then costs dot products of
length N against its rounding bound, not a second product with A.  x
itself, (d+1) N floats, is never formed: the forward path holds the
(m+1) N floats of the step starts, one step, one step of probe products
and the temporaries of its one product with A.  GMRES doubles as an
independent path.  With C = D - L, D the block diagonal of C over the
steps and L its summation rows, it runs on I - D^{-1} L, the kernel once
over all steps a product, and then takes its exact residual through one
`C @ x`, whose products with A are its own and not the kernel's, and
||x||^2 from its whole x.  The operator applies neither C^T nor C^{-1}:
the condition number ||C|| ||C^{-1}||, an oracle run only under the dense
cap, takes C assembled as a sparse matrix by `tocsr()` and its SuperLU
factor, which for unit lower triangular C is C itself, no fill.

Nothing here depends on which A it is given.  A run gives it A_sym, the
embedding in its orbit basis (see `embedding`), so N is there the orbit
count R, and the solution stays in that basis: the step-error oracle sweeps
e^(A_sym t) from the restricted y_in, which V maps onto e^(A t) y_in.  The
one operator on the full A in a run is the condition oracle's, built only under
the dense cap.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .cascade import min_order_for_bound, truncation_bound
from .embedding import EmbeddedSystem, step_counts
from .errors import NumericalError, ValidationError
from .ode import SQRT_HALF, NonlinearityParams
from .sparse import DENSE_ORACLE_CAP, max_line_nnz, spectral_norm, sum_sq, vector_norm

SOLVE_FLOOR = 1e-10
SOLVERS = ("forward", "iterative")


@dataclass
class OrderSelection:
    """The order in use, c, beside the budget's own choice c_required and
    the hard cap c_cap."""
    c: int
    c_formula: int
    c_scan: int
    c_required: int
    c_cap: int | None          # largest order with (c+1)||F2|| <= |Re lambda_1|
    epsilon1: float
    eta_prime: float
    certified: bool            # tail bound at c meets epsilon1
    warnings: list[str] = field(default_factory=list)

    @property
    def exp_norm_ok(self) -> bool:
        """(c+1)||F2|| <= |Re lambda_1| at c, which keeps ||e^{At}|| <= c+1."""
        return self.c_cap is None or self.c <= self.c_cap


def _refuse(msg: str, force: bool, warnings: list[str], first: bool = False) -> None:
    """The one force rule: refuse msg, or under force warn of it, first where asked."""
    if not force:
        raise ValidationError(msg)
    warnings.insert(0 if first else len(warnings), msg)


def choose_order(K: float, epsilon: float, eta: float, norm_u_in: float,
                 norm_F2: float, re_lambda1: float, c: int | None = None,
                 force: bool = False) -> OrderSelection:
    """Pick the truncation order for a target accuracy, or rule on an
    override c.

    The order satisfying the error budget is the max of the closed-form
    choice ceil(log_{1/K}(4||u_in|| / ((1-K) eps eta))) and a direct scan of
    the geometric tail against epsilon1 = eps K / (4 eta').  Both are then
    capped so (c+1)||F2|| <= |Re lambda_1| keeps ||e^{At}|| <= c+1 provable;
    a capped order is flagged as not bound-certified.  An override c above
    the cap is refused unless forced, and then warned of first; an override
    other than the budget's choice is warned of; and an override is
    certified on its own tail bound.  K >= sqrt(2)/2 is refused, forced or not.
    """
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    if K >= SQRT_HALF:
        raise ValidationError(f"nonlinearity too strong: K = {K:.4g} >= sqrt(2)/2; "
                              "the post-selection bound is unavailable")
    if K == 0.0:
        sel = OrderSelection(c=0, c_formula=0, c_scan=0, c_required=0,
                             c_cap=None, epsilon1=0.0, eta_prime=0.0,
                             certified=True, warnings=["linear fast path (F2 = 0)"])
    else:
        sel = _budget_order(K, epsilon, eta, norm_u_in, norm_F2, re_lambda1, force)
    if c is None:
        return sel
    chosen = replace(sel, c=c, certified=truncation_bound(K, c) <= sel.epsilon1)
    if not chosen.exp_norm_ok:
        _refuse(f"override c = {c} violates the exponential-norm precondition "
                f"(largest admissible order is {sel.c_cap})", force, chosen.warnings,
                first=True)
    if c != sel.c:
        chosen.warnings.append(f"order override: using c = {c}, budget selection was {sel.c}")
    return chosen


def _budget_order(K: float, epsilon: float, eta: float, norm_u_in: float,
                  norm_F2: float, re_lambda1: float, force: bool) -> OrderSelection:
    """The budget's order for 0 < K < sqrt(2)/2, capped by the exp-norm precondition."""
    warnings: list[str] = []
    eta_prime = eta * K / norm_u_in
    eps_budget = 0.1 * math.sqrt(1.0 - 2.0 * K * K) / eta_prime
    if epsilon > eps_budget:
        _refuse(f"epsilon = {epsilon:.4g} exceeds the admissible budget "
                f"0.1 sqrt(1-2K^2)/eta' = {eps_budget:.4g}", force, warnings)
    epsilon1 = epsilon * K / (4.0 * eta_prime)
    arg = 4.0 * norm_u_in / ((1.0 - K) * epsilon * eta)
    c_formula = max(0, math.ceil(math.log(arg) / math.log(1.0 / K))) if arg > 1 else 0
    c_scan = min_order_for_bound(K, epsilon1)
    c_required = max(c_formula, c_scan)
    c_cap = (int(math.floor(abs(re_lambda1) * (1 + 1e-12) / norm_F2)) - 1
             if norm_F2 > 0 else None)
    if c_cap is not None and c_cap < 0:
        raise ValidationError(
            f"||F2|| = {norm_F2:.4g} exceeds |Re lambda_1| = {abs(re_lambda1):.4g}: "
            "the exponential-norm precondition fails at every order"
        )
    sel = OrderSelection(c=c_required, c_formula=c_formula, c_scan=c_scan,
                         c_required=c_required, c_cap=c_cap, epsilon1=epsilon1,
                         eta_prime=eta_prime, certified=True, warnings=warnings)
    if sel.exp_norm_ok:
        return sel
    warnings.append(
        f"order capped at {c_cap} by the exponential-norm precondition "
        f"(budget wants {c_required}); tail bound "
        f"{truncation_bound(K, c_cap):.3e} exceeds epsilon1 = {epsilon1:.3e}, "
        "relying on measured truncation error instead"
    )
    return replace(sel, c=c_cap, certified=False)


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

    @property
    def contract_ok(self) -> bool:
        """||A h|| <= 1, the per-step contract (Berry et al., CMP 356, 2017)."""
        return self.norm_A * self.h <= 1.0 + 1e-9

    @property
    def factorial_ok(self) -> bool:
        """2m(c+1)(c+2) <= (k+1)!, the margin of the step-error bound."""
        return 2.0 * self.m * (self.c + 1) * (self.c + 2) <= math.factorial(self.k + 1)

    @property
    def acceptance_ok(self) -> bool:
        """50 m(c+1)(c+2) g <= (k+1)!, the margin of the step-acceptance bound."""
        return math.factorial(self.k + 1) >= 50.0 * self.m * (self.c + 1) * (
            self.c + 2) * self.g_est


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
                      T: float, epsilon: float, g: float, eta: float, *,
                      m: int | None = None, p: int | None = None, k: int | None = None,
                      delta: float | None = None,
                      force: bool = False) -> TaylorSystemParams:
    """Fill in (h, m, k, p, delta) for a target accuracy epsilon.

    sel is the run's order selection, and sys must be assembled at its
    order sel.c.  Step count m comes from ||A||, and h = T/m; delta follows
    the error budget split and Omega = 50 m (c+1)(c+2) g / delta drives the
    Taylor order.  m, p, k and delta, where given, override the selection
    and are checked against its rules unless forced.
    """
    if g < 1.0 - 1e-9:
        raise ValidationError(f"g = {g} cannot be below 1")
    if eta <= 0:
        raise ValidationError("eta must be positive")
    c = sel.c
    if sys.index.c != c:
        raise ValidationError(f"embedding assembled at order {sys.index.c}, "
                              f"not at the selected order {c}")
    m = step_counts(T, sys.norm_A)[0] if m is None else m
    p = m if p is None else p
    if m < 1 or p < 1:
        raise ValidationError("m and p must be positive")
    h = T / m if T > 0 else 0.0
    scale = sel.eta_prime if sel.eta_prime > 0 else 1.0
    if delta is None:
        delta = epsilon * math.sqrt(max(1.0 - 2.0 * nl.K ** 2, 0.0)) / (
            30.0 * math.sqrt(78.0 * m) * g * scale)
    delta = float(delta)
    if delta <= 0.0:
        raise ValidationError(
            f"solver budget degenerated to delta = {delta} (K = {nl.K:.4g})"
        )
    Omega = 50.0 * m * (c + 1) * (c + 2) * g / delta
    if not math.isfinite(Omega):
        raise ValidationError(f"Omega = 50 m (c+1)(c+2) g / delta = {Omega} at "
                              f"delta = {delta:.3g}: no Taylor order meets it")
    # taylor_order_for meets (k+1)! >= Omega; only an override can miss it
    k_short = k is not None and math.factorial(k + 1) < Omega
    k = taylor_order_for(Omega) if k is None else k
    params = TaylorSystemParams(
        c=c, h=h, m=m, k=k, p=p, d=m * (k + 1) + p, delta=delta, epsilon1=sel.epsilon1,
        Omega=Omega, g_est=g, eta_est=eta, eta_prime=sel.eta_prime,
        norm_A=sys.norm_A, N=sys.index.N, hpm_budget_certified=sel.certified,
    )
    if not params.contract_ok:
        _refuse(f"||A h|| = {sys.norm_A * h:.4g} > 1 breaks the per-step contract",
                force, params.warnings)
    if k_short:
        _refuse(f"override k = {k} violates (k+1)! >= Omega = {Omega:.4g}",
                force, params.warnings)
    if not params.factorial_ok:
        _refuse(f"step-error precondition 2m(c+1)(c+2) <= (k+1)! fails at k = {k}",
                force, params.warnings)
    return params


class MarchingOperator(spla.LinearOperator):
    """The (d+1)N-square marching matrix C as an operator; `tocsr()`
    assembles it for the condition oracle alone.

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

    @property
    def nnz(self) -> int:
        """Entry count of the matrix this operator stands for."""
        m, k, p, d, N = (self.params.m, self.params.k, self.params.p,
                         self.params.d, self.N)
        return (d + 1) * N + m * k * self.A.nnz + m * (k + 1) * N + p * N

    def tocsr(self) -> sp.csr_array:
        """C assembled as kron(I - S, I_N) + kron(E, A): S the 0/1 pattern of
        the summation and copy rows, E holding -h/j at (i(k+1)+j, i(k+1)+j-1).
        The two terms share no entry, so their entries are joined, not added:
        a coupling -A h/j that is zero stays stored, and nnz matches `nnz`."""
        m, k, d, h = self.params.m, self.params.k, self.params.d, self.params.h
        n, tail = d + 1, m * (k + 1)
        # summation row (i+1)(k+1) takes every block of step i; copy row l, block l-1
        rows = np.concatenate([np.repeat(np.arange(1, m + 1) * (k + 1), k + 1),
                               np.arange(tail + 1, n)])
        cols = np.concatenate([np.arange(tail), np.arange(tail, d)])
        S = sp.coo_array((np.ones(rows.size), (rows, cols)), shape=(n, n))
        coupled = np.flatnonzero(np.arange(tail) % (k + 1))
        E = sp.coo_array((-h / (coupled % (k + 1)), (coupled, coupled - 1)), shape=(n, n))
        terms = (sp.kron(sp.eye_array(n) - S, sp.eye_array(self.N), format="coo"),
                 sp.kron(E, self.A, format="coo"))
        return sp.coo_array((np.concatenate([t.data for t in terms]),
                             (np.concatenate([t.row for t in terms]),
                              np.concatenate([t.col for t in terms]))),
                            shape=self.shape).tocsr()

    @cached_property
    def probe_tol(self) -> float:
        """The forward fold's gate on a normalised probe gap: gamma_{2n} =
        2nu / (1 - 2nu), u = 2^-53, n = max(rho + 1, k) + ceil(log2 N) + 30,
        rho the most nonzeros of A in one row or column.

        gamma_n bounds the relative rounding error of n operations (Higham,
        Accuracy and Stability of Numerical Algorithms, 2002, ch. 3).  A
        coupling row meets rounding in the march's SpMV (rho products and
        sums a row) and its scaling by h/j, in w = A^T z and |A|^T |z| (rho
        a column), and in the probe's dot products: a product a term, then
        numpy's pairwise sum, through which a term of N meets at most 24
        additions within a block of 128, one a halving above that and one
        joining the reduction's first element, fewer than ceil(log2 N) + 25.
        A summation row meets the march's sum of k+1 blocks, k additions,
        the same dot products and their pairwise sum over the step, at most
        k again.  Either gap is then at most 2 gamma_{n'} times its
        normaliser, and the normaliser's own rounding leaves gamma_{2n};
        +30 covers the handful of single roundings beside the sums.
        """
        A, N, k = self.A, self.N, self.params.k
        rho = max(max_line_nnz(A))
        n = max(rho + 1, k) + math.ceil(math.log2(max(N, 1))) + 30
        u = math.ldexp(1.0, -53)
        return 2 * n * u / (1 - 2 * n * u)

    def _taylor(self, X: np.ndarray) -> None:
        """The Taylor terms X[j] = (h/j) A X[j-1], j = 1..k, written in
        place: X is one step's (k+1, N) buffer, or a (k+1, N, s) view of s
        steps, one product of A with their (N, s) stack a term."""
        h = self.params.h
        for j in range(1, self.params.k + 1):
            np.multiply(self.A @ X[j - 1], h / j, out=X[j])

    def march(self, y_in: np.ndarray):
        """Solves C x = e_0 kron y_in by forward substitution in m k products
        with A, one step at a time through `_taylor` into one reused
        (k+1, N) buffer X.

        After step i it yields (i, X, carry): X holds x_{i,j}, j = 0..k, and
        carry = sum_j x_{i,j} is x_{i+1,0}.  The next step overwrites X.  The
        copy tail, p+1 copies of the last carry, is not formed.
        """
        X = np.empty((self.params.k + 1, self.N))
        carry = y_in
        for i in range(self.params.m):
            X[0] = carry
            self._taylor(X)
            carry = X.sum(axis=0)
            yield i, X, carry

    def _preconditioned(self, v: np.ndarray) -> np.ndarray:
        """(I - D^{-1} L) v for C = D - L: D is C's block diagonal over the m
        steps and the copy tail, and L holds the summation rows, which carry
        the sum of one step's blocks into the next step's start.

        So D^{-1} L v starts step i at sum_j v_{i-1,j} (step 0 at zero),
        fills in every step's Taylor terms by one `_taylor` over the
        (k+1, N, m) view of all steps, and holds sum_j v_{m-1,j} in every
        tail block."""
        m, k, N = self.params.m, self.params.k, self.N
        V = v.reshape(-1, N)
        sums = V[:m * (k + 1)].reshape(m, k + 1, N).sum(axis=1)
        out = np.empty_like(V)
        steps = out[:m * (k + 1)].reshape(m, k + 1, N)
        steps[0, 0] = 0.0
        steps[1:, 0] = sums[:-1]
        self._taylor(steps.transpose(1, 2, 0))
        out[m * (k + 1):] = sums[-1]
        return np.subtract(V, out, out=out).reshape(v.shape)

    def _matvec(self, x: np.ndarray) -> np.ndarray:
        """C x: x less, for each order j, (h/j) A times the (N, m) stack of
        every step's block j-1, less each step's sum at the next step's
        start, and less the block before each copy row.  It forms its own
        products with A, not `_taylor`'s, so a residual through it checks
        the kernel."""
        m, k, h, N = self.params.m, self.params.k, self.params.h, self.N
        X = x.reshape(-1, N)
        out = X.copy()
        tail = m * (k + 1)
        blocks = X[:tail].reshape(m, k + 1, N)
        rows = out[:tail].reshape(m, k + 1, N)
        for j in range(1, k + 1):
            rows[:, j] -= (h / j) * (self.A @ blocks[:, j - 1].T).T
        # step i's blocks sum into row (i+1)(k+1), the next start or the tail's first
        out[k + 1:tail + 1:k + 1] -= blocks.sum(axis=1)
        out[tail + 1:] -= X[tail:-1]
        return out.reshape(x.shape)


def assemble_C(A: sp.csr_array, params: TaylorSystemParams) -> MarchingOperator:
    """The (d+1)N-square marching matrix; unit lower triangular by blocks."""
    return MarchingOperator(A, params)


@dataclass
class MarchingSolution:
    """What post-selection and the step checks read of x = C^{-1} (e_0 kron
    y_in): starts holds the step blocks x_{i,0}, i = 0..m, row by row,
    final the last copy block x_{m,p}, and norm_sq is ||x||^2.

    All three are taken on the solution as solved, for y_in scaled by
    2^-exponent; `step_solution` and `extract_final` scale back.
    """
    starts: np.ndarray
    final: np.ndarray
    norm_sq: float
    exponent: int
    params: TaylorSystemParams
    residual: float
    iterations: int | None = None      # GMRES inner iterations; None for forward

    def extract_final(self) -> np.ndarray:
        return np.ldexp(self.final, self.exponent)

    def step_solution(self, i: int) -> np.ndarray:
        """The time-t=ih approximation x_{i,0}."""
        if not 0 <= i <= self.params.m:
            raise ValidationError(f"step index {i} outside 0..{self.params.m}")
        return np.ldexp(self.starts[i], self.exponent)


def _forward_fold(C: MarchingOperator, y: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, float, float]:
    """The forward solve as a fold over the steps that `C.march(y)` yields:
    (starts, final, ||x||^2, largest normalised probe gap) with x never
    formed.

    Each step's start is copied out, and the pairwise sum of its squares
    joins the `math.fsum` that gives ||x||^2.  Its rows of C x = e_0 kron y
    are checked by one probe, z from `default_rng(0)`, w = A^T z and
    a = |A|^T |z|: a coupling row, step i and j = 1..k, gives the gap
    |z^T x_{i,j} - (h/j) w^T x_{i,j-1}| against its normaliser
    (h/j) a^T |x_{i,j-1}|, and a summation row the gap
    |z^T x_{i+1,0} - sum_j z^T x_{i,j}| against sum_j |z|^T |x_{i,j}|.  In
    exact arithmetic a marched x has every gap zero; rounding keeps each
    gap within `C.probe_tol` times its normaliser, so the solve refuses a
    larger largest ratio.  An error e in a row is missed only if |z^T e|
    falls under that tolerance.  Underflow adds at most 2^-1075 to a
    product (Higham (2.8)); the normaliser is raised by mu / probe_tol,
    mu = 4 (N + k + 1)(1 + h)(||z||_1 + N (1 + M)) 2^-1074 with M the
    step's 2-norm, which bounds what all the products of one row add.
    The dot products are numpy products and pairwise sums over the step's
    (k+1, N) buffer, no BLAS, so no bit depends on the thread count.  The
    copy tail is p+1 copies of x_{m,0}: it adds (p+1) ||x_{m,0}||^2 to
    ||x||^2, and its copy rows, like row 0 (x_{0,0} = y), are exact copies.
    An overflowing march is left, numpy's warnings held back, at the first
    step whose squares or gaps are not finite.
    """
    m, k, p, h, N, A = C.params.m, C.params.k, C.params.p, C.params.h, C.N, C.A
    z = np.random.default_rng(0).standard_normal(N)
    w = A.T @ z
    # |A| shares A's index arrays: one temporary of nnz(A) floats
    a = sp.csr_array((np.abs(A.data), A.indices, A.indptr), shape=A.shape).T @ np.abs(z)
    coef = h / np.arange(1, k + 1)
    mu = math.ldexp(4.0 * (N + k + 1) * (1.0 + h), -1074) / C.probe_tol
    z1 = float(np.sum(np.abs(z)))
    starts = np.empty((m + 1, N))
    tmp = np.empty((k + 1, N))
    parts, gap = [], 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for i, X, carry in C.march(y):
            starts[i] = X[0]
            parts.append(sum_sq(X))
            zx = np.multiply(X, z, out=tmp).sum(axis=1)
            zax = np.abs(tmp, out=tmp).sum(axis=1)
            wx = np.multiply(X, w, out=tmp).sum(axis=1)
            ax = np.abs(np.multiply(X, a, out=tmp), out=tmp).sum(axis=1)
            floor = mu * (z1 + N * (1.0 + math.sqrt(parts[-1])))
            coupling = np.abs(zx[1:] - coef * wx[:-1]) / (coef * ax[:-1] + floor)
            summation = abs(np.sum(carry * z) - zx.sum()) / (zax.sum() + floor)
            # np.max, unlike max, keeps a NaN wherever it stands
            gap = float(np.max([gap, coupling.max(initial=0.0), summation]))
            if not (math.isfinite(parts[-1]) and math.isfinite(gap)):
                break
        starts[m] = carry
        parts.append((p + 1) * sum_sq(carry))
    return starts, carry, math.fsum(parts), gap


def solve_marching(C: MarchingOperator, y_in: np.ndarray,
                   solver: str = "forward") -> MarchingSolution:
    """Solve C x = e_0 kron y_in on y_in scaled by the power of two that
    brings max|y_in| into [1/2, 1): C is linear, so no bit changes on
    normal scales, and a tiny y_in underflows in neither GMRES, its
    residual, the probe nor ||x||^2.

    The forward march is checked by the fold's Freivalds probe: its
    residual is the largest normalised probe gap, and its target
    `C.probe_tol`, the rounding bound on that gap.  GMRES, whose x does
    not come from the march, is checked by its exact relative residual
    ||C x - e_0 kron y|| / ||y||, to min(delta, 1e-10), delta from
    C.params.  A residual not within its target (NaN included) or a
    non-finite ||x||^2 is refused."""
    params = C.params
    N, m, k, d, delta = C.N, params.m, params.k, params.d, params.delta
    if y_in.shape != (N,):
        raise ValidationError(f"y_in must have length {N}")
    e = np.frexp(np.max(np.abs(y_in)))[1]
    y = np.ldexp(y_in, -e)
    iterations = None
    if solver == "forward":
        starts, final, norm_sq, residual = _forward_fold(C, y)
        target = gate = C.probe_tol
    elif solver == "iterative":
        target = min(delta, SOLVE_FLOOR) if delta > 0 else SOLVE_FLOOR
        gate = max(target, 1e-12)
        # GMRES runs on D^{-1} C = I - D^{-1} L, C = D - L, whose right-hand
        # side D^{-1} (e_0 kron y) is step 0's Taylor terms from y.  D^{-1} L
        # is strictly lower triangular over the m steps and the tail: GMRES
        # ends within m+1 iterations, and the basis holds m+3 vectors;
        # restarts continue should rounding need more
        b = np.zeros((d + 1) * N)
        head = b[:(k + 1) * N].reshape(k + 1, N)
        head[0] = y
        C._taylor(head)
        op = spla.LinearOperator(C.shape, matvec=C._preconditioned, dtype=np.float64)
        presids = []
        x, info = spla.gmres(op, b, rtol=target / 10.0, atol=0.0,
                             restart=m + 2, maxiter=5000,
                             callback=presids.append, callback_type="pr_norm")
        if info != 0:
            raise NumericalError(f"gmres did not converge (info={info})")
        iterations = len(presids)
        X = x.reshape(d + 1, N)
        starts, final = X[:m * (k + 1) + 1:k + 1].copy(), X[d].copy()
        norm_sq = sum_sq(x)
        # the one product with C: C x - e_0 kron y
        r = C @ x
        r[:N] -= y
        residual = (math.sqrt(sum_sq(r))
                    / max(float(np.linalg.norm(y)), np.finfo(float).tiny))
    else:
        raise ValidationError(f"unknown solver '{solver}'")
    if not residual <= gate:
        raise NumericalError(
            f"solver '{solver}' residual {residual:.3e} misses target {target:.3e}"
        )
    if not math.isfinite(norm_sq):
        raise NumericalError(f"solver '{solver}' solution has ||x||^2 = {norm_sq}")
    return MarchingSolution(starts=starts, final=final, norm_sq=norm_sq, exponent=int(e),
                            params=params, residual=residual, iterations=iterations)


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


def step_errors_vs_expm(A: sp.csr_array, y_in: np.ndarray, sol: MarchingSolution,
                        exact: np.ndarray | None = None) -> list[dict]:
    """Per-step ||expm(A j h) y_in - x_{j,0}|| against the factorial bound.

    sol solves C x = e_0 kron y_in on this A.  exact holds the trajectory
    expm(A j h) y_in, j = 0..m, row by row; it defaults to `expm_trajectory`.
    """
    params = sol.params
    if exact is None:
        exact = expm_trajectory(A, y_in, params.h, params.m)
    norm_yin = float(vector_norm(y_in))
    # an int / int quotient underflows to 0 where float((k+1)!) would overflow
    inv_fact = 1 / math.factorial(params.k + 1)
    rows = []
    for j in range(params.m + 1):
        measured = float(vector_norm(exact[j] - sol.step_solution(j)))
        bound = 2.0 * j * (params.c + 1) * (params.c + 2) * norm_yin * inv_fact
        rows.append({"step": j, "measured": measured, "bound": bound})
    return rows


def _factor(Cs: sp.csr_array) -> spla.SuperLU:
    """SuperLU factor of the unit lower triangular C in its own order: the
    permutations are the identity, L = C and U = I, so there is no fill and
    each solve is one triangular substitution."""
    return spla.splu(Cs.tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0)


def condition_report(params: TaylorSystemParams, N: int, A: Callable[[], sp.csr_array],
                     dense_cap: int = DENSE_ORACLE_CAP) -> dict:
    """kappa(C) against 2e sqrt(k) (m(k+1)+p)(c+2), for C = `assemble_C` of
    the N-square A() at params.

    kappa = ||C|| ||C^{-1}|| by Lanczos on C assembled by `tocsr()` and on
    the inverse that its SuperLU factor applies, each certified from below:
    ||C|| by its row and column norms, ||C^{-1}|| by ||C^{-1} b|| / ||b|| for
    the all-ones probe b.  Measured while the size (d+1)N squared stays
    under the dense cap, which bounds the cost of both; above it A() is
    never called, C never assembled, and measured is None.  The bound's
    hypotheses are judged where its row is built, in `pipeline`.
    """
    m, k, p, c = params.m, params.k, params.p, params.c
    bound = 2.0 * math.e * math.sqrt(k) * (m * (k + 1) + p) * (c + 2)
    size = (params.d + 1) * N
    measured = None
    if size * size <= dense_cap:
        C = assemble_C(A(), params)
        Cs = C.tocsr()
        lu = _factor(Cs)
        inv = spla.LinearOperator(C.shape, matvec=lu.solve, dtype=np.float64,
                                  rmatvec=lambda b: lu.solve(b, trans="T"))
        # all ones: each step sums what came before, so C^{-1} amplifies it
        inv_floor = float(np.linalg.norm(lu.solve(np.ones(size)))) / math.sqrt(size)
        measured = spectral_norm(Cs) * spectral_norm(inv, lower=inv_floor)
    return {"bound": bound, "measured": measured}
