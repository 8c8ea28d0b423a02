"""Taylor time marching as one block linear system.

The marching matrix stacks m Taylor steps of order k plus p copy rows:
unit diagonal, -A h/j couplings inside each step, -identity summation rows
at step boundaries, -identity copy rows at the tail.  C is an operator, and
no solve stores it: it is applied a chunk of whole steps at a time, as many
steps as keep the chunk's k N r floats within CHUNK_FLOATS (at least one),
each chunk one product of A with its coupling blocks.  The system is unit
lower triangular, so forward substitution solves it exactly in m k
products with A, in place in the one array x; a residual checked GMRES on
the operator, preconditioned by the inverse of C's block diagonal over the
steps, doubles as an independent path.  The residual ||C x - e_0 kron
y_in|| is summed chunk by chunk through the same row blocks as C x, so
the forward path holds x plus the temporaries of one chunk.  The operator
applies neither C^T nor C^{-1}: the condition number ||C|| ||C^{-1}||, an
oracle run only under the dense cap, takes C assembled as a sparse matrix by
`tocsr()` and its SuperLU factor, which for unit lower triangular C is C
itself, with no fill.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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
# floats per chunk of a product with C (512 KiB): small against x on large
# instances, while small instances stay in one chunk, one scipy call a product
CHUNK_FLOATS = 2 ** 16


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
    certified on its own tail bound.
    """
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    if K == 0.0:
        sel = OrderSelection(c=0, c_formula=0, c_scan=0, c_required=0,
                             c_cap=None, epsilon1=0.0, eta_prime=0.0,
                             certified=True, warnings=["linear fast path (F2 = 0)"])
    else:
        sel = _budget_order(K, epsilon, eta, norm_u_in, norm_F2, re_lambda1, force)
    if c is None:
        return sel
    if sel.c_cap is not None and c > sel.c_cap:
        msg = (f"override c = {c} violates the exponential-norm precondition "
               f"(largest admissible order is {sel.c_cap})")
        if not force:
            raise ValidationError(msg)
        sel.warnings.insert(0, msg)
    if c != sel.c:
        sel.warnings.append(f"order override: using c = {c}, budget selection was {sel.c}")
    return replace(sel, c=c, certified=truncation_bound(K, c) <= sel.epsilon1)


def _budget_order(K: float, epsilon: float, eta: float, norm_u_in: float,
                  norm_F2: float, re_lambda1: float, force: bool) -> OrderSelection:
    """The budget's order for 0 < K, capped by the exponential-norm precondition."""
    warnings: list[str] = []
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
    warnings: list[str] = []
    m = step_counts(T, sys.norm_A)[0] if m is None else m
    p = m if p is None else p
    if m < 1 or p < 1:
        raise ValidationError("m and p must be positive")
    h = T / m if T > 0 else 0.0
    if sys.norm_A * h > 1.0 + 1e-9:
        msg = f"||A h|| = {sys.norm_A * h:.4g} > 1 breaks the per-step contract"
        if not force:
            raise ValidationError(msg)
        warnings.append(msg)

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
    if k is not None:
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
        c=c, h=h, m=m, k=k, p=p, d=d, delta=delta, epsilon1=sel.epsilon1,
        Omega=Omega, g_est=g, eta_est=eta, eta_prime=sel.eta_prime,
        norm_A=sys.norm_A, N=sys.index.N,
        hpm_budget_certified=sel.certified, warnings=warnings,
    )


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

    def march(self, y_in: np.ndarray) -> np.ndarray:
        """Solves C x = e_0 kron y_in in m k products with A, in place in x."""
        X = np.zeros((self.params.d + 1, self.N))
        X[0] = y_in
        return self._substitute(X).reshape(-1)

    def _substitute(self, X: np.ndarray) -> np.ndarray:
        """Overwrites the (d+1, N, ...) blocks X of b with C^{-1} b by forward
        substitution: m k products with A."""
        m, k, h = self.params.m, self.params.k, self.params.h
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
        return X

    def step_inverse(self) -> spla.LinearOperator:
        """D^{-1} as an operator, D the block diagonal of C over the m steps
        and the copy tail: C without its summation rows.  All steps are
        solved at once, in k products of A with an (N, m) stack."""
        m, k, h, d, N = self.params.m, self.params.k, self.params.h, self.params.d, self.N

        def solve(b: np.ndarray) -> np.ndarray:
            X = np.array(b, dtype=np.float64).reshape(d + 1, N, -1)
            steps = X[:m * (k + 1)].reshape(m, k + 1, N, -1)
            for j in range(1, k + 1):
                steps[:, j] += (h / j) * self._coupled(self.A, steps[:, j - 1:j])[:, 0]
            tail = X[m * (k + 1):]
            np.cumsum(tail, axis=0, out=tail)
            return X.reshape(np.shape(b))

        return spla.LinearOperator(self.shape, matvec=solve, matmat=solve, dtype=np.float64)

    def _chunks(self, r: int) -> range:
        """First steps of C's chunks for an r-column product: each chunk holds
        as many whole steps as keep its k N r floats within CHUNK_FLOATS."""
        per = max(1, CHUNK_FLOATS // (max(self.params.k, 1) * self.N * r))
        return range(0, self.params.m, per)

    def _coupled(self, M: sp.csr_array, blocks: np.ndarray) -> np.ndarray:
        """M applied to each block of an (s, k, N, r) stack, in one product
        M @ (N, s k r)."""
        s, k, N, r = blocks.shape
        src = np.moveaxis(blocks, 2, 0).reshape(N, s * k * r)
        return np.moveaxis((M @ src).reshape(N, s, k, r), 0, 2)

    def _row_blocks(self, x: np.ndarray, out: np.ndarray | None = None):
        """C x, x a (size, r) stack, as (first block, rows) pairs in row order:
        block 0, each chunk of steps, then the copy tail in chunks of as many
        blocks.  The rows are written into out, (d+1, N, r), where it is
        given, else into one chunk buffer that the next pair overwrites."""
        m, k, d, N = self.params.m, self.params.k, self.params.d, self.N
        r = x.shape[1]
        # row i(k+1)+j couples to block i(k+1)+j-1 with -h/j, j = 1..k
        coef = (-self.params.h / np.arange(1, k + 1))[None, :, None, None]
        X = x.reshape(d + 1, N, r)
        chunks = self._chunks(r)
        width = min(chunks.step, m) * (k + 1)
        buf = np.empty((width, N, r)) if out is None else None

        def rows_at(lo: int, hi: int) -> np.ndarray:
            return out[lo:hi] if buf is None else buf[:hi - lo]

        first = rows_at(0, 1)
        first[...] = X[:1]
        yield 0, first
        for i0 in chunks:
            i1 = min(i0 + chunks.step, m)
            lo, hi = i0 * (k + 1) + 1, i1 * (k + 1) + 1
            steps = X[lo - 1:hi - 1].reshape(i1 - i0, k + 1, N, r)
            # block i(k+1)+1+j is the coupling row j+1 of step i for j < k,
            # and its summation row (i+1)(k+1) for j = k
            Y = rows_at(lo, hi).reshape(i1 - i0, k + 1, N, r)
            Y[...] = X[lo:hi].reshape(i1 - i0, k + 1, N, r)
            Y[:, :k] += coef * self._coupled(self.A, steps[:, :k])
            Y[:, k] -= steps.sum(axis=1)
            yield lo, Y.reshape(-1, N, r)
        # copy rows m(k+1)+1..d
        for lo in range(m * (k + 1) + 1, d + 1, width):
            hi = min(lo + width, d + 1)
            yield lo, np.subtract(X[lo:hi], X[lo - 1:hi - 1], out=rows_at(lo, hi))

    def _matmat(self, x: np.ndarray) -> np.ndarray:
        out = np.empty((self.params.d + 1, self.N, x.shape[1]))
        for _ in self._row_blocks(x, out):
            pass
        return out.reshape(x.shape)

    def residual(self, x: np.ndarray, y_in: np.ndarray) -> float:
        """||C x - e_0 kron y_in||, squares summed a row block at a time by
        numpy's pairwise sums."""
        total = 0.0
        for lo, rows in self._row_blocks(x.reshape(-1, 1)):
            if lo == 0:
                rows -= y_in.reshape(1, -1, 1)
            total += float(np.sum(rows * rows))
        return math.sqrt(total)


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
    """Solve C x = e_0 kron y_in to relative residual min(delta, 1e-10), on
    y_in scaled by the power of two that brings max|y_in| into [1/2, 1): C is
    linear, so no bit changes on normal scales, and a tiny y_in underflows
    in neither GMRES nor the residual."""
    N = params.N
    if y_in.shape != (N,):
        raise ValidationError(f"y_in must have length {N}")
    target = min(delta, SOLVE_FLOOR) if delta > 0 else SOLVE_FLOOR
    e = np.frexp(np.max(np.abs(y_in)))[1]
    y = np.ldexp(y_in, -e)
    iterations = None
    if solver == "forward":
        x = C.march(y)
    elif solver == "iterative":
        rhs = np.zeros((params.d + 1) * N)
        rhs[:N] = y
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
    residual = C.residual(x, y) / max(float(np.linalg.norm(y)), np.finfo(float).tiny)
    if residual > max(target, 1e-12):
        raise NumericalError(
            f"solver '{solver}' residual {residual:.3e} misses target {target:.3e}"
        )
    return MarchingSolution(x=np.ldexp(x, e, out=x), params=params, residual=residual,
                            iterations=iterations)


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


def _factor(Cs: sp.csr_array) -> spla.SuperLU:
    """SuperLU factor of the unit lower triangular C in its own order: the
    permutations are the identity, L = C and U = I, so there is no fill and
    each solve is one triangular substitution."""
    return spla.splu(Cs.tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0)


def condition_report(C: MarchingOperator, params: TaylorSystemParams,
                     exp_norm_precondition_ok: bool,
                     dense_cap: int = DENSE_ORACLE_CAP) -> dict:
    """kappa(C) against 2e sqrt(k) (m(k+1)+p)(c+2).

    kappa = ||C|| ||C^{-1}|| by Lanczos on C assembled by `tocsr()` and on
    the inverse that its SuperLU factor applies, each certified from below:
    ||C|| by its row and column norms, ||C^{-1}|| by ||C^{-1} b|| / ||b|| for
    the all-ones probe b.  Measured while size^2 stays under the dense cap,
    which bounds the cost of both; above it C is never assembled.
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
        Cs = C.tocsr()
        lu = _factor(Cs)
        inv = spla.LinearOperator(C.shape, matvec=lu.solve, dtype=np.float64,
                                  rmatvec=lambda b: lu.solve(b, trans="T"))
        # all ones: each step sums what came before, so C^{-1} amplifies it
        inv_floor = float(np.linalg.norm(lu.solve(np.ones(size)))) / math.sqrt(size)
        measured = spectral_norm(Cs) * spectral_norm(inv, lower=inv_floor)
    return {
        "bound": bound,
        "measured": measured,
        "precondition_ok": all(preconditions.values()),
        "preconditions": preconditions,
        "pass": measured is None or measured <= bound,
    }
