"""Linear embedding of the perturbation cascade.

Level i of the embedded vector stacks Kronecker products of cascade orders:
component (i, j) is nu_{a_0} kron ... kron nu_{a_i} where the multi-index
(a_0..a_i) runs over all tuples with a_k >= 0 and sum a_k <= c - i, ordered
graded-lex with the all-zeros tuple first.  Level 0 is the single summed
vector nu_0 + ... + nu_c.  The stacked dynamics are linear, dy/dt = A y,
with A block upper bidiagonal over levels.  A is a `scipy.sparse`
`csr_array` built from Kronecker products: Kronecker sums of F1 on the
diagonal, each level's from the one below by S_i = S_{i-1} kron I_n +
I kron F1, and copies of F2 placed by 0/1 split matrices above it.  ||A||
comes with a closed-form bracket whose upper end sets the step count
m = ceil(T upper), so ||A h|| <= 1 holds by proof and no estimator of ||A||
runs on the solve path; A's logarithmic norm comes with a closed-form upper
end that certifies ||e^(At)|| <= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import BoundViolation, ValidationError
from .ode import QuadraticODE
from .sparse import max_line_nnz, spectral_norm

# default limit on the embedded dimension N (keeps direct solves desk-scale)
N_CAP = 200_000
# relative widening of both ends of the ||A|| bracket, and of the upper end
# of mu(A) by this share of the upper end of ||A||, past the rounding of the
# dense eigen- and singular-value solves and of the sums behind them
BRACKET_SLACK = 1e-12


def level_sizes(c: int) -> list[int]:
    """beta_i = 1 for i=0, else sum_{k=i}^{c} C(k, i)."""
    beta = [1]
    for i in range(1, c + 1):
        beta.append(sum(math.comb(k, i) for k in range(i, c + 1)))
    return beta


def total_dimension(n: int, c: int) -> int:
    """Closed form (n+1)^(c+1) - 1 - c*n for sum_i n^(i+1) beta_i."""
    return (n + 1) ** (c + 1) - 1 - c * n


def enumerate_level(c: int, i: int) -> list[tuple[int, ...]]:
    """Component enumeration of one level: graded-lex multi-indices.

    For i >= 1 these are all (i+1)-tuples with sum <= c - i, ordered by
    total then lexicographically, all-zeros first.  Level 0 stores the
    single summed component, conventionally the all-zeros singleton.
    """
    if i < 0 or i > c:
        raise ValidationError(f"level {i} outside 0..{c}")
    if i == 0:
        return [(0,)]
    out: list[tuple[int, ...]] = []
    for total in range(c - i + 1):
        _extend_with_sum(out, (), total, i + 1)
    return out


def _extend_with_sum(out: list, prefix: tuple[int, ...], remaining: int, length: int) -> None:
    """Append all length-sized extensions of prefix summing to exactly remaining."""
    if len(prefix) == length - 1:
        out.append(prefix + (remaining,))
        return
    for a in range(remaining + 1):
        _extend_with_sum(out, prefix + (a,), remaining - a, length)


@dataclass
class EmbeddingIndexMap:
    c: int
    n: int
    beta: list[int]
    offsets: list[int]                      # start of each level in the stacked vector
    N: int
    levels: list[list[tuple[int, ...]]]     # enumeration per level

    def __post_init__(self):
        self._rank = [
            {a: j for j, a in enumerate(level)} for level in self.levels
        ]

    def rank(self, i: int, a: tuple[int, ...]) -> int:
        if i < 0 or i > self.c:
            raise ValidationError(f"level {i} outside 0..{self.c}")
        try:
            return self._rank[i][tuple(a)]
        except KeyError:
            raise ValidationError(f"multi-index {a} not admissible at level {i}") from None

    def block_slice(self, i: int, j: int) -> slice:
        start = self.offsets[i] + j * self.n ** (i + 1)
        return slice(start, start + self.n ** (i + 1))

    def level_slice(self, i: int) -> slice:
        return slice(self.offsets[i], self.offsets[i] + self.beta[i] * self.n ** (i + 1))


def build_index_map(c: int, n: int, cap: int = N_CAP) -> EmbeddingIndexMap:
    if c < 0 or n < 1:
        raise ValidationError("need c >= 0 and n >= 1")
    N = total_dimension(n, c)
    if N > cap:
        raise ValidationError(f"embedded dimension {N} exceeds cap {cap}")
    beta = level_sizes(c)
    levels = [enumerate_level(c, i) for i in range(c + 1)]
    for i, level in enumerate(levels):
        if len(level) != beta[i]:
            raise ValidationError(
                f"enumeration bug: level {i} has {len(level)} tuples, beta says {beta[i]}"
            )
    offsets, pos = [], 0
    for i in range(c + 1):
        offsets.append(pos)
        pos += beta[i] * n ** (i + 1)
    if pos != N:
        raise ValidationError(f"offset bookkeeping bug: {pos} != {N}")
    return EmbeddingIndexMap(c=c, n=n, beta=beta, offsets=offsets, N=N, levels=levels)


@dataclass
class EmbeddedSystem:
    index: EmbeddingIndexMap
    A: sp.csr_array
    y_in: np.ndarray
    norm_A: float               # closed-form upper end of ||A||
    norm_A_lower: float         # closed-form lower end: lower <= ||A|| <= norm_A
    log_norm_A_upper: float     # closed-form upper end of mu(A)


def step_counts(T: float, norm_A: float) -> tuple[int, float]:
    """m = ceil(T ||A||) steps of h = T/m, so ||A h|| <= 1."""
    if T < 0:
        raise ValidationError("T must be nonnegative")
    if T == 0:
        return 1, 0.0
    m = max(1, math.ceil(T * norm_A - 1e-12))
    return m, T / m


def _split_matrix(index: EmbeddingIndexMap, i: int, k: int) -> np.ndarray:
    """P_{i,k}: 1 where splitting slot k of a level-i multi-index gives a level-(i+1) one."""
    P = np.zeros((index.beta[i], index.beta[i + 1]))
    for j, a in enumerate(index.levels[i]):
        for split in range(a[k]):
            refined = a[:k] + (split, a[k] - 1 - split) + a[k + 1:]
            P[j, index.rank(i + 1, refined)] = 1.0
    return P


def _schur_bound(block: sp.csr_array) -> float:
    """sqrt(||B||_1 ||B||_inf), an upper bound on ||B||_2."""
    mag = abs(block)
    return math.sqrt(mag.sum(axis=0).max()) * math.sqrt(mag.sum(axis=1).max())


def assemble_A(ode: QuadraticODE, c: int, cap: int = N_CAP) -> EmbeddedSystem:
    """Assemble the block upper bidiagonal embedding matrix, y(0) and the ||A|| bracket.

    Diagonal block i: I_{beta_i} kron S_i, S_i = sum_k I^k kron F1 kron I^(i-k)
    the Kronecker sum of i+1 copies of F1, built by the recurrence
    S_0 = F1, S_i = S_{i-1} kron I_n + I_{n^i} kron F1.
    Level 0 couples to every level-1 component through a copy of F2.  For
    i >= 1, splitting slot k of a row multi-index into (l, a_k-1-l) targets
    the level-(i+1) component with that refined multi-index through
    I^k kron F2 kron I^(i-k), so block (i, i+1) is
    sum_k P_{i,k} kron I^k kron F2 kron I^(i-k).  Sums run over k = 0..i in
    order; an entry of a sum of two or more terms that comes to exactly
    zero is not stored.

    ||A|| is bracketed in closed form.  A = D + U with D block diagonal and
    U block superdiagonal: the spectral radius (c+1) rho(F1) of D's last
    block is a lower end, (c+1) sigma_1(F1) + max_i sqrt(||U_i||_1 ||U_i||_inf)
    an upper one.  The upper end is the system's norm_A: any upper bound on
    ||A|| keeps ||A h|| <= 1 for h = T / ceil(T norm_A), so no estimate of
    ||A|| is taken here.

    The logarithmic norm mu(A) = lambda_max((A + A^T)/2) has a closed-form
    upper end from the same pieces: D's block i has log norm (i+1) mu(F1),
    and the U_i occupy disjoint row and column blocks, so ||U|| = max_i ||U_i||
    and mu(A) <= mu(D) + ||U|| <= max(mu(F1), (c+1) mu(F1)) + coupling, the
    coupling term of the upper end above.  It is raised by BRACKET_SLACK
    times that upper end.  When it is at most 0, ||e^(At)|| <= e^(mu(A) t)
    <= 1 for every t >= 0.
    """
    index = build_index_map(c, ode.n, cap)
    n, F1, F2 = ode.n, ode.F1.csr, ode.F2.csr
    sizes = [index.beta[i] * n ** (i + 1) for i in range(c + 1)]
    # with every block csr, empty ones included, block_array joins the csr
    # arrays directly instead of copying all entries through one COO
    blocks = [[sp.csr_array((rows, cols)) for cols in sizes] for rows in sizes]
    S = F1
    for i in range(c + 1):
        if i:
            S = (sp.kron(S, sp.eye_array(n), format="csr")
                 + sp.kron(sp.eye_array(n ** i), F1, format="csr"))
        # beta_0 = beta_c = 1: the top level, the largest, is S_c itself
        blocks[i][i] = (S if index.beta[i] == 1
                        else sp.kron(sp.eye_array(index.beta[i]), S, format="csr"))
    if F2.nnz and c >= 1:
        blocks[0][1] = sp.kron(np.ones((1, index.beta[1])), F2, format="csr")
        slots = [F2]        # I^k kron F2 kron I^(i-k), k = 0..i, at level i
        for i in range(1, c):
            slots = [*(sp.kron(t, sp.eye_array(n), format="csr") for t in slots),
                     sp.kron(sp.eye_array(n ** i), F2, format="csr")]
            blocks[i][i + 1] = sum(sp.kron(_split_matrix(index, i, k), t, format="csr")
                                   for k, t in enumerate(slots))
    coupling = max((_schur_bound(blocks[i][i + 1]) for i in range(c)), default=0.0)
    lower = (c + 1) * float(np.abs(ode.eigs_F1).max(initial=0.0)) * (1 - BRACKET_SLACK)
    upper = (c + 1) * ode.norm_F1 + coupling
    mu = ode.log_norm_F1
    log_norm_upper = max(mu, (c + 1) * mu) + coupling + BRACKET_SLACK * upper
    upper *= 1 + BRACKET_SLACK

    return EmbeddedSystem(index=index, A=sp.block_array(blocks, format="csr"),
                          y_in=assemble_y_in(ode, index), norm_A=upper, norm_A_lower=lower,
                          log_norm_A_upper=log_norm_upper)


def assemble_y_in(ode: QuadraticODE, index: EmbeddingIndexMap) -> np.ndarray:
    """Initial vector: block (i, 0) holds u_in^(kron i+1), all else zero."""
    y = np.zeros(index.N)
    power = ode.u_in.copy()
    y[index.block_slice(0, 0)] = power
    for i in range(1, index.c + 1):
        power = np.kron(power, ode.u_in)
        y[index.block_slice(i, 0)] = power
    return y


def embedded_norm_profile(index: EmbeddingIndexMap, order_norms: np.ndarray,
                          level0_norms: np.ndarray) -> np.ndarray:
    """||y(t)|| over a grid from per-order norms, no Kronecker materialization.

    order_norms: (c+1, len(ts)) array of ||nu_i(t)||; level0_norms:
    ||sum_i nu_i(t)|| per grid point.  Kronecker norms multiply, blocks are
    orthogonal components of the stacked vector.
    """
    blocks = [level0_norms, *(np.prod(order_norms[list(a), :], axis=0)
                              for i in range(1, index.c + 1) for a in index.levels[i])]
    # one exact power-of-two rescale keeps the squares clear of underflow
    exp = math.frexp(max(float(b.max(initial=0.0)) for b in blocks))[1]
    return np.ldexp(np.sqrt(sum(np.ldexp(b, -exp) ** 2 for b in blocks)), exp)


def _kron_sum_apply(F1: sp.csr_array, x: np.ndarray, beta: int, n: int, i: int) -> np.ndarray:
    """(I_beta kron sum_k I^k kron F1 kron I^(i-k)) x, F1 applied along each tensor axis."""
    X = x.reshape(beta, *(n,) * (i + 1))
    out = np.zeros_like(X)
    for axis in range(1, i + 2):
        Y = np.moveaxis(X, axis, 0)
        out += np.moveaxis((F1 @ Y.reshape(n, -1)).reshape(Y.shape), 0, axis)
    return out.ravel()


def structural_report(sys: EmbeddedSystem, ode: QuadraticODE, norm_F2: float,
                      re_lambda1: float) -> dict:
    """Sparsity, norm, and spectrum diagnostics of the assembled matrix.

    A must be block upper bidiagonal over levels, and each level's diagonal
    block must act as I_beta kron sum_k I^k kron F1 kron I^(i-k), which one
    seeded probe per level checks against F1 applied along each tensor axis.
    The spectrum of A is then the union of its diagonal blocks' spectra,
    sums of i+1 eigenvalues of F1, so max Re(eigenvalue of A) is
    re_lambda1 = max Re(eigenvalue of F1), reached at level 0.
    Violations of the proved bounds are assembly bugs and raise; the report
    also carries the softer O(s c^2) witness comparison for the caller.

    ||A|| <= (c+1)(||F1|| + ||F2||) is shown by the closed-form upper end
    norm_A.  Only where that end lies above the bound is ||A|| estimated, by
    Lanczos certified from the lower end; `norm_A_estimate` holds it (None
    when no estimate ran), and only the estimate can raise.
    """
    index, A = sys.index, sys.A
    c, n, s = index.c, index.n, ode.s
    report: dict = {"N": index.N, "c": c, "n": n, "s": s}

    indptr, indices = A.indptr, A.indices
    for i in range(c + 1):
        # level-i rows may only reach columns of levels i and i+1
        lvl, end = index.level_slice(i), index.level_slice(min(i + 1, c)).stop
        cols = indices[indptr[lvl.start]:indptr[lvl.stop]]
        if cols.size and (cols.min() < lvl.start or cols.max() >= end):
            raise BoundViolation("entries outside the block bidiagonal structure")

    max_row, max_col = max_line_nnz(A)
    witness = s * c * c + c
    # proved per-level counts: level-0 rows see F1 plus beta_1 copies of F2;
    # any other row sees at most (i+1)s diagonal plus (c-i)s coupling entries
    beta1 = index.beta[1] if c >= 1 else 0
    tight_row = max(s * (1 + beta1), (c + 1) * s) if c >= 1 else s
    tight_col = (2 * c + 1) * s if c >= 1 else s
    report["max_row_nnz"] = max_row
    report["max_col_nnz"] = max_col
    report["sparsity_witness"] = witness
    report["sparsity_within_witness"] = max(max_row, max_col) <= witness
    if max_row > tight_row or max_col > tight_col:
        raise BoundViolation(
            f"sparsity {max(max_row, max_col)} exceeds the proved bound "
            f"(rows<={tight_row}, cols<={tight_col})"
        )

    norm_bound = (c + 1) * (ode.norm_F1 + norm_F2)
    report["norm_A"] = sys.norm_A
    report["norm_A_lower"] = sys.norm_A_lower
    report["norm_A_estimate"] = None
    report["log_norm_A_upper"] = sys.log_norm_A_upper
    report["norm_A_bound"] = norm_bound
    if sys.norm_A > norm_bound * (1 + 1e-9):
        est = spectral_norm(A, lower=sys.norm_A_lower)
        report["norm_A_estimate"] = est
        if est > norm_bound * (1 + 1e-9):
            raise BoundViolation(
                f"||A|| = {est:.6g} exceeds (c+1)(||F1||+||F2||) = {norm_bound:.6g}"
            )

    rng = np.random.default_rng(0)
    for i in range(c + 1):
        lvl = index.level_slice(i)
        x = np.zeros(index.N)
        x[lvl] = rng.standard_normal(lvl.stop - lvl.start)
        got = (A @ x)[lvl]
        want = _kron_sum_apply(ode.F1.csr, x[lvl], index.beta[i], n, i)
        # rounding of the i+1 sums of F1 rows stays far below this
        if np.abs(got - want).max() > 1e-10 * (i + 1) * ode.norm_F1 * np.abs(x).max():
            raise BoundViolation(f"diagonal block of level {i} is not I_beta kron "
                                 "the Kronecker sum of F1")

    report["max_re_eigenvalue"] = re_lambda1
    if re_lambda1 >= 0:
        raise BoundViolation(f"embedded matrix has Re(eigenvalue) = {re_lambda1:.3e} >= 0")
    return report
