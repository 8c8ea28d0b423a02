"""Linear embedding of the perturbation cascade.

Level i of the embedded vector stacks Kronecker products of cascade orders:
component (i, j) is nu_{a_0} kron ... kron nu_{a_i} where the multi-index
(a_0..a_i) runs over all tuples with a_k >= 0 and sum a_k <= c - i, ordered
graded-lex with the all-zeros tuple first.  Level 0 is the single summed
vector nu_0 + ... + nu_c.  The stacked dynamics are linear, dy/dt = A y,
with A block upper bidiagonal over levels.  A is built from
`scipy.sparse` Kronecker products: Kronecker sums of F1 on the diagonal,
copies of F2 placed by 0/1 split matrices above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import BoundViolation, ValidationError
from .ode import QuadraticODE
from .sparse import SparseMatrix, spectral_norm

# default limit on the embedded dimension N (keeps direct solves desk-scale)
N_CAP = 200_000


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

    def unrank(self, i: int, j: int) -> tuple[int, ...]:
        if i < 0 or i > self.c:
            raise ValidationError(f"level {i} outside 0..{self.c}")
        if j < 0 or j >= self.beta[i]:
            raise ValidationError(f"rank {j} outside level {i} (beta={self.beta[i]})")
        return self.levels[i][j]

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
    A: SparseMatrix
    y_in: np.ndarray
    norm_A: float


def _in_slot(mat: sp.csr_array, n: int, k: int, i: int) -> sp.csr_array:
    """I_n^(kron k) kron mat kron I_n^(kron i-k)."""
    return sp.kron(sp.kron(sp.eye_array(n ** k), mat, format="coo"),
                   sp.eye_array(n ** (i - k)), format="csr")


def _split_matrix(index: EmbeddingIndexMap, i: int, k: int) -> np.ndarray:
    """P_{i,k}: 1 where splitting slot k of a level-i multi-index gives a level-(i+1) one."""
    P = np.zeros((index.beta[i], index.beta[i + 1]))
    for j, a in enumerate(index.levels[i]):
        for split in range(a[k]):
            refined = a[:k] + (split, a[k] - 1 - split) + a[k + 1:]
            P[j, index.rank(i + 1, refined)] = 1.0
    return P


def assemble_A(ode: QuadraticODE, c: int, cap: int = N_CAP,
               norm_tol: float = 1e-10) -> EmbeddedSystem:
    """Assemble the block upper bidiagonal embedding matrix and y(0).

    Diagonal block i: I_{beta_i} kron sum_k I^k kron F1 kron I^(i-k).
    Level 0 couples to every level-1 component through a copy of F2.  For
    i >= 1, splitting slot k of a row multi-index into (l, a_k-1-l) targets
    the level-(i+1) component with that refined multi-index through
    I^k kron F2 kron I^(i-k), so block (i, i+1) is
    sum_k P_{i,k} kron I^k kron F2 kron I^(i-k).  Sums run over k = 0..i in
    order; an entry of a sum of two or more terms that comes to exactly
    zero is not stored.
    """
    index = build_index_map(c, ode.n, cap)
    n, F1, F2 = ode.n, ode.F1.csr, ode.F2.csr
    sizes = [index.beta[i] * n ** (i + 1) for i in range(c + 1)]
    # with every block csr, empty ones included, block_array joins the csr
    # arrays directly instead of copying all entries through one COO
    blocks = [[sp.csr_array((rows, cols)) for cols in sizes] for rows in sizes]
    for i in range(c + 1):
        blocks[i][i] = sp.kron(sp.eye_array(index.beta[i]),
                               sum(_in_slot(F1, n, k, i) for k in range(i + 1)), format="csr")
    if F2.nnz and c >= 1:
        blocks[0][1] = sp.kron(np.ones((1, index.beta[1])), F2, format="csr")
        for i in range(1, c):
            blocks[i][i + 1] = sum(
                sp.kron(_split_matrix(index, i, k), _in_slot(F2, n, k, i), format="csr")
                for k in range(i + 1))

    A = SparseMatrix(sp.block_array(blocks, format="csr"))
    y_in = assemble_y_in(ode, index)
    norm_A = spectral_norm(A, tol=norm_tol) if A.nnz else 0.0
    return EmbeddedSystem(index=index, A=A, y_in=y_in, norm_A=norm_A)


def assemble_y_in(ode: QuadraticODE, index: EmbeddingIndexMap) -> np.ndarray:
    """Initial vector: block (i, 0) holds u_in^(kron i+1), all else zero."""
    y = np.zeros(index.N)
    power = ode.u_in.copy()
    y[index.block_slice(0, 0)] = power
    for i in range(1, index.c + 1):
        power = np.kron(power, ode.u_in)
        y[index.block_slice(i, 0)] = power
    return y


def build_embedded_vector(index: EmbeddingIndexMap, nus: np.ndarray) -> np.ndarray:
    """Stack one time slice of the cascade into the embedded layout.

    nus has shape (c+1, n).  Level 0 gets the order sum; component (i, j)
    gets the Kronecker chain over its multi-index.
    """
    if nus.shape != (index.c + 1, index.n):
        raise ValidationError(f"need cascade slice of shape ({index.c + 1}, {index.n})")
    y = np.zeros(index.N)
    y[index.block_slice(0, 0)] = nus.sum(axis=0)
    for i in range(1, index.c + 1):
        for j, a in enumerate(index.levels[i]):
            block = nus[a[0]]
            for digit in a[1:]:
                block = np.kron(block, nus[digit])
            y[index.block_slice(i, j)] = block
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


def row_pattern_Bm(F1: SparseMatrix, m: int, row: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Nonzero-column pattern of one row of B(m) = sum_j I^j kron F1 kron I^(m-j).

    row is the digit string (j_m, ..., j_0), most significant first.  The
    diagonal of F1 counts as structurally nonzero.  Recursion: columns that
    replace the leading digit with a pre-diagonal neighbour, then the B(m-1)
    pattern of the remaining digits under an unchanged leading digit, then
    the post-diagonal leading replacements.
    """
    n = F1.rows
    row = tuple(int(d) for d in row)
    if len(row) != m + 1:
        raise ValidationError(f"row needs {m + 1} digits, got {len(row)}")
    if any(d < 0 or d >= n for d in row):
        raise ValidationError(f"digits must lie in [0, {n})")

    indptr, indices = F1.csr.indptr, F1.csr.indices
    cols_cache: dict[int, list[int]] = {}

    def cols_of(j: int) -> list[int]:
        if j not in cols_cache:
            pattern = set(indices[indptr[j]:indptr[j + 1]].tolist())
            pattern.add(j)  # structural diagonal
            cols_cache[j] = sorted(pattern)
        return cols_cache[j]

    def rec(digits: tuple[int, ...]) -> list[tuple[int, ...]]:
        lead = digits[0]
        cols = cols_of(lead)
        gpos = cols.index(lead)
        if len(digits) == 1:
            return [(k,) for k in cols]
        out = [(k,) + digits[1:] for k in cols[:gpos]]
        out.extend((lead,) + sub for sub in rec(digits[1:]))
        out.extend((k,) + digits[1:] for k in cols[gpos + 1:])
        return out

    return rec(row)


def _kron_sum_apply(F1: sp.csr_array, x: np.ndarray, beta: int, n: int, i: int) -> np.ndarray:
    """(I_beta kron sum_k I^k kron F1 kron I^(i-k)) x, F1 applied along each tensor axis."""
    X = x.reshape(beta, *(n,) * (i + 1))
    out = np.zeros_like(X)
    for axis in range(1, i + 2):
        Y = np.moveaxis(X, axis, 0)
        out += np.moveaxis((F1 @ Y.reshape(n, -1)).reshape(Y.shape), 0, axis)
    return out.ravel()


def structural_report(sys: EmbeddedSystem, ode: QuadraticODE, norm_F1: float,
                      norm_F2: float, re_lambda1: float) -> dict:
    """Sparsity, norm, and spectrum diagnostics of the assembled matrix.

    A must be block upper bidiagonal over levels, and each level's diagonal
    block must act as I_beta kron sum_k I^k kron F1 kron I^(i-k), which one
    seeded probe per level checks against F1 applied along each tensor axis.
    The spectrum of A is then the union of its diagonal blocks' spectra,
    sums of i+1 eigenvalues of F1, so max Re(eigenvalue of A) is
    re_lambda1 = max Re(eigenvalue of F1), reached at level 0.
    Violations of the proved bounds are assembly bugs and raise; the report
    also carries the softer O(s c^2) witness comparison for the caller.
    """
    index, A = sys.index, sys.A
    c, n, s = index.c, index.n, ode.s
    report: dict = {"N": index.N, "c": c, "n": n, "s": s}

    indptr, indices = A.csr.indptr, A.csr.indices
    for i in range(c + 1):
        # level-i rows may only reach columns of levels i and i+1
        lvl, end = index.level_slice(i), index.level_slice(min(i + 1, c)).stop
        cols = indices[indptr[lvl.start]:indptr[lvl.stop]]
        if cols.size and (cols.min() < lvl.start or cols.max() >= end):
            raise BoundViolation("entries outside the block bidiagonal structure")

    max_row = int(np.diff(indptr).max())
    max_col = int(np.bincount(indices, minlength=index.N).max())
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

    norm_bound = (c + 1) * (norm_F1 + norm_F2)
    report["norm_A"] = sys.norm_A
    report["norm_A_bound"] = norm_bound
    if sys.norm_A > norm_bound * (1 + 1e-9):
        raise BoundViolation(
            f"||A|| = {sys.norm_A:.6g} exceeds (c+1)(||F1||+||F2||) = {norm_bound:.6g}"
        )

    rng = np.random.default_rng(0)
    for i in range(c + 1):
        lvl = index.level_slice(i)
        x = np.zeros(index.N)
        x[lvl] = rng.standard_normal(lvl.stop - lvl.start)
        got = (A.csr @ x)[lvl]
        want = _kron_sum_apply(ode.F1.csr, x[lvl], index.beta[i], n, i)
        # rounding of the i+1 sums of F1 rows stays far below this
        if np.abs(got - want).max() > 1e-10 * (i + 1) * norm_F1 * np.abs(x).max():
            raise BoundViolation(f"diagonal block of level {i} is not I_beta kron "
                                 "the Kronecker sum of F1")

    report["max_re_eigenvalue"] = re_lambda1
    if re_lambda1 >= 0:
        raise BoundViolation(f"embedded matrix has Re(eigenvalue) = {re_lambda1:.3e} >= 0")
    return report
