"""Linear embedding of the perturbation cascade.

Level i of the embedded vector stacks Kronecker products of cascade orders:
component (i, j) is nu_{a_0} kron ... kron nu_{a_i} where the multi-index
(a_0..a_i) runs over all tuples with a_k >= 0 and sum a_k <= c - i, ordered
graded-lex with the all-zeros tuple first.  Level 0 is the single summed
vector nu_0 + ... + nu_c.  The stacked dynamics are linear, dy/dt = A y,
A a block upper bidiagonal `csr_array` written row by row: in each slot F1
evolves one factor, and F2 splits it into two, a step up a level.  ||A||
comes with a closed-form bracket whose upper end sets the step count
m = ceil(T upper), so ||A h|| <= 1 holds by proof and no estimator of ||A||
runs on the solve path; A's logarithmic norm comes with a closed-form upper
end that certifies ||e^(At)|| <= 1.

The solve runs in a smaller space.  A joint permutation of the i+1 slots
of (a, t), multi-index and tensor index together, permutes the
coordinates of level i; Sym, the vectors constant on each orbit of these
permutations, holds y_in (block (i, 0) is u_in^(kron i+1) at a = 0) and
A keeps it: a diagonal block, a Kronecker sum of F1 over the slots,
commutes with the permutations, and a coupling splits one slot into two
adjacent ones, where on a symmetric argument it does not matter which
slot split; level 0 has no slots, one orbit per entry.  So every step of
the march stays in Sym (Harrow, "The church of the symmetric subspace",
arXiv:1308.6595).  `orbit_basis` numbers the orbits and labels each with
its level group, and `assemble_A_sym` gives A_sym, A in Sym's
orthonormal orbit basis, R-square for R orbits (946 for N = 6,536 at
n = 8, c = 3), from A's row builder run on one row per orbit.  A run reads
x in that basis; only `--emit-blocks` expands it.  A^T does not keep Sym,
so the checks on A itself, its norm, spectrum and exponential, run on the
full A.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import BoundViolation, NumericalError, ValidationError
from .ode import QuadraticODE
from .sparse import max_line_nnz, spectral_norm, vector_norm

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


def _rows_of_A(ode: QuadraticODE, index: EmbeddingIndexMap, pos: np.ndarray):
    """(data, indices, indptr) of A's rows at the coordinates pos, given level
    by level, by the rule in `assemble_A`.  A row is pieces, each a span of a
    row of F1 or F2 whose column u lands in A's column base + scale u, in the
    order that makes the columns ascend: at level i >= 1, row t_s of F1 left
    of its diagonal for s = 0..i, the diagonal, row t_s right of it for
    s = i..0, then row t_k of F2 for each split of slot k at l, in order of k
    and l.  The zeros off level 0 are dropped last."""
    n, c, F1, F2 = index.n, index.c, ode.F1, ode.F2
    f1, f2, d1 = (F1.indices, F1.data), (F2.indices, F2.data), F1.diagonal()
    len1, len2 = np.diff(F1.indptr), np.diff(F2.indptr)
    row1 = np.repeat(np.arange(n), len1)
    left, right = (np.bincount(row1[side], minlength=n)
                   for side in (F1.indices < row1, F1.indices > row1))
    top = pos[pos < n]
    levels = [[(f1, F1.indptr[top], len1[top], np.zeros_like(top), 1),
               *((f2, F2.indptr[top], len2[top], index.offsets[1] + j * n * n + 0 * top, 1)
                 for j in range(index.beta[1] if c else 0))]]
    for i in range(1, c + 1):
        at = pos[(pos >= index.offsets[i]) & (pos < index.level_slice(i).stop)]
        j, T = np.divmod(at - index.offsets[i], n ** (i + 1))
        place = n ** np.arange(i, -1, -1)
        t = T[:, None] // place % n
        diag = sum((d1[t[:, s]] for s in range(1, i + 1)), start=d1[t[:, 0]])
        pieces = [(f1, F1.indptr[t[:, s]], left[t[:, s]], at - t[:, s] * place[s], place[s])
                  for s in range(i + 1)]
        pieces.append(((np.zeros_like(at), diag), np.arange(at.size), np.ones_like(at), at, 0))
        pieces += [(f1, F1.indptr[t[:, s] + 1] - right[t[:, s]], right[t[:, s]],
                    at - t[:, s] * place[s], place[s]) for s in reversed(range(i + 1))]
        for k, l in itertools.product(range(i + 1), range(c - i)):
            target = np.array([index.rank(i + 1, a[:k] + (l, a[k] - 1 - l) + a[k + 1:])
                               if l < a[k] else -1 for a in index.levels[i]])[j]
            base = (index.offsets[i + 1] + target * n ** (i + 2) + T % place[k]
                    + T // (n * place[k]) * (n * n * place[k]))
            pieces.append((f2, F2.indptr[t[:, k]], len2[t[:, k]] * (target >= 0), base, place[k]))
        levels.append(pieces)

    lengths = np.concatenate([sum(piece[2] for piece in pieces) for pieces in levels])
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    dtype = sp.get_index_dtype((F1.indices, F2.indices), maxval=max(index.N, indptr[-1]))
    indices, data = np.empty(indptr[-1], dtype=dtype), np.empty(indptr[-1])
    row = 0
    for pieces in levels:
        dst = indptr[row:row + pieces[0][1].size].copy()    # where each row's next piece goes
        row += dst.size
        for (cols, vals), start, cnt, base, scale in pieces:
            first = np.cumsum(cnt) - cnt
            step = np.arange(cnt.sum())
            out = np.repeat(dst - first, cnt) + step
            take = np.repeat(start - first, cnt) + step
            indices[out] = np.repeat(base, cnt) + scale * cols[take]
            data[out] = vals[take]
            dst += cnt
    # off level 0 an entry that is 0 is not stored; each row's span is recounted
    keep = data != 0
    keep[:indptr[top.size]] = True
    if not keep.all():
        indices, data, indptr = indices[keep], data[keep], np.append(0, np.cumsum(keep))[indptr]
    return data, indices, indptr.astype(dtype)


def assemble_A(ode: QuadraticODE, c: int, cap: int = N_CAP) -> EmbeddedSystem:
    """Assemble the block upper bidiagonal embedding matrix, y(0) and the ||A|| bracket.

    Row (j, t) of level i >= 1, t = (t_0..t_i) the tensor index of
    component a = (a_0..a_i), is what F1 and F2 do to its slots.  F1 acts
    along each slot s, sending t_s to t', and the diagonal sums F1[t_s, t_s]
    over the slots in slot order: the diagonal block is I_beta kron the
    Kronecker sum of F1.  F2 splits slot s into two adjacent slots
    (t', t''), in the level-(i+1) component that splitting a_s into
    (l, a_s - 1 - l) names.  Level 0 is F1 as stored, plus F2 as stored into
    every level-1 component; everywhere else an entry that comes to 0 is not
    stored.  `_rows_of_A` writes the rows by index arithmetic, and A is
    converted to CSR once, int32-indexed wherever F1 and F2 are and N fits.

    ||A|| is bracketed in closed form.  A = D + U with D block diagonal and
    U block superdiagonal: the spectral radius (c+1) rho(F1) of D's last
    block is a lower end, (c+1) sigma_1(F1) + max_i sqrt(||U_i||_1 ||U_i||_inf)
    an upper one, U_i the coupling of level i to level i+1 (0 at c = 0).
    The norms of U_i come from F2 alone.  Let r be the row sums of |F2| and
    G[u, v] the column sum of |F2| at column u n + v.  Splitting two
    different slots of a multi-index never names the same refined
    component, so no two terms of U_i share an entry and no |.| cancels.
    U_0 is beta_1 copies of F2 side by side: ||U_0||_inf = beta_1 max r and
    ||U_0||_1 = max G.  For i >= 1, row (a, t) of U_i sums a_s r[t_s] over
    the slots, so ||U_i||_inf = (c - i) max r, reached at a = (c - i, 0..0).
    Merging any adjacent pair of slots of an admissible level-(i+1)
    component gives an admissible level-i one, so column (b, t) of U_i sums
    G[t_k, t_k+1] over all i+1 adjacent pairs k, and ||U_i||_1 is the
    largest sum of G along a path t_0..t_i+1: the largest entry of the
    max-plus product of i+1 copies of G, at most (i+1) max G.  Since
    (i+1)(c-i) <= (c+1)^2/4 <= c(c+1)/2 = beta_1 for c >= 1, with the
    second inequality strict from c = 2, no product ||U_i||_1 ||U_i||_inf
    exceeds U_0's, and the coupling term is sqrt(max G) sqrt(beta_1 max r).
    The upper end is the system's norm_A: any upper bound on ||A|| keeps
    ||A h|| <= 1 for h = T / ceil(T norm_A), so no estimate of ||A|| is
    taken here.

    The logarithmic norm mu(A) = lambda_max((A + A^T)/2) has a closed-form
    upper end from the same pieces: D's block i has log norm (i+1) mu(F1),
    and the U_i occupy disjoint row and column blocks, so ||U|| = max_i ||U_i||
    and mu(A) <= mu(D) + ||U|| <= max(mu(F1), (c+1) mu(F1)) + coupling, the
    coupling term of the upper end above.  It is raised by BRACKET_SLACK
    times that upper end.  When it is at most 0, ||e^(At)|| <= e^(mu(A) t)
    <= 1 for every t >= 0.
    """
    index = build_index_map(c, ode.n, cap)
    A = sp.csr_array(_rows_of_A(ode, index, np.arange(index.N)), shape=(index.N, index.N))
    # max_i sqrt(||U_i||_1 ||U_i||_inf) is U_0's, from F2 alone, as derived above
    mag = abs(ode.F2)
    coupling = (math.sqrt(mag.sum(axis=0).max()) * math.sqrt(index.beta[1] * mag.sum(axis=1).max())
                if c else 0.0)
    lower = (c + 1) * float(np.abs(ode.eigs_F1).max(initial=0.0)) * (1 - BRACKET_SLACK)
    upper = (c + 1) * ode.norm_F1 + coupling
    mu = ode.log_norm_F1
    log_norm_upper = max(mu, (c + 1) * mu) + coupling + BRACKET_SLACK * upper
    upper *= 1 + BRACKET_SLACK

    return EmbeddedSystem(index=index, A=A, y_in=assemble_y_in(ode, index), norm_A=upper,
                          norm_A_lower=lower, log_norm_A_upper=log_norm_upper)


@dataclass
class OrbitBasis:
    """The orthonormal basis V of Sym, the vectors constant on each orbit of
    the joint permutations of a level's slots: column r of V is orbit r's
    0/1 indicator over sqrt(w_r), w_r its size.

    orbit[i] is coordinate i's orbit, reps[r] the first coordinate of orbit
    r, and root_w[r] = sqrt(w_r).  Level 0 comes first, one orbit per entry.
    group[r] is the level group i + sum(a) of orbit r's coordinates, which
    a slot permutation keeps, at level i >= 1, and -1 at level 0.
    """
    orbit: np.ndarray
    reps: np.ndarray
    root_w: np.ndarray
    group: np.ndarray

    def restrict(self, y: np.ndarray) -> np.ndarray:
        """V^T y for y in Sym: sqrt(w) y[reps]."""
        return self.root_w * y[self.reps]

    def expand(self, x: np.ndarray) -> np.ndarray:
        """V x along the last axis: (x / sqrt(w))[orbit]."""
        return np.take(x / self.root_w, self.orbit, axis=-1)


def orbit_basis(index: EmbeddingIndexMap) -> OrbitBasis:
    """Number the orbits of the slot permutations, one level at a time.

    Coordinate (a, t) of level i >= 1, a the multi-index and t the tensor
    index (t_0 the most significant digit, as kron orders it), has slots
    s = 0..i holding the codes a_s n + t_s < (c-i+1) n.  Its orbit is the
    multiset of its codes: sorted, they are the digits of one int64 key in
    base (c-i+1) n, and np.unique numbers the keys in order and gives each
    orbit's first coordinate and size.  A level whose largest key would not
    fit an int64 is refused before anything is allocated.
    """
    n, c = index.n, index.c
    top = max((((c - i + 1) * n) ** (i + 1) for i in range(1, c + 1)), default=0)
    if top - 1 > np.iinfo(np.int64).max:
        raise ValidationError(f"orbit keys reach {top} - 1, which overflows int64")
    orbit = np.empty(index.N, dtype=np.int64)
    orbit[:n] = np.arange(n)
    reps, sizes, groups = [np.arange(n)], [np.ones(n, dtype=np.int64)], [np.full(n, -1)]
    for i in range(1, c + 1):
        base = (c - i + 1) * n
        a = np.array(index.levels[i])
        t = np.indices((n,) * (i + 1)).reshape(i + 1, -1).T
        codes = np.sort((a[:, None, :] * n + t).reshape(-1, i + 1), axis=1)
        keys = codes @ base ** np.arange(i + 1, dtype=np.int64)
        _, first, inverse, counts = np.unique(keys, return_index=True,
                                              return_inverse=True, return_counts=True)
        level = index.level_slice(i)
        orbit[level] = inverse + sum(r.size for r in reps)
        reps.append(first + level.start)
        sizes.append(counts)
        groups.append(i + (codes[first] // n).sum(axis=1))
    return OrbitBasis(orbit=orbit, reps=np.concatenate(reps),
                      root_w=np.sqrt(np.concatenate(sizes)), group=np.concatenate(groups))


def assemble_A_sym(ode: QuadraticODE, sys: EmbeddedSystem, basis: OrbitBasis) -> sp.csr_array:
    """A_sym = V^T A V, with A V = V A_sym checked by one seeded probe.

    A keeps Sym, so A Q = Q A_red for Q the 0/1 orbit indicators, and
    A_red[r, s] sums row reps[r] of A over the columns of orbit s: the row
    builder writes A's rows at reps, their columns are mapped through orbit,
    and COO->CSR sums the duplicates, so the probe below holds the builder's
    two outputs, sys.A and A_sym, against each other.  Each entry is scaled
    on the way to A_sym = diag(sqrt w) A_red diag(1/sqrt w), which acts on
    the orthonormal coordinates, where ||x||^2 is a plain sum.

    The probe draws v from `default_rng(0)`, takes u = V v and a = |A| |u|,
    and refuses ||A u - V A_sym v|| above gamma_n (||a|| + ||a[reps][orbit]||),
    n = 2 rho + 30, rho the most nonzeros in a row of A, and gamma_n =
    n 2^-53 / (1 - n 2^-53) the bound on the relative rounding error of n
    operations (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, ch. 3).  In exact arithmetic both sides are sum_col A[i, col]
    v_s / sqrt(w_s) at coordinate i, s = orbit[col].  Coordinate i of A u
    meets u's square root and quotient, one product and at most rho - 1
    additions: within gamma_{rho+2} a_i.  Coordinate i of V A_sym v, in
    orbit r, meets in each term the two square roots, the quotient and the
    product that scale an entry of A, at most rho - 1 additions of
    duplicates, the product with v_s, at most rho - 1 additions over s,
    and the expansion's square root and quotient: within gamma_{2 rho + 5}
    a_{reps[r]}, as (|A_sym| |v|)_r <= sqrt(w_r) a_{reps[r]}.  +25
    leaves room for the subtraction and the three norms.  A map whose
    classes are not orbits of a subspace that A keeps makes row i and row
    reps[r] differ in exact arithmetic, and the probe misses that only
    where the difference is orthogonal to u.  Its cost is one product with
    A and one with |A|.
    """
    A, reps, orbit, root_w = sys.A, basis.reps, basis.orbit, basis.root_w
    R = reps.size
    data, indices, indptr = _rows_of_A(ode, sys.index, reps)
    # rows and cols in A's index dtype keep A_sym int32 wherever A is
    rows = np.repeat(np.arange(R, dtype=A.indices.dtype), np.diff(indptr))
    cols = orbit[indices].astype(A.indices.dtype)
    A_sym = sp.csr_array((data * (root_w[rows] / root_w[cols]), (rows, cols)), shape=(R, R))

    v = np.random.default_rng(0).standard_normal(R)
    u = basis.expand(v)
    leak = vector_norm(A @ u - basis.expand(A_sym @ v))
    # |A| shares A's index arrays: one temporary of nnz(A) floats
    a = sp.csr_array((np.abs(A.data), A.indices, A.indptr), shape=A.shape) @ np.abs(u)
    n = 2 * int(np.diff(A.indptr).max(initial=0)) + 30
    gamma = n * math.ldexp(1.0, -53) / (1 - n * math.ldexp(1.0, -53))
    tol = gamma * (vector_norm(a) + vector_norm(a[reps][orbit]))
    if not leak <= tol:
        raise NumericalError(f"A does not keep the orbit basis: A V v - V A_sym v "
                             f"has norm {leak:.3e}, over its rounding bound {tol:.3e}")
    return A_sym


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
    block must act as I_beta kron sum_k I^k kron F1 kron I^(i-k), which two
    seeded probes, one on the even levels and one on the odd, check against
    F1 applied along each tensor axis.
    The spectrum of A is then the union of its diagonal blocks' spectra,
    sums of i+1 eigenvalues of F1, so max Re(eigenvalue of A) is
    re_lambda1 = max Re(eigenvalue of F1), reached at level 0.  It is
    reported, not judged: `compute_K` refuses re_lambda1 >= 0 before any A
    is assembled, and the `embedding_spectrum` row judges it.
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

    # level i's rows read levels i and i+1 alone: one probe per parity of i
    x = np.random.default_rng(0).standard_normal(index.N)
    level = np.repeat(np.arange(c + 1), np.diff([*index.offsets, index.N]))
    for parity in range(min(c + 1, 2)):
        got = A @ np.where(level % 2 == parity, x, 0.0)
        for i in range(parity, c + 1, 2):
            lvl = index.level_slice(i)
            err = np.abs(got[lvl] - _kron_sum_apply(ode.F1, x[lvl], index.beta[i], n, i))
            # rounding of the i+1 sums of F1 rows stays far below this
            if err.max() > 1e-10 * (i + 1) * ode.norm_F1 * np.abs(x[lvl]).max():
                raise BoundViolation(f"diagonal block of level {i} is not I_beta kron "
                                     "the Kronecker sum of F1")

    report["max_re_eigenvalue"] = re_lambda1
    return report
