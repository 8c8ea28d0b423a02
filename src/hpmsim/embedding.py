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
n = 8, c = 3), from A's rows at one representative per orbit.  A run reads
x in that basis; only `--emit-blocks` expands it.  The structural checks
read those rows too, and the counts of F1 and F2: a row's nonzero count
is constant on its orbit.  The full A is built on first read, and only
the oracles that need A itself read it: the dense exp-norm fallback and
the kappa(C) oracle, both under the dense cap, and the Lanczos ||A||
fallback.  A product in A's tensor form, written apart from the row
builder, checks A_sym and, wherever it is built, the full A.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import BoundViolation, NumericalError, ValidationError
from .ode import QuadraticODE
from .sparse import spectral_norm, vector_norm

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
    """The embedding of ode at order index.c: A's rows at the orbit
    representatives, basis.reps, as an R x N `rows`, y_in, and the closed-form
    ends of ||A|| and mu(A).  The full A is built on first read and checked
    against A's tensor form before it is returned."""
    ode: QuadraticODE
    index: EmbeddingIndexMap
    basis: OrbitBasis
    rows: sp.csr_array
    y_in: np.ndarray
    norm_A: float               # closed-form upper end of ||A||
    norm_A_lower: float         # closed-form lower end: lower <= ||A|| <= norm_A
    log_norm_A_upper: float     # closed-form upper end of mu(A)

    @cached_property
    def A(self) -> sp.csr_array:
        """A on all N coordinates, refused at the first level whose rows
        differ from the tensor form on one seeded probe (see `_tensor_gate`)."""
        N = self.index.N
        A = sp.csr_array(_rows_of_A(self.ode, self.index, np.arange(N)), shape=(N, N))
        x = np.random.default_rng(0).standard_normal(N)
        want, mag = _tensor_apply(self.ode, self.index, x)
        _tensor_gate(self.ode, self.index, A @ x - want, mag, BoundViolation,
                     "A's rows are not its tensor form")
        return A


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
    """The embedded system: the block upper bidiagonal embedding matrix A's
    rows at the orbit representatives, y(0) and the ||A|| bracket.

    Row (j, t) of level i >= 1, t = (t_0..t_i) the tensor index of
    component a = (a_0..a_i), is what F1 and F2 do to its slots.  F1 acts
    along each slot s, sending t_s to t', and the diagonal sums F1[t_s, t_s]
    over the slots in slot order: the diagonal block is I_beta kron the
    Kronecker sum of F1.  F2 splits slot s into two adjacent slots
    (t', t''), in the level-(i+1) component that splitting a_s into
    (l, a_s - 1 - l) names.  Level 0 is F1 as stored, plus F2 as stored into
    every level-1 component; everywhere else an entry that comes to 0 is not
    stored.  `_rows_of_A` writes the rows by index arithmetic, here at
    `orbit_basis`'s representatives and, when the full A is first read, at
    all N coordinates, converted to CSR once, int32-indexed wherever F1 and
    F2 are and N fits.

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
    basis = orbit_basis(index)
    rows = sp.csr_array(_rows_of_A(ode, index, basis.reps), shape=(basis.reps.size, index.N))
    # max_i sqrt(||U_i||_1 ||U_i||_inf) is U_0's, from F2 alone, as derived above
    mag = abs(ode.F2)
    coupling = (math.sqrt(mag.sum(axis=0).max()) * math.sqrt(index.beta[1] * mag.sum(axis=1).max())
                if c else 0.0)
    lower = (c + 1) * float(np.abs(ode.eigs_F1).max(initial=0.0)) * (1 - BRACKET_SLACK)
    upper = (c + 1) * ode.norm_F1 + coupling
    mu = ode.log_norm_F1
    log_norm_upper = max(mu, (c + 1) * mu) + coupling + BRACKET_SLACK * upper
    upper *= 1 + BRACKET_SLACK

    return EmbeddedSystem(ode=ode, index=index, basis=basis, rows=rows,
                          y_in=assemble_y_in(ode, index), norm_A=upper,
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


def assemble_A_sym(sys: EmbeddedSystem) -> sp.csr_array:
    """A_sym = V^T A V from sys.rows, with A V = V A_sym checked by one
    seeded probe of A's tensor form.

    A keeps Sym, so A Q = Q A_red for Q the 0/1 orbit indicators, and
    A_red[r, s] sums row reps[r] of A over the columns of orbit s: the
    rows at reps have their columns mapped through orbit, and COO->CSR sums
    the duplicates.  Each entry is scaled on the way to A_sym =
    diag(sqrt w) A_red diag(1/sqrt w), which acts on the orthonormal
    coordinates, where ||x||^2 is a plain sum.

    The probe draws v from `default_rng(0)` and takes u = V v.  Against
    V A_sym v it holds A u in the tensor form (`_tensor_apply`), whose
    products with F1 and F2 share no code with the row builder, so it checks
    A_sym's diagonal and coupling blocks alike.  In exact arithmetic both
    sides are sum_col A[i, col] v_s / sqrt(w_s) at coordinate i, s =
    orbit[col].  With a the tensor form's magnitudes on |u| and rho' the
    operation count of `_tensor_gate`, coordinate i of the tensor form
    meets u's square root and quotient besides: within gamma_{rho'+2} a_i.
    Coordinate i of V A_sym v, in orbit r, meets in each term the rounding
    of A's entry (at most c additions on the diagonal), the two square
    roots, the quotient and the product that scale it, at most rho - 1
    additions of duplicates, the product with v_s, at most rho - 1
    additions over s, and the expansion's square root and quotient: within
    gamma_{2 rho'+2} a_{reps[r]}, as (|A_sym| |v|)_r <= sqrt(w_r) a_{reps[r]}.
    So each level's gap is refused above gamma_n ||a + a[reps][orbit]|| on
    that level, n = 2 rho' + 30, the +28 leaving room for the subtraction,
    the norms and the rounding of a itself.  A map whose classes are not
    orbits of a subspace that A keeps makes row i and row reps[r] differ in
    exact arithmetic, and the probe misses that only where the difference
    is orthogonal to u.
    """
    basis, rows = sys.basis, sys.rows
    orbit, root_w, R = basis.orbit, basis.root_w, basis.reps.size
    # rows and cols in the rows' index dtype keep A_sym int32 wherever A is
    r = np.repeat(np.arange(R, dtype=rows.indices.dtype), np.diff(rows.indptr))
    cols = orbit[rows.indices].astype(rows.indices.dtype)
    A_sym = sp.csr_array((rows.data * (root_w[r] / root_w[cols]), (r, cols)), shape=(R, R))

    v = np.random.default_rng(0).standard_normal(R)
    u = basis.expand(v)
    want, mag = _tensor_apply(sys.ode, sys.index, u)
    _tensor_gate(sys.ode, sys.index, want - basis.expand(A_sym @ v),
                 mag + mag[basis.reps][orbit], NumericalError,
                 "A does not keep the orbit basis: A V v - V A_sym v")
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


def _tensor_apply(ode: QuadraticODE, index: EmbeddingIndexMap,
                  x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A x in A's tensor form, written apart from `_rows_of_A`, and the same
    product with |F1| and |F2| on |x|, the magnitudes of its terms.

    Level i, read as beta_i x n x .. x n (level 0 as 1 x n), takes F1 along
    each of its i+1 tensor axes.  Its coupling is read from the level
    above: component b of level i+1 is what splitting slot k of
    a = (b_0..b_k-1, b_k + b_k+1 + 1, b_k+2..) at l = b_k names, so F2 acts
    along b's axes k and k+1 into a's axis k, one batch per (level, slot k,
    split l), in which each a appears once.  Level 0 takes F2 on every
    level-1 component.  The blocks that F1 acts on are laid side by side
    for one product, and so are F2's.
    """
    n, c = index.n, index.c
    lvl = [index.level_slice(i) for i in range(c + 1)]
    # F1's blocks: level i's axis s between beta_i n^s rows and n^(i-s) columns
    axes = [(i, index.beta[i] * n ** s, n ** (i - s)) for i in range(c + 1) for s in range(i + 1)]
    # F2's batches (i, k, a, b): level-(i+1) components b into level-i ones a
    batches = []
    for i in range(1, c):
        b = np.array(index.levels[i + 1])
        for k in range(i + 1):
            merged = np.hstack([b[:, :k], b[:, k:k + 1] + b[:, k + 1:k + 2] + 1, b[:, k + 2:]])
            a = np.array([index.rank(i, tuple(m)) for m in merged.tolist()])
            batches += [(i, k, a[b[:, k] == l], np.flatnonzero(b[:, k] == l))
                        for l in range(c - i)]
    outs = []
    for F1, F2, v in ((ode.F1, ode.F2, x), (abs(ode.F1), abs(ode.F2), np.abs(x))):
        out = np.zeros_like(v)
        P1 = F1 @ np.hstack([v[lvl[i]].reshape(pre, n, post).transpose(1, 0, 2).reshape(n, -1)
                             for i, pre, post in axes])
        col = 0
        for i, pre, post in axes:
            out[lvl[i]] += P1[:, col:col + pre * post].reshape(n, pre, post).transpose(1, 0, 2).ravel()
            col += pre * post
        if c:
            X = [v[lvl[i + 1]].reshape(-1, n ** k, n * n, n ** (i - k))[b]
                 for i, k, _, b in batches]
            P2 = F2 @ np.hstack([v[lvl[1]].reshape(-1, n * n).T,
                                 *(Xb.transpose(2, 0, 1, 3).reshape(n * n, -1) for Xb in X)])
            out[:n] += P2[:, :index.beta[1]].sum(axis=1)
            col = index.beta[1]
            for (i, k, a, _), Xb in zip(batches, X):
                width = Xb.size // (n * n)
                Y = P2[:, col:col + width].reshape(n, Xb.shape[0], n ** k, n ** (i - k))
                out[lvl[i]].reshape(-1, n ** k, n, n ** (i - k))[a] += Y.transpose(1, 2, 0, 3)
                col += width
        outs.append(out)
    return outs[0], outs[1]


def _tensor_gate(ode: QuadraticODE, index: EmbeddingIndexMap, gap: np.ndarray,
                 scale: np.ndarray, error: type, what: str) -> None:
    """Refuse, at the first level where it holds, ||gap|| > gamma_n ||scale||
    over the level's coordinates, n = 2 rho' + 30.

    gamma_n = n 2^-53 / (1 - n 2^-53) bounds the relative rounding error of
    n operations (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, ch. 3).  A row of A x, as a CSR product or in the tensor form, is
    a sum of at most rho = (c+1) r1 + beta_1 r2 products, r1 and r2 the most
    entries F1 and F2 store in a row: i+1 slots of F1 and at most
    c - i <= beta_1 splits of F2 on level i >= 1, F1 and beta_1 copies of F2
    on level 0.  A term meets at most rho' = rho + c + 2 operations: at most
    c additions that form A's diagonal entry, or on level 0 the beta_1 - 1
    that sum F2's products over level 1's components, one product, and the
    additions of the row and of the slots.  So each side of A x - (tensor form) is within
    gamma_rho' of the magnitudes a the tensor form gives, and the gap
    within gamma_{2 rho'} a: for the probe of the full A, scale is a and
    the +30 leaves room for the subtraction, the norms and the rounding of
    a itself.
    """
    c = index.c
    r1, r2 = (int(np.diff(F.indptr).max(initial=0)) for F in (ode.F1, ode.F2))
    rho = (c + 1) * r1 + (index.beta[1] if c else 0) * r2 + c + 2
    n = 2 * rho + 30
    gamma = n * math.ldexp(1.0, -53) / (1 - n * math.ldexp(1.0, -53))
    for i in range(c + 1):
        lvl = index.level_slice(i)
        norm, tol = vector_norm(gap[lvl]), gamma * vector_norm(scale[lvl])
        if not norm <= tol:
            raise error(f"{what} at level {i} has norm {norm:.3e}, over its rounding "
                        f"bound {tol:.3e}")


def proved_line_counts(c: int, s: int) -> tuple[int, int]:
    """The proved most nonzeros of A in a row and in a column, s the most of
    F1 and F2 in a row or column.  A level-0 row sees F1 plus beta_1 copies
    of F2, and a row of level i >= 1 at most (i+1)s diagonal plus (c-i)s
    coupling entries.  A column of level i >= 1 sees at most (i+1)s entries
    of its diagonal block plus one column of F2 per adjacent pair of slots,
    i s, and a level-0 column sees F1's alone."""
    if c == 0:
        return s, s
    return max(s * (1 + c * (c + 1) // 2), (c + 1) * s), (2 * c + 1) * s


def _max_col_nnz(ode: QuadraticODE, index: EmbeddingIndexMap) -> int:
    """The most nonzeros in a column of A, level by level from the column
    counts of F1 and F2, with no A.

    Level 0's columns hold F1 as stored.  Column (b, t) of level i >= 1
    holds, from its diagonal block, F1's nonzeros off the diagonal in
    column t_s for each slot s, and the diagonal where its sum over the
    slots, in slot order, is nonzero; from the coupling, F2's column
    t_k n + t_k+1 for each adjacent pair k, since merging any adjacent pair
    of b names an admissible level-(i-1) component (see `assemble_A`).  No
    count depends on b.  Level 1's coupling rows are level 0's, which store
    F2 as it is; everywhere else only nonzeros count.  The counts are not
    constant on an orbit, as the rows' are: a permutation of the slots
    moves which of them are adjacent, so the representatives' rows give
    each orbit's mean count, not its largest.
    """
    n, c, F1, F2 = index.n, index.c, ode.F1, ode.F2
    diag = F1.diagonal()
    row1 = np.repeat(np.arange(n), np.diff(F1.indptr))
    off1 = np.bincount(F1.indices[(F1.indices != row1) & (F1.data != 0)], minlength=n)
    pairs = [np.bincount(F2.indices[keep], minlength=n * n).reshape(n, n)
             for keep in (slice(None), F2.data != 0)]
    best = int(np.bincount(F1.indices, minlength=n).max(initial=0))
    for i in range(1, c + 1):
        total, count = diag, off1
        for _ in range(i):
            total, count = np.add.outer(total, diag), np.add.outer(count, off1)
        for k in range(i):
            count = count + pairs[i > 1].reshape((1,) * k + (n, n) + (1,) * (i - 1 - k))
        best = max(best, int((count + (total != 0)).max()))
    return best


def structural_report(sys: EmbeddedSystem, norm_F2: float, re_lambda1: float) -> dict:
    """Sparsity, norm, and spectrum diagnostics of A, from its rows at the
    orbit representatives and the counts of F1 and F2.

    A must be block upper bidiagonal over levels: each representative's
    row of level i may reach only the columns of levels i and i+1.  The
    most nonzeros in a row is the most in a representative's row, as a
    row's count is constant on its orbit; the most in a column comes from
    F1 and F2 level by level (`_max_col_nnz`).  The diagonal blocks and
    the coupling are checked against A's tensor form by `assemble_A_sym`,
    and, wherever it is built, by the full A's own probe.
    The spectrum of A is the union of its diagonal blocks' spectra,
    sums of i+1 eigenvalues of F1, so max Re(eigenvalue of A) is
    re_lambda1 = max Re(eigenvalue of F1), reached at level 0.  It is
    reported, not judged: `compute_K` refuses re_lambda1 >= 0 before any A
    is assembled, and the `embedding_spectrum` row judges it.
    Violations of the proved bounds are assembly bugs and raise; the report
    also carries the softer O(s c^2) witness comparison for the caller.

    ||A|| <= (c+1)(||F1|| + ||F2||) is shown by the closed-form upper end
    norm_A.  Only where that end lies above the bound is ||A|| estimated, by
    Lanczos on the full A certified from the lower end; `norm_A_estimate`
    holds it (None when no estimate ran), and only the estimate can raise.
    """
    index, rows, ode = sys.index, sys.rows, sys.ode
    c, n, s = index.c, index.n, ode.s
    report: dict = {"N": index.N, "c": c, "n": n, "s": s}

    starts = np.append(index.offsets, index.N)
    level = np.searchsorted(starts, sys.basis.reps, side="right") - 1
    counts = np.diff(rows.indptr)
    lo, hi = (np.repeat(starts[e], counts) for e in (level, np.minimum(level + 2, c + 1)))
    outside = np.flatnonzero((rows.indices < lo) | (rows.indices >= hi))
    if outside.size:
        i = level[np.searchsorted(rows.indptr, outside[0], side="right") - 1]
        raise BoundViolation(f"entries of level {i} outside the block bidiagonal structure")

    max_row, max_col = int(counts.max(initial=0)), _max_col_nnz(ode, index)
    witness = s * c * c + c
    tight_row, tight_col = proved_line_counts(c, s)
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
        est = spectral_norm(sys.A, lower=sys.norm_A_lower)
        report["norm_A_estimate"] = est
        if est > norm_bound * (1 + 1e-9):
            raise BoundViolation(
                f"||A|| = {est:.6g} exceeds (c+1)(||F1||+||F2||) = {norm_bound:.6g}"
            )

    report["max_re_eigenvalue"] = re_lambda1
    return report
