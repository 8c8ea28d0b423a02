"""Test oracles: independent reference computations that a run never executes.

Each one restates a piece of the method by a second route (a closed form,
an explicit matrix, a per-component construction) so that the tests can
hold the pipeline's own code against it.  `marched_x` is the exception:
it rebuilds, from the steps that the march yields, the x that the forward
solve never forms, so that tests can read x's blocks from the code itself.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import scipy.sparse as sp

from hpmsim.cascade import HpmCascade
from hpmsim.embedding import EmbeddingIndexMap, OrbitBasis
from hpmsim.errors import NumericalError, ValidationError
from hpmsim.marching import TaylorSystemParams
from hpmsim.measurement import normalized_difference_bound
from hpmsim.sparse import DENSE_ORACLE_CAP, SparseMatrix, _check_cap, dense_expm, vector_norm


# -- the scalar Bernoulli instance -------------------------------------------

def bernoulli_closed_form(a: float, u0: float, t: float) -> float:
    """Exact solution of du/dt = -u + a u^2 with u(0) = u0.

    u(t) = 1 / (a + (1/u0 - a) e^t); the independent 1-d oracle.
    """
    if u0 == 0.0:
        return 0.0
    denom = a + (1.0 / u0 - a) * math.exp(t)
    denom0 = 1.0 / u0
    if denom == 0.0 or (denom > 0) != (denom0 > 0):
        raise NumericalError(f"Bernoulli solution crosses a pole before t={t}")
    return 1.0 / denom


# -- the perturbation cascade -------------------------------------------------

def catalan(c: int) -> list[int]:
    """alpha_0..alpha_c by the convolution recurrence, exact integers."""
    if c < 0:
        raise ValidationError("order must be nonnegative")
    alpha = [1]
    for i in range(c):
        alpha.append(sum(alpha[j] * alpha[i - j] for j in range(i + 1)))
    return alpha


def grid_index(cascade: HpmCascade, t: float) -> int:
    """The index of grid time t; off-grid times raise."""
    idx = int(np.argmin(np.abs(cascade.ts - t)))
    if abs(cascade.ts[idx] - t) > 1e-9 * max(1.0, abs(t)):
        raise ValidationError(f"t={t} is not on the cascade grid")
    return idx


def order_norms(cascade: HpmCascade) -> np.ndarray:
    """max over the grid of ||nu_i(t)||, one value per order."""
    return vector_norm(cascade.nu, axis=2).max(axis=1)


def truncated_solution(cascade: HpmCascade, t: float) -> np.ndarray:
    """Sum of all orders at time t.

    Off-grid times fall back to cubic interpolation and emit a warning so
    callers can tell sampled values from interpolated ones.
    """
    ts = cascade.ts
    if t < ts[0] - 1e-12 or t > ts[-1] + 1e-12:
        raise ValidationError(f"t={t} outside [{ts[0]}, {ts[-1]}]")
    total = cascade.nu.sum(axis=0)   # (len(ts), n)
    idx = int(np.argmin(np.abs(ts - t)))
    if abs(ts[idx] - t) <= 1e-9 * max(1.0, abs(t)):
        return total[idx].copy()
    warnings.warn(f"t={t} is off the cascade grid; using cubic interpolation",
                  stacklevel=2)
    return _cubic_interp(ts, total, t)


def _cubic_interp(ts: np.ndarray, ys: np.ndarray, t: float) -> np.ndarray:
    # Catmull-Rom on the four surrounding grid points
    k = int(np.searchsorted(ts, t)) - 1
    k = min(max(k, 1), len(ts) - 3)
    t0, t1 = ts[k], ts[k + 1]
    hgrid = t1 - t0
    s = (t - t0) / hgrid
    m0 = (ys[k + 1] - ys[k - 1]) / 2.0
    m1 = (ys[k + 2] - ys[k]) / 2.0
    h00 = 2 * s**3 - 3 * s**2 + 1
    h10 = s**3 - 2 * s**2 + s
    h01 = -2 * s**3 + 3 * s**2
    h11 = s**3 - s**2
    return h00 * ys[k] + h10 * m0 + h01 * ys[k + 1] + h11 * m1


# -- the embedding ------------------------------------------------------------

def level_sizes(c: int) -> list[int]:
    """beta_i in closed form: 1 for i = 0, else sum_{k=i}^{c} C(k, i), the
    multi-indices of length i+1 summing to at most c - i."""
    return [1] + [sum(math.comb(k, i) for k in range(i, c + 1)) for i in range(1, c + 1)]


def unrank(index: EmbeddingIndexMap, i: int, j: int) -> tuple[int, ...]:
    """The multi-index of rank j on level i; inverse of `index.rank`."""
    if i < 0 or i > index.c:
        raise ValidationError(f"level {i} outside 0..{index.c}")
    if j < 0 or j >= index.beta[i]:
        raise ValidationError(f"rank {j} outside level {i} (beta={index.beta[i]})")
    return index.levels[i][j]


def level_groups(index: EmbeddingIndexMap) -> np.ndarray:
    """The level group of every coordinate of the full layout, by a loop
    over components: i + sum(a) for component a of level i >= 1 (its
    factors' orders sum to i + 1 over i + 1 factors), -1 on level 0."""
    group = np.full(index.N, -1)
    for i in range(1, index.c + 1):
        for j, a in enumerate(index.levels[i]):
            group[index.block_slice(i, j)] = i + sum(a)
    return group


def schur_bound(block: sp.csr_array) -> float:
    """sqrt(||B||_1 ||B||_inf), an upper bound on ||B||_2, read off an
    assembled block: the coupling term of A's norm bracket, which
    `assemble_A` takes from F2 in closed form, from A's blocks U_i."""
    mag = abs(block)
    return math.sqrt(mag.sum(axis=0).max()) * math.sqrt(mag.sum(axis=1).max())


def split_matrix(index: EmbeddingIndexMap, i: int, k: int) -> np.ndarray:
    """P_{i,k}: 1 where splitting slot k of a level-i multi-index gives a level-(i+1) one."""
    P = np.zeros((index.beta[i], index.beta[i + 1]))
    for j, a in enumerate(index.levels[i]):
        for split in range(a[k]):
            refined = a[:k] + (split, a[k] - 1 - split) + a[k + 1:]
            P[j, index.rank(i + 1, refined)] = 1.0
    return P


def reduce_to_orbits(A: sp.csr_array, basis: OrbitBasis) -> sp.csr_array:
    """A_sym = V^T A V gathered out of A's CSR arrays: the rows of reps, their
    columns mapped through orbit, each entry scaled by sqrt(w_r) / sqrt(w_s),
    and COO->CSR sums the duplicates."""
    reps, orbit, root_w = basis.reps, basis.orbit, basis.root_w
    R = reps.size
    starts = A.indptr[reps].astype(np.int64)
    lengths = A.indptr[reps + 1] - starts
    rows = np.repeat(np.arange(R, dtype=A.indices.dtype), lengths)
    # position k of the gathered row r is A's entry starts[r] + k
    pos = np.arange(rows.size) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    cols = orbit[A.indices[pos]].astype(A.indices.dtype)
    return sp.csr_array((A.data[pos] * (root_w[rows] / root_w[cols]), (rows, cols)),
                        shape=(R, R))


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


def row_pattern_Bm(F1: SparseMatrix, m: int, row: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Nonzero-column pattern of one row of B(m) = sum_j I^j kron F1 kron I^(m-j).

    row is the digit string (j_m, ..., j_0), most significant first.  The
    diagonal of F1 counts as structurally nonzero.  Recursion: columns that
    replace the leading digit with a pre-diagonal neighbour, then the B(m-1)
    pattern of the remaining digits under an unchanged leading digit, then
    the post-diagonal leading replacements.
    """
    n = F1.shape[0]
    row = tuple(int(d) for d in row)
    if len(row) != m + 1:
        raise ValidationError(f"row needs {m + 1} digits, got {len(row)}")
    if any(d < 0 or d >= n for d in row):
        raise ValidationError(f"digits must lie in [0, {n})")

    indptr, indices = F1.indptr, F1.indices
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


# -- the marching system ------------------------------------------------------

def reference_C(A: sp.csr_array, params: TaylorSystemParams) -> sp.csr_array:
    """The marching matrix as the `marching` module docstring describes it,
    one COO: unit diagonal, -A h/j couplings inside each step, -identity
    summation rows at step boundaries, -identity copy rows at the tail."""
    N, m, k, d, h = A.shape[0], params.m, params.k, params.d, params.h
    coo = A.tocoo()
    rows, cols, vals = [np.arange((d + 1) * N)], [np.arange((d + 1) * N)], [np.ones((d + 1) * N)]
    idx = np.arange(N)
    for i in range(m):
        base = i * (k + 1)
        for j in range(1, k + 1):
            rows.append(coo.row + (base + j) * N)
            cols.append(coo.col + (base + j - 1) * N)
            vals.append(coo.data * (-h / j))
        for j in range(k + 1):
            rows.append(idx + (base + k + 1) * N)
            cols.append(idx + (base + j) * N)
            vals.append(-np.ones(N))
    for l in range(m * (k + 1) + 1, d + 1):
        rows.append(idx + l * N)
        cols.append(idx + (l - 1) * N)
        vals.append(-np.ones(N))
    size = (d + 1) * N
    return sp.coo_array((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                        shape=(size, size)).tocsr()


def marched_x(C, y: np.ndarray) -> np.ndarray:
    """x = C^{-1} (e_0 kron y) of the operator C, rebuilt from the steps that
    `C.march(y)` yields: each step's blocks in place, then p+1 copies of the
    last carry as the copy tail."""
    N, k, d = C.N, C.params.k, C.params.d
    X = np.empty((d + 1, N))
    for i, blocks, carry in C.march(y):
        X[i * (k + 1):(i + 1) * (k + 1)] = blocks
    X[C.params.m * (k + 1):] = carry
    return X.reshape(-1)


def dense_trajectory(A: sp.csr_array, y_in: np.ndarray, h: float, m: int) -> np.ndarray:
    """expm(A j h) y_in for j = 0..m, stacked: powers of the dense expm(A h)
    applied one step at a time."""
    E = dense_expm(A.toarray() * h)
    out = [np.array(y_in, dtype=np.float64)]
    for _ in range(m):
        out.append(E @ out[-1])
    return np.array(out)


def taylor_polynomial_apply(A: sp.csr_array, h: float, k: int, v: np.ndarray) -> np.ndarray:
    """T_k(A h) v = sum_{j=0}^{k} (A h)^j / j! v by repeated products."""
    acc = v.astype(np.float64).copy()
    term = v.astype(np.float64).copy()
    for j in range(1, k + 1):
        term = (A @ term) * (h / j)
        acc += term
    return acc


def dense_condition_number(arr: np.ndarray, cap: int = DENSE_ORACLE_CAP) -> float:
    """sigma_max / sigma_min of a square nonsingular matrix."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError("condition number needs a square matrix")
    _check_cap(arr.shape[0], arr.shape[1], cap)
    sig = np.linalg.svd(arr, compute_uv=False)
    if sig[-1] <= sig[0] * np.finfo(float).eps * max(arr.shape):
        raise ValidationError("matrix is numerically singular")
    return float(sig[0] / sig[-1])


# -- normalized-vector perturbation bounds ------------------------------------

def component_difference_bound(alpha: float, delta: float) -> float:
    """Bound 2 delta/(alpha - delta) on the labelled-component difference."""
    if delta >= alpha:
        raise ValidationError(f"need delta < alpha, got delta={delta}, alpha={alpha}")
    return 2.0 * delta / (alpha - delta)


def amplitude_lower_bound(alpha: float, delta: float) -> float:
    """The perturbed amplitude stays >= alpha - delta."""
    if delta >= alpha:
        raise ValidationError(f"need delta < alpha, got delta={delta}, alpha={alpha}")
    return alpha - delta


def normalized_perturbation_bounds(alpha: float, beta: float, delta: float) -> dict:
    return {
        "normalized_difference": normalized_difference_bound(alpha, beta),
        "component_difference": component_difference_bound(alpha, delta),
        "amplitude_lower": amplitude_lower_bound(alpha, delta),
    }


# -- files --------------------------------------------------------------------

def read_vector(path) -> np.ndarray:
    """A vector written by `hpmsim.sparse.write_vector`, one value a line."""
    with open(path) as fh:
        return np.array([float(line) for line in fh if line.strip()])
