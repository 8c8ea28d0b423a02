"""Sparse matrix primitives, the spectral-norm estimator and dense oracles.

`SparseMatrix` holds a problem instance's validated F1 and F2 as one
canonical `scipy.sparse.csr_array`, `.csr` (sorted indices, duplicates
summed); the embedding matrix A and everything built from it are plain
`csr_array`s.  Besides `.csr` and its two constructors it keeps only
`matvec`, `rmatvec` and `entries`, the members the benchmark harness binds
by name; every other use reads `.csr`.  `max_line_nnz` is the one count of
the most nonzeros in a row and in a column, for F1, F2 and A alike.
`spectral_norm` is the one 2-norm estimator for sparse, dense and operator
inputs: Lanczos (ARPACK `svds`) from a seeded random start, certified
against a lower bound on the norm (the largest row and column 2-norms of a
matrix, or a caller-supplied bound, whichever is larger).  A run takes
||A|| of the embedding matrix with it only where the closed-form upper end
of ||A||, which sets the step count, exceeds A's proved norm bound.
Dense routines (expm, eigenvalues) are verification oracles only and refuse
to run above an explicit entry cap so that large embeddings are never
densified by accident.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm as _scipy_expm
from scipy.sparse.linalg import ArpackError, LinearOperator, svds

from .errors import NumericalError, ValidationError

# rows*cols limit for the dense oracles (~2000x2000)
DENSE_ORACLE_CAP = 4_000_000


class SparseMatrix:
    """Real sparse matrix held as one canonical csr_array, `.csr`."""

    def __init__(self, matrix):
        csr = sp.csr_array(matrix, dtype=np.float64)
        csr.sum_duplicates()                # sorts indices; no-op when canonical
        self.csr = csr

    @classmethod
    def from_triplets(cls, rows: int, cols: int, triplets) -> "SparseMatrix":
        """(i, j, value) triplets; indices are bounds-checked, duplicates sum.

        The index arrays are int32 wherever the shape and entry count fit,
        scipy's own rule: the sparse products of A then read half the index
        bytes, and `kron` and `block_array` keep that dtype."""
        if rows < 0 or cols < 0:
            raise ValidationError("matrix dimensions must be nonnegative")
        triplets = list(triplets)
        ii, jj, vv = zip(*triplets) if triplets else ((), (), ())
        ii = np.asarray(ii, dtype=np.int64)
        jj = np.asarray(jj, dtype=np.int64)
        if ii.size and (ii.min() < 0 or ii.max() >= rows):
            raise ValidationError(f"row index out of bounds for {rows}x{cols}")
        if jj.size and (jj.min() < 0 or jj.max() >= cols):
            raise ValidationError(f"column index out of bounds for {rows}x{cols}")
        vv = np.asarray(vv, dtype=np.float64)
        idx = np.int32 if max(rows, cols, vv.size) <= np.iinfo(np.int32).max else np.int64
        return cls(sp.coo_array((vv, (ii.astype(idx), jj.astype(idx))), shape=(rows, cols)))

    def entries(self):
        """(row, col, value) in row-major order."""
        coo = self.csr.tocoo()
        return zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist())

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Product M v."""
        v = np.asarray(v, dtype=np.float64)
        cols = self.csr.shape[1]
        if v.shape != (cols,):
            raise ValidationError(f"matvec length mismatch: {v.shape} vs cols={cols}")
        return self.csr @ v

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        """Transpose product M^T v."""
        v = np.asarray(v, dtype=np.float64)
        rows = self.csr.shape[0]
        if v.shape != (rows,):
            raise ValidationError(f"rmatvec length mismatch: {v.shape} vs rows={rows}")
        return v @ self.csr


def max_line_nnz(M: sp.csr_array) -> tuple[int, int]:
    """The most nonzeros of a canonical csr array in one row and in one
    column, each 0 where the array has no rows or no columns."""
    return (int(np.diff(M.indptr).max(initial=0)),
            int(np.bincount(M.indices, minlength=M.shape[1]).max(initial=0)))


def _check_cap(rows: int, cols: int, cap: int = DENSE_ORACLE_CAP) -> None:
    if rows * cols > cap:
        raise ValidationError(
            f"dense oracle refused: {rows}x{cols} exceeds cap of {cap} entries"
        )


def spectral_norm(matrix: sp.sparray | np.ndarray | LinearOperator, tol: float = 1e-10,
                  max_iter: int | None = None, cap: int = DENSE_ORACLE_CAP,
                  lower: float | None = None) -> float:
    """Largest singular value by Lanczos (ARPACK `svds`) from a seeded start.

    Sparse, dense and operator inputs share this one estimator; a sparse
    array must be canonical (no duplicate entries), a dense array must fit
    under `cap`. The start vector comes from a fixed seed, so results are
    bit-for-bit reproducible. Every estimate is certified from
    below: for a matrix the largest row and column 2-norms are lower bounds
    on ||M||_2, and `lower`, a lower bound the caller knows, replaces them
    when larger; an operator has no entries to read, so its caller must
    pass `lower`. An estimate below the certificate raises NumericalError
    instead of being returned.
    """
    if isinstance(matrix, LinearOperator):
        if lower is None:
            raise ValidationError("an operator's norm needs a caller-supplied lower bound")
        arr, exp, floor = matrix, 0, lower
    else:
        if sp.issparse(matrix):
            csr = matrix.tocsr()
            vals = csr.data
        else:
            vals = np.asarray(matrix, dtype=np.float64)
            _check_cap(vals.shape[0], vals.shape[1], cap)
        top = float(np.abs(vals).max(initial=0.0))
        if top == 0.0:
            return 0.0
        # an exact power-of-two rescale keeps the squared entries clear of
        # underflow and overflow
        exp = math.frexp(top)[1]
        vals = np.ldexp(vals, -exp)
        if sp.issparse(matrix):
            arr = sp.csr_array((vals, csr.indices, csr.indptr), shape=csr.shape)
        else:
            arr = vals
        sq = arr * arr                      # elementwise for csr_array and ndarray
        if min(arr.shape) == 1:
            # ARPACK needs k < min(shape); a single row or column is exact
            return math.ldexp(math.sqrt(sq.sum()), exp)
        floor = math.sqrt(max(sq.sum(axis=1).max(), sq.sum(axis=0).max()))
        if lower is not None:
            floor = max(floor, math.ldexp(lower, -exp))
    v0 = np.random.default_rng(0).standard_normal(min(arr.shape))
    try:
        est = float(svds(arr, k=1, v0=v0, tol=tol, maxiter=max_iter,
                         return_singular_vectors=False)[0])
    except ArpackError as exc:
        raise NumericalError(f"Lanczos norm failed (tol={tol}, "
                             f"max_iter={max_iter}): {exc}") from None
    if est < floor * (1.0 - 1e-12):
        raise NumericalError(
            f"norm estimate {math.ldexp(est, exp):.17g} is below its certified "
            f"lower bound {math.ldexp(floor, exp):.17g}"
        )
    return math.ldexp(est, exp)


def vector_norm(v, axis: int | None = None):
    """2-norm of a vector, or of each slice along `axis`, taken after one
    exact power-of-two rescale so that the squares neither underflow nor
    overflow."""
    v = np.asarray(v, dtype=np.float64)
    top = float(np.abs(v).max(initial=0.0))
    if top == 0.0 or not math.isfinite(top):
        return np.linalg.norm(v, axis=axis)
    exp = math.frexp(top)[1]
    return np.ldexp(np.linalg.norm(np.ldexp(v, -exp), axis=axis), exp)


def sum_sq(x: np.ndarray) -> float:
    """sum x_i^2 by numpy's pairwise sum: unlike a BLAS dot product, its
    order of additions, and so its bits, do not depend on the thread count."""
    return float(np.sum(x * x))


def dense_expm(arr: np.ndarray, cap: int = DENSE_ORACLE_CAP) -> np.ndarray:
    """Scaling-and-squaring matrix exponential, gated by the entry cap."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError("expm needs a square matrix")
    _check_cap(arr.shape[0], arr.shape[1], cap)
    return _scipy_expm(arr)


def dense_eigs(arr: np.ndarray, cap: int = DENSE_ORACLE_CAP,
               residual_tol: float = 1e-8) -> np.ndarray:
    """All eigenvalues, each verified by its residual ||Mv - gamma v||."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError("eigenvalues need a square matrix")
    _check_cap(arr.shape[0], arr.shape[1], cap)
    gamma, vecs = np.linalg.eig(arr)
    # the check runs on M and gamma scaled down by the same exact power of
    # two, so neither the product nor the scale max(1, ||M||_F) overflows
    exp = max(0, math.frexp(float(np.abs(arr).max(initial=0.0)))[1])
    # (ldexp takes no complex gamma; a product with a power of two is as exact)
    arr_s, gamma_s = np.ldexp(arr, -exp), gamma * math.ldexp(1.0, -exp)
    scale = max(math.ldexp(1.0, -exp), float(np.linalg.norm(arr_s, ord="fro")))
    res = np.linalg.norm(arr_s @ vecs - vecs * gamma_s, axis=0)
    bad = np.flatnonzero(res > residual_tol * scale * np.linalg.norm(vecs, axis=0))
    if bad.size:
        idx = int(bad[0])
        raise NumericalError(
            f"eigenpair {idx} failed residual check: relative residual "
            f"{res[idx] / (scale * np.linalg.norm(vecs[:, idx])):.3e}"
        )
    return gamma


# -- triplet text format ----------------------------------------------
#
# First line: "rows cols nnz"; then nnz lines "i j value" with 0-based
# indices and decimal floats.

def write_triplets(matrix: sp.sparray, path) -> None:
    """A canonical sparse array in row-major order."""
    coo = matrix.tocoo()
    with open(path, "w") as fh:
        fh.write(f"{matrix.shape[0]} {matrix.shape[1]} {matrix.nnz}\n")
        for i, j, v in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()):
            fh.write(f"{i} {j} {v:.17g}\n")


def read_triplets(path, shape: tuple[int, int] | None = None) -> SparseMatrix:
    """The matrix in a triplet file: a header `rows cols nnz`, then nnz lines
    `i j value`, then blank lines only.  Each line is checked as an inline
    triplet is: integer counts and indices, and finite real values.  Where
    shape is given, the header must state it before anything is built."""
    try:
        with open(path) as fh:
            lines = [line.split() for line in fh]
        while lines and not lines[-1]:
            lines.pop()
        rows, cols, nnz = _tokens(lines[0] if lines else [], (int, int, int))
        if min(rows, cols, nnz) < 0:
            raise ValueError("a negative count")
        if shape is not None and (rows, cols) != tuple(shape):
            raise ValueError(f"shape {rows}x{cols}, need {shape[0]}x{shape[1]}")
        if len(lines) - 1 != nnz:
            raise ValueError(f"{len(lines) - 1} entry lines under a count of {nnz}")
        triplets = [_tokens(line, (int, int, float)) for line in lines[1:]]
        return SparseMatrix.from_triplets(rows, cols, triplets)
    except (OSError, ValueError, ValidationError) as exc:   # unreadable, not UTF-8 or malformed
        raise ValidationError(f"bad triplet file {path}: {exc}") from None


def _tokens(line: list[str], types: tuple) -> tuple:
    """The tokens of one line read as types, each float finite."""
    text = " ".join(line)
    if len(line) != len(types):
        raise ValueError(f"line {text!r} needs {len(types)} fields")
    vals = tuple(t(x) for t, x in zip(types, line))
    if not all(math.isfinite(v) for v in vals if isinstance(v, float)):
        raise ValueError(f"line {text!r} holds a value that is not finite")
    return vals


def write_vector(v: np.ndarray, path) -> None:
    with open(path, "w") as fh:
        for x in np.asarray(v, dtype=np.float64):
            fh.write(f"{x:.17g}\n")
