"""Sparse matrix primitives, the spectral-norm estimator and dense oracles.

The sparse type is a plain COO builder finalized to sorted CSR-like arrays.
`spectral_norm` is the one 2-norm estimator for sparse and dense inputs:
Lanczos (ARPACK `svds`) from a seeded random start, certified against the
largest row and column 2-norms, which are lower bounds on the norm.
Dense routines (expm, eigenvalues, condition number) are verification
oracles only and refuse to run above an explicit entry cap so that large
embeddings are never densified by accident.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm as _scipy_expm
from scipy.sparse import csr_array
from scipy.sparse.linalg import ArpackError, svds

from .errors import NumericalError, ValidationError

# rows*cols limit for the dense oracles (~2000x2000)
DENSE_ORACLE_CAP = 4_000_000

# DenseMatrix is a plain row-major float array; the cap above is its
# only extra contract.
DenseMatrix = np.ndarray


class SparseMatrix:
    """Real sparse matrix: COO accumulation, duplicate entries sum on finalize."""

    def __init__(self, rows: int, cols: int):
        if rows < 0 or cols < 0:
            raise ValidationError("matrix dimensions must be nonnegative")
        self.rows = int(rows)
        self.cols = int(cols)
        self._buf_i: list[np.ndarray] = []
        self._buf_j: list[np.ndarray] = []
        self._buf_v: list[np.ndarray] = []
        self._finalized = False
        self.row: np.ndarray | None = None
        self.col: np.ndarray | None = None
        self.val: np.ndarray | None = None
        self._indptr: np.ndarray | None = None

    # -- construction ------------------------------------------------

    def add(self, i: int, j: int, v: float) -> None:
        self.add_batch([i], [j], [v])

    def add_batch(self, ii, jj, vv) -> None:
        if self._finalized:
            raise ValidationError("matrix already finalized")
        ii = np.asarray(ii, dtype=np.int64)
        jj = np.asarray(jj, dtype=np.int64)
        vv = np.asarray(vv, dtype=np.float64)
        if not (ii.shape == jj.shape == vv.shape):
            raise ValidationError("triplet arrays must have equal length")
        if ii.size == 0:
            return
        if ii.min() < 0 or ii.max() >= self.rows:
            raise ValidationError(f"row index out of bounds for {self.rows}x{self.cols}")
        if jj.min() < 0 or jj.max() >= self.cols:
            raise ValidationError(f"column index out of bounds for {self.rows}x{self.cols}")
        self._buf_i.append(ii)
        self._buf_j.append(jj)
        self._buf_v.append(vv)

    def finalize(self) -> "SparseMatrix":
        """Sum duplicate (row, col) pairs and freeze into row-sorted arrays."""
        if self._finalized:
            return self
        if self._buf_i:
            i = np.concatenate(self._buf_i)
            j = np.concatenate(self._buf_j)
            v = np.concatenate(self._buf_v)
            flat = i * self.cols + j
            uniq, inv = np.unique(flat, return_inverse=True)
            val = np.bincount(inv, weights=v, minlength=uniq.size)
            self.row = (uniq // self.cols).astype(np.int64)
            self.col = (uniq % self.cols).astype(np.int64)
            self.val = val
        else:
            self.row = np.zeros(0, dtype=np.int64)
            self.col = np.zeros(0, dtype=np.int64)
            self.val = np.zeros(0, dtype=np.float64)
        counts = np.bincount(self.row, minlength=self.rows)
        self._indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self._buf_i = self._buf_j = self._buf_v = []
        self._finalized = True
        return self

    @classmethod
    def from_triplets(cls, rows: int, cols: int, triplets) -> "SparseMatrix":
        m = cls(rows, cols)
        if triplets:
            ii, jj, vv = zip(*triplets)
            m.add_batch(ii, jj, vv)
        return m.finalize()

    @classmethod
    def from_dense(cls, arr) -> "SparseMatrix":
        arr = np.asarray(arr, dtype=np.float64)
        m = cls(arr.shape[0], arr.shape[1])
        ii, jj = np.nonzero(arr)
        m.add_batch(ii, jj, arr[ii, jj])
        return m.finalize()

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        m = cls(n, n)
        idx = np.arange(n)
        m.add_batch(idx, idx, np.ones(n))
        return m.finalize()

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "SparseMatrix":
        return cls(rows, cols).finalize()

    # -- queries -----------------------------------------------------

    def _require_final(self) -> None:
        if not self._finalized:
            raise ValidationError("matrix not finalized")

    @property
    def nnz(self) -> int:
        self._require_final()
        return int(self.val.size)

    def row_nonzeros(self) -> np.ndarray:
        self._require_final()
        return np.bincount(self.row, minlength=self.rows)

    def col_nonzeros(self) -> np.ndarray:
        self._require_final()
        return np.bincount(self.col, minlength=self.cols)

    def sparsity(self) -> int:
        """Max nonzero count over all rows and columns."""
        self._require_final()
        if self.nnz == 0:
            return 0
        return int(max(self.row_nonzeros().max(), self.col_nonzeros().max()))

    def entries(self):
        self._require_final()
        return zip(self.row.tolist(), self.col.tolist(), self.val.tolist())

    def matvec(self, v: np.ndarray) -> np.ndarray:
        self._require_final()
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.cols,):
            raise ValidationError(f"matvec length mismatch: {v.shape} vs cols={self.cols}")
        if self.nnz == 0:
            return np.zeros(self.rows)
        return np.bincount(self.row, weights=self.val * v[self.col], minlength=self.rows)

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        """Transpose product M^T v."""
        self._require_final()
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.rows,):
            raise ValidationError(f"rmatvec length mismatch: {v.shape} vs rows={self.rows}")
        if self.nnz == 0:
            return np.zeros(self.cols)
        return np.bincount(self.col, weights=self.val * v[self.row], minlength=self.cols)

    def scaled(self, alpha: float) -> "SparseMatrix":
        self._require_final()
        m = SparseMatrix(self.rows, self.cols)
        m.add_batch(self.row, self.col, self.val * alpha)
        return m.finalize()

    def to_dense(self, cap: int = DENSE_ORACLE_CAP) -> np.ndarray:
        self._require_final()
        _check_cap(self.rows, self.cols, cap)
        out = np.zeros((self.rows, self.cols))
        out[self.row, self.col] = self.val
        return out

    def __repr__(self) -> str:
        state = f"nnz={self.nnz}" if self._finalized else "building"
        return f"SparseMatrix({self.rows}x{self.cols}, {state})"


def _check_cap(rows: int, cols: int, cap: int = DENSE_ORACLE_CAP) -> None:
    if rows * cols > cap:
        raise ValidationError(
            f"dense oracle refused: {rows}x{cols} exceeds cap of {cap} entries"
        )


def spmv(matrix: SparseMatrix, v: np.ndarray) -> np.ndarray:
    return matrix.matvec(v)


def spectral_norm(matrix: SparseMatrix | DenseMatrix, tol: float = 1e-10,
                  max_iter: int | None = None, cap: int = DENSE_ORACLE_CAP) -> float:
    """Largest singular value by Lanczos (ARPACK `svds`) from a seeded start.

    Sparse and dense inputs share this one estimator; a dense array must fit
    under `cap`. The start vector comes from a fixed seed, so results are
    bit-for-bit reproducible. The largest row and column 2-norms are both
    lower bounds on ||M||_2, and an estimate below either one raises
    NumericalError instead of being returned.
    """
    if isinstance(matrix, SparseMatrix):
        matrix._require_final()
        vals = matrix.val
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
    if isinstance(matrix, SparseMatrix):
        arr = csr_array((vals, (matrix.row, matrix.col)), shape=(matrix.rows, matrix.cols))
    else:
        arr = vals
    sq = arr * arr                      # elementwise for csr_array and ndarray
    lower = math.sqrt(max(sq.sum(axis=1).max(), sq.sum(axis=0).max()))
    if min(arr.shape) == 1:
        # ARPACK needs k < min(shape); a single row or column is exact
        return math.ldexp(math.sqrt(sq.sum()), exp)
    v0 = np.random.default_rng(0).standard_normal(min(arr.shape))
    try:
        est = float(svds(arr, k=1, v0=v0, tol=tol, maxiter=max_iter,
                         return_singular_vectors=False)[0])
    except ArpackError as exc:
        raise NumericalError(f"Lanczos norm failed (tol={tol}, "
                             f"max_iter={max_iter}): {exc}") from None
    if est < lower * (1.0 - 1e-12):
        raise NumericalError(
            f"norm estimate {math.ldexp(est, exp):.17g} is below the row/column "
            f"lower bound {math.ldexp(lower, exp):.17g}"
        )
    return math.ldexp(est, exp)


def dense_norm(arr: DenseMatrix, tol: float = 1e-10, cap: int = DENSE_ORACLE_CAP) -> float:
    """2-norm of a dense array under the entry cap; see spectral_norm."""
    return spectral_norm(np.asarray(arr, dtype=np.float64), tol=tol, cap=cap)


def dense_expm(arr: DenseMatrix, cap: int = DENSE_ORACLE_CAP) -> DenseMatrix:
    """Scaling-and-squaring matrix exponential, gated by the entry cap."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError("expm needs a square matrix")
    _check_cap(arr.shape[0], arr.shape[1], cap)
    return _scipy_expm(arr)


def dense_eigs(arr: DenseMatrix, cap: int = DENSE_ORACLE_CAP,
               residual_tol: float = 1e-8) -> np.ndarray:
    """All eigenvalues, each verified by its residual ||Mv - gamma v||."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError("eigenvalues need a square matrix")
    _check_cap(arr.shape[0], arr.shape[1], cap)
    gamma, vecs = np.linalg.eig(arr)
    scale = max(1.0, float(np.linalg.norm(arr, ord="fro")))
    res = np.linalg.norm(arr @ vecs - vecs * gamma, axis=0)
    bad = np.flatnonzero(res > residual_tol * scale * np.linalg.norm(vecs, axis=0))
    if bad.size:
        idx = int(bad[0])
        raise NumericalError(
            f"eigenpair {idx} failed residual check: {res[idx]:.3e}"
        )
    return gamma


def dense_condition_number(arr: DenseMatrix, cap: int = DENSE_ORACLE_CAP) -> float:
    """sigma_max / sigma_min of a square nonsingular matrix."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError("condition number needs a square matrix")
    _check_cap(arr.shape[0], arr.shape[1], cap)
    sig = np.linalg.svd(arr, compute_uv=False)
    if sig[-1] <= sig[0] * np.finfo(float).eps * max(arr.shape):
        raise ValidationError("matrix is numerically singular")
    return float(sig[0] / sig[-1])


# -- triplet text format ----------------------------------------------
#
# First line: "rows cols nnz"; then nnz lines "i j value" with 0-based
# indices and decimal floats.

def write_triplets(matrix: SparseMatrix, path) -> None:
    matrix._require_final()
    with open(path, "w") as fh:
        fh.write(f"{matrix.rows} {matrix.cols} {matrix.nnz}\n")
        for i, j, v in matrix.entries():
            fh.write(f"{i} {j} {v:.17g}\n")


def read_triplets(path) -> SparseMatrix:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ValidationError(f"bad triplet header in {path}")
        rows, cols, nnz = (int(x) for x in header)
        m = SparseMatrix(rows, cols)
        ii, jj, vv = [], [], []
        for _ in range(nnz):
            parts = fh.readline().split()
            if len(parts) != 3:
                raise ValidationError(f"truncated triplet file {path}")
            ii.append(int(parts[0]))
            jj.append(int(parts[1]))
            vv.append(float(parts[2]))
        m.add_batch(ii, jj, vv)
    return m.finalize()


def write_vector(v: np.ndarray, path) -> None:
    with open(path, "w") as fh:
        for x in np.asarray(v, dtype=np.float64):
            fh.write(f"{x:.17g}\n")


def read_vector(path) -> np.ndarray:
    with open(path) as fh:
        return np.array([float(line) for line in fh if line.strip()])
