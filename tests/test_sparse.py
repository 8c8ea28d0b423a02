import warnings
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import hpmsim.sparse
from hpmsim.errors import NumericalError, ValidationError
from hpmsim.sparse import (
    DENSE_ORACLE_CAP,
    GRAM_MAX,
    SparseMatrix,
    dense_eigs,
    dense_expm,
    max_line_nnz,
    read_triplets,
    spectral_norm,
    vector_norm,
    write_triplets,
)
from oracles import dense_condition_number


def test_spmv_identity():
    m = SparseMatrix(np.eye(3))
    v = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(m.matvec(v), v)


def test_spmv_scalar():
    m = SparseMatrix.from_triplets(1, 1, [(0, 0, -1.0)])
    assert m.matvec(np.array([0.5]))[0] == -0.5


def test_spmv_hand_2x2():
    # [[-1, 0.2], [0, -2]] @ (0.5, 0.25) = (-0.45, -0.5)
    m = SparseMatrix.from_triplets(2, 2, [(0, 0, -1.0), (0, 1, 0.2), (1, 1, -2.0)])
    out = m.matvec(np.array([0.5, 0.25]))
    assert out == pytest.approx([-0.45, -0.5], abs=1e-15)


def test_spmv_dimension_mismatch():
    m = SparseMatrix(np.eye(3))
    with pytest.raises(ValidationError):
        m.matvec(np.ones(4))


def test_rmatvec_is_the_transpose_product():
    # M^T v, which the benchmark binds: bit-equal to v @ M and to M^T @ v,
    # on a non-square M; a v of the column length is refused
    m = SparseMatrix.from_triplets(2, 3, [(0, 0, -1.0), (0, 2, 0.2), (1, 1, -2.0),
                                          (1, 2, 0.7)])
    v = np.array([0.5, 0.25])
    out = m.rmatvec(v)
    assert out.tobytes() == (v @ m).tobytes() == (m.T @ v).tobytes()
    assert out == pytest.approx([-0.5, -0.5, 0.275], abs=1e-15)
    with pytest.raises(ValidationError, match="rmatvec length mismatch"):
        m.rmatvec(np.ones(3))


def test_duplicates_sum_on_finalize():
    dup = SparseMatrix.from_triplets(2, 2, [(0, 1, 1.5), (0, 1, 2.5), (1, 0, -1.0)])
    pre = SparseMatrix.from_triplets(2, 2, [(0, 1, 4.0), (1, 0, -1.0)])
    assert np.array_equal(dup.toarray(), pre.toarray())
    assert dup.nnz == 2


@settings(max_examples=50, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4),
              st.floats(-10, 10, allow_nan=False)),
    min_size=1, max_size=30,
))
def test_duplicates_sum_matches_presummed(triplets):
    summed: dict[tuple[int, int], float] = {}
    for i, j, v in triplets:
        summed[(i, j)] = summed.get((i, j), 0.0) + v
    a = SparseMatrix.from_triplets(5, 5, triplets)
    b = SparseMatrix.from_triplets(5, 5, [(i, j, v) for (i, j), v in summed.items()])
    assert np.allclose(a.toarray(), b.toarray(), atol=1e-12)


def test_row_col_counts():
    m = SparseMatrix.from_triplets(3, 3, [(0, 0, 1.0), (0, 2, 1.0), (2, 2, 5.0)])
    assert max_line_nnz(m) == (2, 2)


def test_max_line_nnz_matches_a_dense_count():
    rng = np.random.default_rng(5)
    for trial in range(30):
        rows, cols = (int(x) for x in rng.integers(0, 7, size=2))
        dense = rng.normal(size=(rows, cols)) * (rng.random((rows, cols)) < 0.4)
        dense[rng.random(rows) < 0.3] = 0.0          # some empty rows
        dense[:, rng.random(cols) < 0.3] = 0.0       # and some empty columns
        nz = dense != 0
        want = (int(nz.sum(axis=1).max(initial=0)), int(nz.sum(axis=0).max(initial=0)))
        assert max_line_nnz(SparseMatrix(dense)) == want, trial


def test_out_of_bounds_rejected():
    with pytest.raises(ValidationError):
        SparseMatrix.from_triplets(2, 2, [(2, 0, 1.0)])
    with pytest.raises(ValidationError):
        SparseMatrix.from_triplets(2, 2, [(0, -1, 1.0)])


def test_spectral_norm_diagonal():
    m = SparseMatrix.from_triplets(2, 2, [(0, 0, -1.0), (1, 1, -2.0)])
    assert spectral_norm(m) == pytest.approx(2.0, rel=1e-8)


def test_spectral_norm_nilpotent():
    m = SparseMatrix.from_triplets(2, 2, [(0, 1, 1.0)])
    assert spectral_norm(m) == pytest.approx(1.0, rel=1e-8)


def test_spectral_norm_vs_svd_hand_case():
    m = SparseMatrix.from_triplets(2, 2, [(0, 0, -1.0), (0, 1, 0.2), (1, 1, -2.0)])
    sig = np.linalg.svd(m.toarray(), compute_uv=False)[0]
    assert spectral_norm(m, tol=1e-12) == pytest.approx(sig, abs=1e-8)


def test_spectral_norm_vs_svd_random():
    rng = np.random.default_rng(42)
    for trial in range(20):
        n = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        dense = rng.normal(size=(n, cols))
        m = SparseMatrix(dense)
        sig = np.linalg.svd(dense, compute_uv=False)[0]
        assert spectral_norm(m, tol=1e-12) == pytest.approx(sig, rel=1e-6), trial


def test_spectral_norm_scaling_exact():
    m = SparseMatrix.from_triplets(2, 2, [(0, 0, 0.3), (1, 0, -0.4), (0, 1, 1.1)])
    base = spectral_norm(m, tol=1e-12)
    assert spectral_norm(m * 2.0, tol=1e-12) == pytest.approx(2.0 * base, rel=1e-13)


def _series_expm(a: np.ndarray, terms: int = 60) -> np.ndarray:
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, terms + 1):
        term = term @ a / k
        out = out + term
    return out


def test_expm_zero_is_identity():
    assert np.array_equal(dense_expm(np.zeros((3, 3))), np.eye(3))


def test_expm_scalar():
    out = dense_expm(np.array([[-1.0]]))
    assert out[0, 0] == pytest.approx(np.exp(-1.0), rel=1e-12)


def test_expm_matches_series_oracle():
    a = np.array([[-1.0, 0.2], [0.0, -2.0]])
    assert np.allclose(dense_expm(a), _series_expm(a), atol=1e-12)


def test_expm_semigroup_property():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        q, r = np.linalg.qr(rng.normal(size=(n, n)))
        m = q @ np.diag(-rng.uniform(0.1, 1.5, n)) @ q.T
        t1, t2 = rng.uniform(0, 2, size=2)
        lhs = dense_expm(m * (t1 + t2))
        rhs = dense_expm(m * t1) @ dense_expm(m * t2)
        assert np.linalg.norm(lhs - rhs) <= 1e-8


def test_expm_cap_exceeded():
    with pytest.raises(ValidationError):
        dense_expm(np.zeros((3, 3)), cap=4)


def test_eigs_diagonal():
    lam = dense_eigs(np.diag([-1.0, -2.0]))
    assert sorted(lam.real) == pytest.approx([-2.0, -1.0])
    assert np.allclose(lam.imag, 0.0)


def test_eigs_triangular():
    lam = dense_eigs(np.array([[-1.0, 0.2], [0.0, -2.0]]))
    assert sorted(lam.real) == pytest.approx([-2.0, -1.0], abs=1e-8)


def test_eigs_complex_pair():
    lam = dense_eigs(np.array([[-1.0, 2.0], [-2.0, -1.0]]))
    assert sorted(lam.imag) == pytest.approx([-2.0, 2.0])
    assert lam.real == pytest.approx([-1.0, -1.0])


def test_eigs_residual_check_names_first_failing_pair():
    rng = np.random.default_rng(3)
    arr = np.triu(rng.normal(size=(6, 6)), 1) - np.diag(rng.uniform(0.5, 2.0, 6))
    lam = dense_eigs(arr)
    assert sorted(lam.real) == pytest.approx(sorted(np.diag(arr)), abs=1e-8)
    # the per-pair loop the vectorized check replaced, as the reference
    gamma, vecs = np.linalg.eig(arr)
    res = [np.linalg.norm(arr @ vecs[:, i] - gamma[i] * vecs[:, i]) for i in range(6)]
    first = next(i for i, r in enumerate(res) if r > 0.0)
    with pytest.raises(NumericalError, match=f"eigenpair {first} "):
        dense_eigs(arr, residual_tol=0.0)


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1.0, 1e160, 1e300])
def test_vector_norm_survives_squares_that_underflow_or_overflow(scale):
    # np.linalg.norm squares the entries: 0.0 at 1e-300, inf at 1e300
    assert vector_norm(np.array([3.0, -4.0]) * scale) == pytest.approx(5.0 * scale, rel=1e-15)
    assert vector_norm(np.zeros(2)) == 0.0


def test_eigs_residual_check_fires_near_overflow(monkeypatch):
    # ||M||_F of entries near 1e300 overflows; the check must still catch a
    # wrong eigenpair, and raise no overflow warning on the way
    arr = np.array([[-1e300, 3e299], [3e299, -1.5e300]])
    true_eig = np.linalg.eig

    def wrong_pair(m):
        gamma, vecs = true_eig(m)
        return gamma * np.array([1.0, 1.01]), vecs

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sorted(dense_eigs(arr).real) == pytest.approx(
            sorted(np.linalg.eigvals(arr).real), rel=1e-12)
        monkeypatch.setattr(np.linalg, "eig", wrong_pair)
        with pytest.raises(NumericalError, match="eigenpair 1 "):
            dense_eigs(arr)


def test_condition_number_identity_and_diag():
    assert dense_condition_number(np.eye(4)) == pytest.approx(1.0)
    assert dense_condition_number(np.diag([1.0, 4.0])) == pytest.approx(4.0)


def test_condition_number_singular():
    with pytest.raises(ValidationError):
        dense_condition_number(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_norm_iteration_cap_raises():
    # Lanczos is exact on a 2x2 matrix in its first Krylov space, so exhaust
    # the budget on a slowly separating spectrum of 50 singular values
    m = np.diag(np.linspace(1.0, 0.999999, 50))
    with pytest.raises(NumericalError):
        spectral_norm(m, max_iter=2)


# normal and dissipative; an all-ones start vector is orthogonal to the top
# singular vector (1, -1), so power iteration from it returns 1.0, not 2.0
F1_ORTHOGONAL_START = [[-1.5, 0.5], [0.5, -1.5]]


def test_spectral_norm_not_fooled_by_orthogonal_start():
    m = SparseMatrix(F1_ORTHOGONAL_START)
    assert spectral_norm(m) == pytest.approx(2.0, rel=1e-12)
    assert spectral_norm(np.array(F1_ORTHOGONAL_START)) == pytest.approx(2.0, rel=1e-12)


def test_spectral_norm_certificate_rejects_underestimate(monkeypatch):
    # an eigensolver stuck on the Gram matrix's smaller eigenvalue gives 1.0,
    # below the column-norm lower bound sqrt(2.5)
    monkeypatch.setattr(hpmsim.sparse, "eigvalsh", lambda gram: np.linalg.eigvalsh(gram)[:1])
    with pytest.raises(NumericalError, match="lower bound"):
        spectral_norm(SparseMatrix(F1_ORTHOGONAL_START))


def test_lanczos_certificate_rejects_underestimate(monkeypatch):
    # past GRAM_MAX rows and columns Lanczos runs; stuck on the smallest
    # singular value of a 2 x 2 block repeated along the diagonal, it is
    # refused against the column norms as the Gram route is
    blocks = SparseMatrix(sp.block_diag([F1_ORTHOGONAL_START] * 11, format="csr"))
    assert min(blocks.shape) > GRAM_MAX
    assert spectral_norm(blocks) == pytest.approx(2.0, rel=1e-12)

    def smallest_singular_value(arr, **kwargs):
        return np.linalg.svd(arr.toarray(), compute_uv=False)[-1:]

    monkeypatch.setattr(hpmsim.sparse, "svds", smallest_singular_value)
    with pytest.raises(NumericalError, match="lower bound"):
        spectral_norm(blocks)


def test_spectral_norm_caller_lower_bound_certifies_a_matrix():
    # sqrt(2.5), the largest column norm, passes; a caller's bound above
    # ||M|| = 2 makes the estimate fail its certificate
    m = SparseMatrix(F1_ORTHOGONAL_START)
    assert spectral_norm(m, lower=1.9) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(NumericalError, match="lower bound 2.1"):
        spectral_norm(m, lower=2.1)


@st.composite
def _small_matrices(draw):
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["general", "symmetric", "masked", "rank_one"]))
    entries = st.floats(-10, 10, allow_nan=False)
    if kind == "rank_one":
        u = draw(arrays(np.float64, rows, elements=entries))
        v = draw(arrays(np.float64, cols, elements=entries))
        return np.outer(u, v)
    arr = draw(arrays(np.float64, (rows, cols), elements=entries))
    if kind == "symmetric":
        sq = arr[:min(rows, cols), :min(rows, cols)]
        return sq + sq.T
    if kind == "masked":
        return arr * draw(arrays(np.bool_, (rows, cols)))
    return arr


# a rank-one 8 x 8 matrix with a column of subnormal entries and four zero
# columns, on which ARPACK returned 338.15, 179.58, 273.15 or 322.66, or
# stopped unconverged, from one call to the next
_U = [float.fromhex(x) for x in (
    "-0x1.bebf2b9bd7491p+5", "0x1.0d46f13bead1cp+5", "0x1.93b4454494694p+4",
    "-0x1.592e158f25b5ep+5", "-0x1.1795081acf9aap+4", "0x1.9c3a5ff0e46aap+5",
    "0x1.345884c3ce7bap+5", "-0x0.0p+0")]
_V = [float.fromhex(x) for x in (
    "-0x1.b27af6c6e79c6p+0", "0x0.0p+0", "0x0.0p+0", "-0x1.e2d4528fad3cep+0", "0x0.0p+0",
    "0x0.fd1d7d505cd02p-1022", "0x0.0p+0", "0x1.f170e8d07a3acp+0")]
RANK_ONE_8x8 = np.outer(_U, _V)


@settings(max_examples=300, deadline=None)
@given(_small_matrices(), st.booleans())
@example(RANK_ONE_8x8, False)
@example(RANK_ONE_8x8, True)
def test_spectral_norm_matches_svd(arr, as_sparse):
    expected = np.linalg.norm(arr, 2)
    got = spectral_norm(SparseMatrix(arr) if as_sparse else arr)
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("as_sparse", [False, True])
def test_spectral_norm_is_one_value_on_the_rank_one_matrix(as_sparse):
    M = SparseMatrix(RANK_ONE_8x8) if as_sparse else RANK_ONE_8x8
    assert {spectral_norm(M) for _ in range(500)} == {np.linalg.norm(RANK_ONE_8x8, 2)}


@st.composite
def _lanczos_matrices(draw):
    """Matrices with 21 to 40 rows and columns, of _small_matrices' kinds."""
    rows, cols = draw(st.integers(GRAM_MAX + 1, 40)), draw(st.integers(GRAM_MAX + 1, 40))
    kind = draw(st.sampled_from(["general", "symmetric", "masked", "rank_one"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "rank_one":
        return np.outer(rng.uniform(-10, 10, rows), rng.uniform(-10, 10, cols))
    arr = rng.uniform(-10, 10, (rows, cols))
    if kind == "symmetric":
        sq = arr[:min(rows, cols), :min(rows, cols)]
        return sq + sq.T
    if kind == "masked":
        return arr * (rng.random((rows, cols)) < 0.5)
    return arr


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_lanczos_matrices(), st.booleans())
def test_lanczos_spectral_norm_matches_svd(arr, as_sparse):
    expected = np.linalg.norm(arr, 2)
    got = spectral_norm(SparseMatrix(arr) if as_sparse else arr)
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_triplet_roundtrip_empty(tmp_path):
    m = SparseMatrix.from_triplets(2, 3, [])
    path = tmp_path / "empty.txt"
    write_triplets(m, path)
    back = read_triplets(path)
    assert back.shape == (2, 3) and back.nnz == 0
    assert not back.toarray().any()


def test_triplet_roundtrip(tmp_path):
    m = SparseMatrix.from_triplets(3, 4, [(0, 0, 1.25), (2, 3, -7.5e-3), (1, 2, 4.0)])
    path = tmp_path / "m.txt"
    write_triplets(m, path)
    back = read_triplets(path)
    assert back.shape == (3, 4)
    assert np.array_equal(back.toarray(), m.toarray())
    header = path.read_text().splitlines()[0]
    assert header == "3 4 3"
