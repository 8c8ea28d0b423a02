import dataclasses
import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import eigsh

import hpmsim.sparse
from hpmsim.cascade import solve_cascade
from hpmsim.embedding import (
    BRACKET_SLACK,
    assemble_A,
    assemble_A_sym,
    assemble_y_in,
    build_index_map,
    embedded_norm_profile,
    enumerate_level,
    orbit_basis,
    step_counts,
    structural_report,
    total_dimension,
)
from hpmsim.errors import BoundViolation, NumericalError, ValidationError
from hpmsim.marching import (
    SOLVERS,
    TaylorSystemParams,
    assemble_C,
    solve_marching,
    step_errors_vs_expm,
)
from hpmsim.measurement import postselect
from hpmsim.ode import compute_K, make_ode
from hpmsim.pipeline import generate_instance
from hpmsim.sparse import SparseMatrix, dense_expm, max_line_nnz, spectral_norm
from oracles import (
    build_embedded_vector,
    level_groups,
    level_sizes,
    reduce_to_orbits,
    row_pattern_Bm,
    schur_bound,
    split_matrix,
    truncated_solution,
    unrank,
)


def std1(f2: float = 0.2, u0: float = 0.5):
    F1 = SparseMatrix.from_triplets(1, 1, [(0, 0, -1.0)])
    F2 = SparseMatrix.from_triplets(1, 1, [(0, 0, f2)])
    return make_ode(1, F1, F2, [u0])


def random_ode(n: int, seed: int, f2_scale: float = 0.1):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    q = q * np.sign(np.diag(r))
    F1 = SparseMatrix(q @ np.diag(-rng.uniform(0.5, 2.0, n)) @ q.T)
    F2 = SparseMatrix(rng.normal(size=(n, n * n)) * f2_scale)
    u_in = rng.normal(size=n) * 0.3
    return make_ode(n, F1, F2, u_in)


# -- index combinatorics ------------------------------------------------

def test_enumerate_level_c3_i1():
    assert enumerate_level(3, 1) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert level_sizes(3)[1] == 6  # C(1,1)+C(2,1)+C(3,1)


def test_enumerate_top_level_single():
    for c in range(0, 6):
        assert enumerate_level(c, c) == [tuple([0] * (c + 1))]


def test_level_sizes_c2():
    assert level_sizes(2) == [1, 3, 1]


def test_enumerate_rejects_bad_level():
    with pytest.raises(ValidationError):
        enumerate_level(3, 4)


def test_beta_identity_binomial():
    for c in range(0, 11):
        beta = level_sizes(c)
        assert beta[0] == 1
        for i in range(1, c + 1):
            assert beta[i] == sum(math.comb(k, i) for k in range(i, c + 1)), (c, i)
            # enumeration count equals the binomial sum
            assert len(enumerate_level(c, i)) == beta[i], (c, i)


def test_dimension_identity_exact():
    for n in range(1, 5):
        for c in range(0, 11):
            beta = level_sizes(c)
            direct = sum(n ** (i + 1) * beta[i] for i in range(c + 1))
            assert direct == total_dimension(n, c) == (n + 1) ** (c + 1) - 1 - c * n


def test_n2_c2_dimension():
    assert build_index_map(2, 2).N == 22


def test_rank_all_zeros_is_zero():
    index = build_index_map(5, 2)
    for i in range(6):
        assert index.rank(i, tuple([0] * (i + 1))) == 0


def test_rank_graded_lex_position():
    index = build_index_map(3, 1)
    assert index.rank(1, (1, 1)) == 4


def test_rank_unrank_roundtrip():
    for c in range(0, 9):
        index = build_index_map(c, 1)
        for i in range(1, c + 1):
            for j in range(index.beta[i]):
                assert index.rank(i, unrank(index, i, j)) == j


def test_rank_rejects_inadmissible():
    index = build_index_map(3, 1)
    with pytest.raises(ValidationError):
        index.rank(1, (3, 0))  # sum 3 > c - i = 2


def test_dimension_cap_guard():
    with pytest.raises(ValidationError, match="cap"):
        build_index_map(9, 2, cap=1000)


# -- assembly ------------------------------------------------------------

def test_assemble_A_n1_c1_exact():
    sys = assemble_A(std1(), 1)
    assert np.array_equal(sys.A.toarray(), np.array([[-1.0, 0.2], [0.0, -2.0]]))
    assert sys.y_in == pytest.approx([0.5, 0.25])


def test_assemble_A_linear_block_diagonal():
    F1 = SparseMatrix.from_triplets(2, 2, [(0, 0, -1.0), (1, 1, -2.0)])
    F2 = SparseMatrix.from_triplets(2, 4, [])
    ode = make_ode(2, F1, F2, [0.1, 0.2])
    sys = assemble_A(ode, 2)
    index = sys.index
    dense = sys.A.toarray()
    for i in range(2):
        lvl = index.level_slice(i)
        nxt = index.level_slice(i + 1)
        assert not dense[lvl, nxt.start:nxt.stop].any()


def test_assemble_A_block_structure_strict():
    sys = assemble_A(random_ode(2, seed=5), 3)
    index = sys.index
    dense = sys.A.toarray()
    for i in range(4):
        rows = index.level_slice(i)
        below = dense[rows, :index.offsets[i]]
        assert not below.any()
        if i + 1 < 4:
            beyond_start = index.offsets[i + 1] + index.beta[i + 1] * 2 ** (i + 2)
            assert not dense[rows, beyond_start:].any()


def test_y_in_values():
    ode = std1()
    index = build_index_map(3, 1)
    y = assemble_y_in(ode, index)
    # block (i, 0) holds u_in^(i+1); every other block is zero
    for i in range(4):
        assert y[index.block_slice(i, 0)] == pytest.approx([0.5 ** (i + 1)])
        for j in range(1, index.beta[i]):
            assert not y[index.block_slice(i, j)].any()


def test_y_in_zero_vector():
    F1 = SparseMatrix.from_triplets(1, 1, [(0, 0, -1.0)])
    F2 = SparseMatrix.from_triplets(1, 1, [(0, 0, 0.2)])
    ode = make_ode(1, F1, F2, [0.0])
    index = build_index_map(2, 1)
    assert not assemble_y_in(ode, index).any()


def test_y_in_block_norms_multiplicative():
    ode = random_ode(2, seed=9)
    index = build_index_map(3, 2)
    y = assemble_y_in(ode, index)
    norm_u = np.linalg.norm(ode.u_in)
    for i in range(4):
        block = y[index.block_slice(i, 0)]
        assert np.linalg.norm(block) == pytest.approx(norm_u ** (i + 1), rel=1e-12)


# -- assembly against an explicit COO reference ---------------------------

def _kron_factor_coo(mat, n: int, slots_left: int, slots_right: int,
                     col_digits: int, row_off: int, col_off: int):
    """Triplets of I_n^(kron slots_left) kron mat kron I_n^(kron slots_right),
    by index arithmetic; mat takes one row digit and col_digits column digits."""
    coo = mat.tocoo()
    n_hi, n_lo = n ** slots_left, n ** slots_right
    base_r = (np.arange(n_hi)[:, None] * n ** (slots_right + 1)
              + np.arange(n_lo)[None, :]).ravel()
    base_c = (np.arange(n_hi)[:, None] * n ** (slots_right + col_digits)
              + np.arange(n_lo)[None, :]).ravel()
    rows = (base_r[:, None] + coo.row[None, :] * n_lo).ravel() + row_off
    cols = (base_c[:, None] + coo.col[None, :] * n_lo).ravel() + col_off
    vals = np.broadcast_to(coo.data, (base_r.size, coo.data.size)).ravel()
    return rows, cols, vals


def sorted_diagonal(F1, i: int) -> np.ndarray:
    """The diagonal of level i's Kronecker sum of F1 at every tensor index t,
    F1[t_s, t_s] summed one slot at a time over t's entries sorted."""
    d1 = F1.diagonal()
    t = np.sort(np.indices((F1.shape[0],) * (i + 1)).reshape(i + 1, -1), axis=0)
    diag = d1[t[0]]
    for s in range(1, i + 1):
        diag = diag + d1[t[s]]
    return diag


def off_diagonal(F1) -> sp.coo_array:
    """F1's stored entries off its diagonal."""
    coo = F1.tocoo()
    keep = coo.row != coo.col
    return sp.coo_array((coo.data[keep], (coo.row[keep], coo.col[keep])), shape=F1.shape)


def reference_A(ode, c: int):
    """(indptr, indices, data) of A from per-block triplets; colliding
    entries sum in the order they were added.  Off level 0 the diagonal is
    one triplet per coordinate, summed over the sorted tensor index."""
    index = build_index_map(c, ode.n)
    n, parts = ode.n, []
    F1_off = off_diagonal(ode.F1)
    for i in range(c + 1):
        diag = sorted_diagonal(ode.F1, i)
        for j in range(index.beta[i]):
            off = index.block_slice(i, j).start
            if i == 0:
                parts.append(_kron_factor_coo(ode.F1, n, 0, 0, 1, off, off))
                continue
            for k in range(i + 1):
                parts.append(_kron_factor_coo(F1_off, n, k, i - k, 1, off, off))
            at = off + np.arange(diag.size)
            parts.append((at, at, diag))
    if ode.F2.nnz:
        if c >= 1:
            for jp in range(index.beta[1]):
                col_off = index.block_slice(1, jp).start
                parts.append(_kron_factor_coo(ode.F2, n, 0, 0, 2, 0, col_off))
        for i in range(1, c):
            for j, a in enumerate(index.levels[i]):
                for k in range(i + 1):
                    for split in range(a[k]):
                        refined = a[:k] + (split, a[k] - 1 - split) + a[k + 1:]
                        col_off = index.block_slice(i + 1, index.rank(i + 1, refined)).start
                        parts.append(_kron_factor_coo(ode.F2, n, k, i - k, 2,
                                                      index.block_slice(i, j).start, col_off))
    rows, cols, vals = (np.concatenate(x) for x in zip(*parts))
    uniq, inv = np.unique(rows * index.N + cols, return_inverse=True)
    data = np.bincount(inv, weights=vals, minlength=uniq.size)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(uniq // index.N, minlength=index.N))])
    return indptr, uniq % index.N, data


def nonnormal_ode(n: int, seed: int):
    """Upper-triangular F1 (not normal) and an F2 whose triplets collide:
    each row repeats a coupling and holds both orders of a pair (a, b)."""
    rng = np.random.default_rng(seed)
    F1 = SparseMatrix(np.triu(rng.normal(size=(n, n)), 1)
                      - np.diag(rng.uniform(0.5, 2.0, n)))
    trips = []
    for row in range(n):
        a, b = rng.integers(0, n, size=2)
        trips += [(row, a * n + b, rng.normal()), (row, b * n + a, rng.normal()),
                  (row, a * n + b, rng.normal()), (row, int(rng.integers(n * n)), rng.normal())]
    F2 = SparseMatrix.from_triplets(n, n * n, trips)
    return make_ode(n, F1, F2, rng.normal(size=n) * 0.3, assume_valid=True)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("c", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["normal", "nonnormal"])
def test_assemble_A_matches_reference_bit_for_bit(n, c, kind):
    ode = random_ode(n, seed=n + 10 * c) if kind == "normal" else nonnormal_ode(n, seed=n + 10 * c)
    A = assemble_A(ode, c).A
    indptr, indices, data = reference_A(ode, c)
    assert A.has_canonical_format
    assert np.array_equal(A.indptr, indptr)
    assert np.array_equal(A.indices, indices)
    assert A.data.tobytes() == data.tobytes()


def _with_int64_indices(M: SparseMatrix) -> SparseMatrix:
    return SparseMatrix((M.data, M.indices.astype(np.int64), M.indptr.astype(np.int64)),
                        shape=M.shape)


@pytest.mark.parametrize("make", [std1, lambda: generate_instance(3, 2, 0.3, 7)])
def test_assemble_A_indexes_with_int32_like_its_int64_build(make):
    # F1 and F2, from triplets or from dense arrays, hold int32 indices, and
    # the row builder writes A's indices in their dtype; the same F1 and F2
    # with int64 indices assemble an int64 A with the same entries and
    # bit-identical products
    ode = make()
    A = assemble_A(ode, 3).A
    wide = assemble_A(dataclasses.replace(ode, F1=_with_int64_indices(ode.F1),
                                          F2=_with_int64_indices(ode.F2)), 3).A
    assert A.indices.dtype == A.indptr.dtype == np.int32
    assert wide.indices.dtype == wide.indptr.dtype == np.int64
    assert np.array_equal(A.indptr, wide.indptr) and np.array_equal(A.indices, wide.indices)
    assert A.data.tobytes() == wide.data.tobytes()
    v = np.random.default_rng(0).normal(size=(A.shape[0], 3))
    assert (A @ v[:, 0]).tobytes() == (wide @ v[:, 0]).tobytes()
    assert (A @ v).tobytes() == (wide @ v).tobytes()


def _in_slot(mat, n: int, k: int, i: int):
    """I_n^(kron k) kron mat kron I_n^(kron i-k)."""
    return sp.kron(sp.kron(sp.eye_array(n ** k), mat, format="coo"),
                   sp.eye_array(n ** (i - k)), format="csr")


def per_slot_A(ode, c: int) -> sp.csr_array:
    """A from one Kronecker product per slot and level, summed over the
    slots: the block definition that assemble_A's row builder writes by
    index arithmetic, one row at a time.  Off level 0 the products take F1
    off its diagonal, and the diagonal, summed over the sorted tensor
    index, is added apart."""
    index = build_index_map(c, ode.n)
    n, F1, F2 = ode.n, ode.F1, ode.F2
    sizes = [index.beta[i] * n ** (i + 1) for i in range(c + 1)]
    blocks = [[sp.csr_array((rows, cols)) for cols in sizes] for rows in sizes]
    blocks[0][0] = F1
    for i in range(1, c + 1):
        ksum = sum(_in_slot(off_diagonal(F1), n, k, i) for k in range(i + 1))
        blocks[i][i] = sp.kron(sp.eye_array(index.beta[i]),
                               ksum + sp.diags_array(sorted_diagonal(F1, i)), format="csr")
    if F2.nnz and c >= 1:
        blocks[0][1] = sp.kron(np.ones((1, index.beta[1])), F2, format="csr")
        for i in range(1, c):
            blocks[i][i + 1] = sum(
                sp.kron(split_matrix(index, i, k), _in_slot(F2, n, k, i), format="csr")
                for k in range(i + 1))
    return sp.block_array(blocks, format="csr")


def zeros_ode(n: int, seed: int):
    """F1 and F2 from triplets in which a random half of the entries, F1's
    [0, 0] and [n-1, 0] and F2's [0, 0] and [n-1, 0] among them, come with a
    second triplet that cancels the first: stored zeros on and off F1's
    diagonal and in F2."""
    rng = np.random.default_rng(seed)
    mats = []
    for cols in (n, n * n):
        vals = rng.normal(size=(n, cols))
        zero = rng.random((n, cols)) < 0.5
        zero[0, 0] = zero[-1, 0] = True
        trips = [(i, j, v) for (i, j), v in np.ndenumerate(vals)]
        trips += [(i, j, -vals[i, j]) for i, j in zip(*np.nonzero(zero))]
        mats.append(SparseMatrix.from_triplets(n, cols, trips))
    return make_ode(n, *mats, rng.normal(size=n) * 0.3, assume_valid=True)


ODE_KINDS = {"normal": random_ode, "nonnormal": nonnormal_ode, "zeros": zeros_ode}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("c", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["normal", "nonnormal", "zeros"])
def test_assemble_A_matches_per_slot_construction(n, c, kind):
    ode = ODE_KINDS[kind](n, seed=7 * n + c)
    if kind == "zeros":
        # every entry is stored, so these zeros are stored ones
        assert ode.F1.nnz == n * n and ode.F2.nnz == n ** 3
        assert ode.F1[0, 0] == ode.F1[n - 1, 0] == ode.F2[0, 0] == ode.F2[n - 1, 0] == 0
    A, want = assemble_A(ode, c).A, per_slot_A(ode, c)
    assert np.array_equal(A.indptr, want.indptr)
    assert np.array_equal(A.indices, want.indices)
    assert A.data.tobytes() == want.data.tobytes()


def cancelling_ode(n: int, seed: int):
    """An upper-triangular F1, under assume_valid, with diagonal 1, -1, 2
    (its first n) and a stored zero below it, so that A's diagonal, a sum of
    these over the slots, comes to 0 at t = (0, 1) and (1, 1, 2); F2 holds
    stored zeros."""
    rng = np.random.default_rng(seed)
    F1 = np.triu(rng.normal(size=(n, n)), 1) + np.diag([1.0, -1.0, 2.0][:n])
    trips = [(i, j, v) for (i, j), v in np.ndenumerate(F1) if v != 0] + [(n - 1, 0, 0.0)]
    F2 = slot_asymmetric_F2(n, rng, "stored", 0.3)
    return make_ode(n, SparseMatrix.from_triplets(n, n, trips), F2, rng.normal(size=n) * 0.3,
                    assume_valid=True)


def rounding_ode(n: int, seed: int):
    """An upper-triangular F1, under assume_valid, with diagonal 1e16, 1,
    -1e16 (its first n), whose sum over three slots rounds by its order:
    (1e16 + 1) - 1e16 is 0, (1e16 - 1e16) + 1 is 1."""
    rng = np.random.default_rng(seed)
    F1 = np.triu(rng.normal(size=(n, n)), 1) + np.diag([1e16, 1.0, -1e16][:n])
    F2 = rng.normal(size=(n, n * n)) * 0.1
    return make_ode(n, SparseMatrix(F1), SparseMatrix(F2), rng.normal(size=n) * 0.3,
                    assume_valid=True)


PROBE_KINDS = {**ODE_KINDS, "cancelling": cancelling_ode, "rounding": rounding_ode,
               "F2 = 0": lambda n, seed: random_ode(n, seed, f2_scale=0.0)}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(0, 4), st.integers(0, 10_000),
       st.sampled_from(list(PROBE_KINDS)))
# level 2 stored 0 at t = (0, 1, 2) and 1.0 at t = (0, 2, 1), summed in slot order
@example(3, 2, 0, "rounding")
def test_every_row_of_A_is_its_representatives_row(n, c, seed, kind):
    # exactly, with no rounding bound: a row's (orbit of the column, value)
    # pairs, sorted, are those of its orbit's representative, bit for bit
    ode = PROBE_KINDS[kind](n, seed)
    sys = assemble_A(ode, c)
    A, orbit, reps = sys.A, sys.basis.orbit, sys.basis.reps

    def pairs(row):
        span = slice(A.indptr[row], A.indptr[row + 1])
        cols, bits = orbit[A.indices[span]], A.data[span].view(np.int64)
        order = np.lexsort((bits, cols))
        return cols[order], bits[order]

    for row in range(sys.index.N):
        got, want = pairs(row), pairs(reps[orbit[row]])
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), row


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(0, 4), st.integers(0, 10_000),
       st.sampled_from(list(PROBE_KINDS)))
def test_the_tensor_form_is_A_within_its_rounding_bound(n, c, seed, kind):
    # the tensor form's product and magnitudes against A's CSR product and
    # |A| |x|, with the bound of `_tensor_gate` rebuilt from its docstring
    ode = PROBE_KINDS[kind](n, seed)
    sys = assemble_A(ode, c)
    index, A = sys.index, sys.A
    x = np.random.default_rng(seed).standard_normal(index.N)
    got, mag = hpmsim.embedding._tensor_apply(ode, index, x)
    r1, r2 = (max_line_nnz(F)[0] for F in (ode.F1, ode.F2))
    ops = 2 * ((c + 1) * r1 + (index.beta[1] if c else 0) * r2 + c + 2) + 30
    gamma = ops * math.ldexp(1.0, -53) / (1 - ops * math.ldexp(1.0, -53))
    assert (abs(A) @ np.abs(x) <= mag * (1 + gamma)).all()
    want = A @ x
    for i in range(c + 1):
        lvl = index.level_slice(i)
        assert np.linalg.norm(got[lvl] - want[lvl]) <= gamma * np.linalg.norm(mag[lvl])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(0, 4), st.integers(0, 10_000),
       st.sampled_from(list(PROBE_KINDS)))
def test_the_counts_without_A_are_those_of_A(n, c, seed, kind):
    # the most nonzeros in a representative's row and, level by level from
    # F1 and F2, in a column: max_line_nnz of the full A
    ode = PROBE_KINDS[kind](n, seed)
    sys = assemble_A(ode, c)
    rep = structural_report(sys, spectral_norm(ode.F2), -1.0)
    assert (rep["max_row_nnz"], rep["max_col_nnz"]) == max_line_nnz(sys.A)


# -- the ||A|| bracket and the step count it certifies ----------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 10_000),
       st.floats(0.05, 3.0))
def test_norm_bracket_holds_and_certifies_m(n, c, seed, T):
    ode = random_ode(n, seed=seed)
    sys = assemble_A(ode, c)
    norm = np.linalg.norm(sys.A.toarray(), 2)
    assert sys.norm_A_lower <= norm <= sys.norm_A
    # m comes from the upper end: the per-step contract holds for the true
    # norm, and m is the least one wherever both ends give the same count
    m, h = step_counts(T, sys.norm_A)
    assert norm * h <= 1.0 + 1e-9
    if step_counts(T, sys.norm_A_lower)[0] == m:
        sigma = spectral_norm(sys.A, tol=1e-10)
        assert m == math.ceil(T * sigma - 1e-12)


@pytest.mark.parametrize("c", [1, 2, 3])
@pytest.mark.parametrize("T", [0.3, 1.0, None])
def test_norm_of_block_diagonal_A_sits_at_the_lower_end(c, T):
    # F2 = 0 leaves A block diagonal with ||A|| = (c+1) rho(F1), the lower
    # end of the bracket up to its widening: the Lanczos estimate that the
    # embedding_norm row falls back to may not fail its certificate there
    ode = random_ode(3, seed=11, f2_scale=0.0)
    sys = assemble_A(ode, c)
    exact = (c + 1) * float(np.abs(ode.eigs_F1).max())
    assert sys.norm_A_lower <= exact <= sys.norm_A
    assert spectral_norm(sys.A, lower=sys.norm_A_lower) == pytest.approx(exact, rel=1e-12)
    # for a normal F1 both ends meet, so the step count is the least one
    if T is not None:
        assert step_counts(T, sys.norm_A)[0] == math.ceil(T * exact)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("c", [0, 1, 2, 3])
def test_norm_bracket_holds_for_nonnormal_F1(n, c):
    sys = assemble_A(nonnormal_ode(n, seed=3 * n + c), c)
    norm = np.linalg.norm(sys.A.toarray(), 2)
    assert sys.norm_A_lower <= norm <= sys.norm_A


def slot_asymmetric_F2(n: int, rng, kind: str, scale: float) -> SparseMatrix:
    """An F2 with F2[u, t n + t'] != F2[u, t' n + t] wherever t != t', or
    F2 = 0 for kind "zero".  Entries are drawn, and for each such pair and
    u one of the two is, with probability 1/2, left out ("sparse") or
    stored as a zero ("stored", by a second triplet that cancels the
    first); "dense" keeps every draw."""
    vals = rng.normal(size=(n, n, n)) * scale
    if kind == "zero":
        return SparseMatrix.from_triplets(n, n * n, [])
    drop = np.zeros((n, n, n), dtype=bool)
    if kind != "dense":
        t, t2 = np.triu_indices(n, 1)
        side = rng.random((n, t.size)) < 0.5
        pick = rng.random((n, t.size)) < 0.5
        u = np.arange(n)[:, None].repeat(t.size, axis=1)
        drop[u[pick], np.where(side, t, t2)[pick], np.where(side, t2, t)[pick]] = True
    trips = [(u, t * n + t2, v) for (u, t, t2), v in np.ndenumerate(vals)
             if kind == "stored" or not drop[u, t, t2]]
    trips += [(u, t * n + t2, -vals[u, t, t2]) for u, t, t2 in zip(*np.nonzero(drop))
              if kind == "stored"]
    return SparseMatrix.from_triplets(n, n * n, trips)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.integers(0, 5), st.integers(0, 10_000),
       st.sampled_from(["dense", "sparse", "stored", "zero"]), st.integers(-1, 4))
def test_coupling_norms_in_closed_form_are_those_of_the_assembled_blocks(n, c, seed, kind,
                                                                          decade):
    # the bracket and the log-norm end rebuilt from sqrt(||U_i||_1 ||U_i||_inf)
    # of the blocks U_i sliced out of the assembled A; F1 = -1e-3 times a
    # positive diagonal (normal, dissipative) leaves the coupling dominant
    rng = np.random.default_rng(seed)
    F1 = SparseMatrix(np.diag(-1e-3 * rng.uniform(0.5, 2.0, n)))
    F2 = slot_asymmetric_F2(n, rng, kind, 10.0 ** decade)
    dense = F2.toarray().reshape(n, n, n)
    off = ~np.eye(n, dtype=bool)
    assert kind == "zero" or (dense != dense.transpose(0, 2, 1))[:, off].all()
    if kind == "stored":
        assert F2.nnz == n ** 3
    ode = make_ode(n, F1, F2, rng.normal(size=n) * 0.3)
    sys = assemble_A(ode, c)
    level = sys.index.level_slice
    coupling = max((schur_bound(sys.A[level(i), level(i + 1)]) for i in range(c)),
                   default=0.0)
    upper = (c + 1) * ode.norm_F1 + coupling
    mu = ode.log_norm_F1
    want_log = max(mu, (c + 1) * mu) + coupling + BRACKET_SLACK * upper
    assert abs(sys.norm_A - upper * (1 + BRACKET_SLACK)) <= 1e-15 * sys.norm_A
    assert abs(sys.log_norm_A_upper - want_log) <= 1e-15 * abs(want_log)


# -- the closed-form log-norm bound behind the exp_norm certificate ----------

@pytest.mark.parametrize("kind", ["normal", "nonnormal"])
@pytest.mark.parametrize("c", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_log_norm_bound_holds(n, c, kind):
    # mu(A) = lambda_max((A + A^T)/2) never exceeds the closed-form upper end,
    # also where a non-normal F1 makes mu(F1) positive; dense up to N = 1,500,
    # above that from Lanczos, whose Ritz value is never above lambda_max
    ode = random_ode(n, seed=5 * n + c) if kind == "normal" else nonnormal_ode(n, 5 * n + c)
    sys = assemble_A(ode, c)
    sym = (sys.A + sys.A.T) / 2.0
    if sys.index.N <= 1500:
        mu = np.linalg.eigvalsh(sym.toarray())[-1]
    else:
        mu = eigsh(sym, k=1, which="LA", tol=1e-12, return_eigenvectors=False)[0]
    assert mu <= sys.log_norm_A_upper


@pytest.mark.parametrize("T", [1.0, 3.0])
def test_norm_estimate_cost_guard_gen8(monkeypatch, T):
    # at n = 8, c = 3 (the order a run at epsilon = 1e-2 selects) neither the
    # assembly nor the step count makes a product with A for ||A||, also at
    # T = 3, where an integer lies between T ||A|| and T upper
    ode = generate_instance(8, 2, 0.3, 7)
    calls = []
    monkeypatch.setattr(hpmsim.sparse, "svds", lambda *a, **kw: calls.append(a))
    sys = assemble_A(ode, 3)
    m, h = step_counts(T, sys.norm_A)
    assert calls == []
    assert sys.norm_A * h <= 1.0


# -- diagnostics ----------------------------------------------------------

def test_structural_report_n1_c1():
    ode = std1()
    sys = assemble_A(ode, 1)
    rep = structural_report(sys, 0.2, -1.0)
    assert rep["norm_A"] <= 2.0 * (1.0 + 0.2)
    assert rep["max_re_eigenvalue"] == -1.0


def test_structural_report_raises_only_on_the_estimate():
    # an upper end over (c+1)(||F1|| + ||F2||) alone proves nothing either way;
    # the Lanczos estimate then decides, here for A and for 2A
    ode, c = random_ode(2, seed=4), 2
    sys = assemble_A(ode, c)
    norm_f2, re1 = spectral_norm(ode.F2), compute_K(ode).re_lambda1
    bound = (c + 1) * (ode.norm_F1 + norm_f2)
    rep = structural_report(dataclasses.replace(sys, norm_A=2 * bound), norm_f2, re1)
    assert rep["norm_A_estimate"] == spectral_norm(sys.A, lower=sys.norm_A_lower)
    doubled = dataclasses.replace(sys, norm_A=2 * bound)
    doubled.A = 2 * sys.A
    with pytest.raises(BoundViolation, match="exceeds"):
        structural_report(doubled, norm_f2, re1)


def test_structural_report_linear_eigs():
    F1 = SparseMatrix.from_triplets(2, 2, [(0, 0, -1.0), (1, 1, -2.0)])
    F2 = SparseMatrix.from_triplets(2, 4, [])
    ode = make_ode(2, F1, F2, [0.1, 0.2])
    sys = assemble_A(ode, 2)
    rep = structural_report(sys, 0.0, compute_K(ode).re_lambda1)
    # eigenvalues of the embedding are sums of i+1 eigenvalues of F1
    gamma = np.linalg.eigvals(sys.A.toarray())
    sums = {-1.0, -2.0, -3.0, -4.0, -5.0, -6.0}
    for g in gamma:
        assert abs(g.imag) < 1e-9
        assert any(abs(g.real - s) < 1e-9 for s in sums)
    assert rep["max_re_eigenvalue"] == pytest.approx(-1.0, abs=1e-9)


def with_full_A(monkeypatch, sys, dense):
    """sys with its full A built afresh, on first read, from the rows of
    dense: the run's own path to A, through the probe that guards it."""
    real, bad = hpmsim.embedding._rows_of_A, sp.csr_array(dense)

    def rows_of_A(ode, index, pos):
        if pos.size < index.N:
            return real(ode, index, pos)
        return bad.data, bad.indices, bad.indptr

    monkeypatch.setattr(hpmsim.embedding, "_rows_of_A", rows_of_A)
    return dataclasses.replace(sys)


def with_rows(sys, dense):
    """sys whose representatives' rows are those of dense."""
    return dataclasses.replace(sys, rows=sp.csr_array(dense[sys.basis.reps]))


@pytest.mark.parametrize("row_level, col_level", [(0, 2), (1, 0), (2, 1)])
def test_structural_report_rejects_entries_off_the_bidiagonal(monkeypatch, row_level, col_level):
    # the structural report reads the representatives' rows, and the probe
    # of the full A its rows, each refusing the entry at its row's level
    ode = std1()
    sys = assemble_A(ode, 2)
    structural_report(sys, 0.2, -1.0)
    dense = sys.A.toarray()
    dense[sys.index.offsets[row_level], sys.index.offsets[col_level]] = 1e-3
    with pytest.raises(BoundViolation, match=f"level {row_level} outside the block bidiagonal"):
        structural_report(with_rows(sys, dense), 0.2, -1.0)
    with pytest.raises(BoundViolation, match=f"at level {row_level} "):
        with_full_A(monkeypatch, sys, dense).A


def refused_at(monkeypatch, sys, dense, level):
    """dense, as the full A and as the representatives' rows, is refused at
    level by the probe of the full A and by the orbit gate."""
    with pytest.raises(BoundViolation, match=f"not its tensor form at level {level} "):
        with_full_A(monkeypatch, sys, dense).A
    with pytest.raises(NumericalError, match=f"orbit basis.* at level {level} "):
        assemble_A_sym(with_rows(sys, dense))


@pytest.mark.parametrize("level", [0, 1, 2])
def test_structural_report_rejects_perturbed_diagonal_block(monkeypatch, level):
    ode = random_ode(2, seed=5)
    sys = assemble_A(ode, 2)
    assemble_A_sym(sys)
    dense = sys.A.toarray()
    start = sys.index.offsets[level]
    assert dense[start, start] != 0.0
    dense[start, start] += 1e-6
    refused_at(monkeypatch, sys, dense, level)


def test_structural_report_rejects_swapped_kronecker_order(monkeypatch):
    # level 1 at n=2, c=2: (F1 kron I + I kron F1) kron I_beta in place of
    # I_beta kron (F1 kron I + I kron F1)
    ode = random_ode(2, seed=6)
    sys = assemble_A(ode, 2)
    F1, eye = ode.F1.toarray(), np.eye(2)
    ksum = np.kron(F1, eye) + np.kron(eye, F1)
    beta, lvl = sys.index.beta[1], sys.index.level_slice(1)
    dense = sys.A.toarray()
    assert np.array_equal(dense[lvl, lvl], np.kron(np.eye(beta), ksum))
    swapped = np.kron(ksum, np.eye(beta))
    assert not np.allclose(swapped, dense[lvl, lvl])
    dense[lvl, lvl] = swapped
    refused_at(monkeypatch, sys, dense, 1)


def test_structural_report_probe_orients_nonnormal_blocks(monkeypatch):
    # an upper-triangular F1 tells F1 from F1^T: the assembled A passes, a
    # level-2 block built from F1^T does not
    ode = nonnormal_ode(3, seed=8)
    sys = assemble_A(ode, 2)
    assemble_A_sym(sys)
    F1t = ode.F1.toarray().T
    ksum = sum(np.kron(np.kron(np.eye(3 ** k), F1t), np.eye(3 ** (2 - k))) for k in range(3))
    lvl = sys.index.level_slice(2)
    dense = sys.A.toarray()
    dense[lvl, lvl] = np.kron(np.eye(sys.index.beta[2]), ksum)
    refused_at(monkeypatch, sys, dense, 2)


def test_structural_report_random_instance():
    ode = random_ode(2, seed=3)
    norm_f2 = spectral_norm(ode.F2)
    sys = assemble_A(ode, 2)
    rep = structural_report(sys, norm_f2, compute_K(ode).re_lambda1)
    assert rep["max_re_eigenvalue"] < 0
    assert rep["norm_A"] <= rep["norm_A_bound"] * (1 + 1e-9)
    assert rep["max_row_nnz"] <= rep["sparsity_witness"]


# -- row patterns of the Kronecker sum ------------------------------------

def brute_force_pattern(F1: SparseMatrix, m: int, row: tuple[int, ...]):
    """Structural pattern of B(m) via dense Kronecker materialization."""
    n = F1.shape[0]
    struct = (F1.toarray() != 0).astype(float) + np.eye(n)
    total = np.zeros((n ** (m + 1), n ** (m + 1)))
    for j in range(m + 1):
        term = np.eye(n ** j)
        term = np.kron(term, struct)
        term = np.kron(term, np.eye(n ** (m - j)))
        total += term
    flat = 0
    for d in row:
        flat = flat * n + d
    cols = np.nonzero(total[flat])[0]
    out = []
    for cval in cols:
        digits = []
        rem = int(cval)
        for _ in range(m + 1):
            digits.append(rem % n)
            rem //= n
        out.append(tuple(reversed(digits)))
    return set(out)


def test_row_pattern_m0_is_F1_row():
    F1 = SparseMatrix.from_triplets(3, 3, [(0, 0, -1.0), (0, 2, 0.5), (1, 1, -2.0),
                                           (2, 2, -1.5)])
    assert row_pattern_Bm(F1, 0, (0,)) == [(0,), (2,)]
    # diagonal is structural even where nothing is stored: row 1 of a matrix
    # with an empty row still reports its diagonal
    F1b = SparseMatrix.from_triplets(2, 2, [(0, 0, -1.0)])
    assert row_pattern_Bm(F1b, 0, (1,)) == [(1,)]


def test_row_pattern_m1_dense_2x2():
    F1 = SparseMatrix(np.array([[-1.0, 0.5], [0.3, -2.0]]))
    pattern = row_pattern_Bm(F1, 1, (0, 0))
    assert set(pattern) == {(0, 0), (0, 1), (1, 0)}
    assert len(pattern) == 2 * 2 - 1  # (m+1)s - m with s=2


def test_row_pattern_matches_brute_force():
    rng = np.random.default_rng(17)
    F1 = SparseMatrix.from_triplets(3, 3, [
        (0, 0, -1.0), (0, 1, 0.4), (1, 1, -2.0), (2, 0, 0.3), (2, 2, -1.0)])
    s = max(3, *max_line_nnz(F1))
    for m in range(0, 4):
        for _ in range(5):
            row = tuple(rng.integers(0, 3, size=m + 1).tolist())
            pattern = row_pattern_Bm(F1, m, row)
            assert len(set(pattern)) == len(pattern)
            assert set(pattern) == brute_force_pattern(F1, m, row), (m, row)
            assert len(pattern) <= (m + 1) * s - m


def test_row_pattern_rejects_bad_digits():
    F1 = SparseMatrix(np.eye(2))
    with pytest.raises(ValidationError):
        row_pattern_Bm(F1, 1, (0, 5))
    with pytest.raises(ValidationError):
        row_pattern_Bm(F1, 1, (0,))


# -- the embedding is the cascade, stacked --------------------------------

def fd_residual(ode, c: int, T: float, dt: float) -> float:
    casc = solve_cascade(ode, c, T, dt=dt)
    sys = assemble_A(ode, c)
    ys = np.stack([build_embedded_vector(sys.index, casc.nu[:, t, :])
                   for t in range(len(casc.ts))])
    h = casc.ts[1] - casc.ts[0]
    worst = 0.0
    for t in range(1, len(casc.ts) - 1):
        deriv = (ys[t + 1] - ys[t - 1]) / (2 * h)
        worst = max(worst, float(np.linalg.norm(deriv - (sys.A @ ys[t]))))
    return worst


@pytest.mark.parametrize("n,c,seed", [(1, 2, 1), (2, 2, 2), (2, 3, 3)])
def test_embedding_consistency_second_order(n, c, seed):
    ode = random_ode(n, seed=seed) if n > 1 else std1()
    coarse = fd_residual(ode, c, 0.5, dt=0.5 / 50)
    fine = fd_residual(ode, c, 0.5, dt=0.5 / 100)
    assert coarse / fine == pytest.approx(4.0, rel=0.25)


def test_dense_exponential_matches_cascade():
    # level-0 block of expm(A t) y_in is the truncated cascade sum
    ode = random_ode(2, seed=21)
    c = 3
    casc = solve_cascade(ode, c, 1.0, dt=1e-3)
    sys = assemble_A(ode, c)
    E = dense_expm(sys.A.toarray() * 1.0)
    y_T = E @ sys.y_in
    utilde = truncated_solution(casc, 1.0)
    assert np.linalg.norm(y_T[sys.index.level_slice(0)] - utilde) <= 1e-6


def test_embedded_norm_profile_matches_direct():
    ode = random_ode(2, seed=8)
    c = 3
    casc = solve_cascade(ode, c, 1.0, dt=1e-2)
    sys = assemble_A(ode, c)
    order_norms = np.linalg.norm(casc.nu, axis=2)
    level0 = np.linalg.norm(casc.nu.sum(axis=0), axis=1)
    profile = embedded_norm_profile(sys.index, order_norms, level0)
    for t in (0, len(casc.ts) // 2, len(casc.ts) - 1):
        y = build_embedded_vector(sys.index, casc.nu[:, t, :])
        assert profile[t] == pytest.approx(np.linalg.norm(y), rel=1e-12)


# -- the orbit basis of the slot-symmetric subspace ------------------------------

def multiset_count(n: int, c: int) -> int:
    """n level-0 entries plus, for each level i >= 1, the multisets of i+1
    pairs (a, t), t in 0..n-1, whose a sum to at most c - i: a dynamic
    programme over the values of a, q pairs of one value a chosen among the
    C(n+q-1, q) multisets of its n pairs."""
    total = n
    for i in range(1, c + 1):
        size, budget = i + 1, c - i
        ways = {(0, 0): 1}                    # (pairs so far, sum of a) -> count
        for a in range(budget + 1):
            grown: dict = {}
            for (count, s), w in ways.items():
                for q in range(size - count + 1):
                    if s + q * a > budget:
                        break
                    key = (count + q, s + q * a)
                    grown[key] = grown.get(key, 0) + w * math.comb(n + q - 1, q)
            ways = grown
        total += sum(w for (count, _), w in ways.items() if count == size)
    return total


def orbit_keys(index) -> list:
    """The orbit key of every coordinate by a loop over coordinates: (0, t)
    on level 0, else (i, the sorted pairs (a_s, t_s))."""
    keys = [(0, t) for t in range(index.n)]
    for i in range(1, index.c + 1):
        for a in index.levels[i]:
            keys += [(i, tuple(sorted(zip(a, t))))
                     for t in itertools.product(range(index.n), repeat=i + 1)]
    return keys


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(0, 4), st.integers(0, 10_000),
       st.sampled_from(["normal", "nonnormal"]))
def test_orbit_basis_is_invariant_under_A_and_counts_the_multisets(n, c, seed, kind):
    # random_ode's dense F2 and nonnormal_ode's colliding triplets have no
    # symmetry between the two factors of u kron u; nonnormal_ode's F1 is
    # upper triangular, under assume_valid
    ode = random_ode(n, seed) if kind == "normal" else nonnormal_ode(n, seed)
    sys = assemble_A(ode, c)
    basis = orbit_basis(sys.index)
    N, R = sys.index.N, basis.reps.size
    assert R == multiset_count(n, c)
    assert np.array_equal(basis.orbit[:n], np.arange(n))
    assert np.array_equal(basis.reps[:n], np.arange(n))
    assert np.array_equal(basis.root_w[:n], np.ones(n))
    # the orbits are the classes of the loop's keys, numbered by the first
    # coordinate of each, and root_w holds the square roots of their sizes
    keys = orbit_keys(sys.index)
    assert len(keys) == N
    assert len(set(zip(keys, basis.orbit.tolist()))) == len(set(keys)) == R
    assert np.array_equal(basis.orbit[basis.reps], np.arange(R))
    assert np.array_equal(basis.root_w, np.sqrt(np.bincount(basis.orbit, minlength=R)))
    V = sp.csr_array((1.0 / basis.root_w[basis.orbit], (np.arange(N), basis.orbit)),
                     shape=(N, R))
    A_sym = assemble_A_sym(sys)
    AV = (sys.A @ V).toarray()
    assert np.linalg.norm(AV - (V @ A_sym).toarray()) <= 1e-14 * np.linalg.norm(AV)
    assert np.allclose((V.T @ V).toarray(), np.eye(R), rtol=0.0, atol=1e-15)
    y = basis.expand(basis.restrict(sys.y_in))
    assert np.linalg.norm(y - sys.y_in) <= 1e-14 * np.linalg.norm(sys.y_in)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(0, 4), st.integers(0, 10_000),
       st.sampled_from(list(ODE_KINDS)))
def test_A_sym_from_the_row_builder_is_the_gather_from_A(n, c, seed, kind):
    # the builder's rows at the representatives, mapped to orbits, against
    # the same rows gathered out of A's CSR arrays: the same entries in the
    # same order into one COO->CSR, so the same bits; no F2 has a symmetry
    # between the two factors of u kron u
    ode = ODE_KINDS[kind](n, seed)
    sys = assemble_A(ode, c)
    basis = orbit_basis(sys.index)
    got, want = assemble_A_sym(sys), reduce_to_orbits(sys.A, basis)
    assert got.indptr.dtype == want.indptr.dtype and got.indices.dtype == want.indices.dtype
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(0, 4), st.integers(0, 10_000),
       st.sampled_from(["normal", "nonnormal"]), st.sampled_from(SOLVERS))
# summed in sequence, its level groups differed by 1.005e-14 relative
@example(3, 4, 44, "nonnormal", "iterative")
def test_the_orbit_solution_reads_as_the_full_one(n, c, seed, kind, solver):
    # the orbits' level groups are the coordinates' groups, and post-selection
    # and the step errors read the orbit solution with them as they read the
    # same solution expanded, with every coordinate's group
    ode = random_ode(n, seed) if kind == "normal" else nonnormal_ode(n, seed)
    sys = assemble_A(ode, c)
    basis = orbit_basis(sys.index)
    group = level_groups(sys.index)
    assert np.array_equal(basis.group[basis.orbit], group)
    assert np.array_equal(basis.group[:n], np.full(n, -1)) and (basis.group[n:] >= 1).all()

    A_sym, y_sym = assemble_A_sym(sys), basis.restrict(sys.y_in)
    m, h = step_counts(0.5, sys.norm_A)
    params = TaylorSystemParams(c=c, h=h, m=m, k=8, p=m, d=m * 9 + m, delta=1e-10,
                                epsilon1=0.0, Omega=0.0, g=1.0, eta=1.0,
                                eta_prime=0.0, norm_A=sys.norm_A, N=sys.index.N)
    C = assemble_C(A_sym, params)
    sym = solve_marching(C, y_sym, solver=solver)
    full = dataclasses.replace(sym, starts=basis.expand(sym.starts),
                               final=basis.expand(sym.final))
    nl = compute_K(ode)
    a, b = postselect(sym, basis.group, nl, 1.0), postselect(full, group, nl, 1.0)
    assert a.u_out.tobytes() == b.u_out.tobytes()
    assert len(a.level_group_norms_sq) == len(b.level_group_norms_sq) == c
    for got, want in ((a.p1_block_ratio, b.p1_block_ratio), (a.chi0_sq, b.chi0_sq),
                      *zip(a.level_group_norms_sq, b.level_group_norms_sq)):
        assert abs(got - want) <= 1e-14 * want

    floor = C.probe_tol * np.linalg.norm(sys.y_in)
    rows = zip(step_errors_vs_expm(A_sym, y_sym, sym),
               step_errors_vs_expm(sys.A, sys.y_in, full))
    for got, want in rows:
        assert abs(got["bound"] - want["bound"]) <= 1e-14 * want["bound"]
        assert abs(got["measured"] - want["measured"]) <= floor


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_a_diagonal_block_off_the_kronecker_sum_is_refused_at_its_level(monkeypatch, level):
    # one diagonal entry of the level's first row, moved by 1e-3 ||F1||
    ode = random_ode(2, seed=3)
    sys = assemble_A(ode, 3)
    row = sys.index.level_slice(level).start
    dense = sys.A.toarray()
    dense[row, row] += 1e-3 * ode.norm_F1
    refused_at(monkeypatch, sys, dense, level)


def test_a_coupling_block_off_the_tensor_form_is_refused_at_its_level(monkeypatch):
    # a coupling entry of level 1 into level 2, which no structural check
    # reads: the tensor form holds A's coupling blocks as well
    ode = random_ode(2, seed=3)
    sys = assemble_A(ode, 3)
    dense = sys.A.toarray()
    lvl1, lvl2 = sys.index.level_slice(1), sys.index.level_slice(2)
    row = next(r for r in sys.basis.reps if lvl1.start <= r < lvl1.stop and dense[r, lvl2].any())
    col = lvl2.start + np.flatnonzero(dense[row, lvl2])[0]
    dense[row, col] *= 1 + 1e-6
    refused_at(monkeypatch, sys, dense, 1)


def test_orbit_keys_that_overflow_int64_are_refused():
    # level 1 of n = 2^32 keys its pairs in base 2^32: the largest key,
    # 2^64 - 1, does not fit, and the refusal comes before any allocation
    with pytest.raises(ValidationError, match="overflows int64"):
        orbit_basis(build_index_map(1, 2 ** 32, cap=math.inf))


def test_a_reduction_that_leaks_out_of_the_orbit_basis_is_refused():
    # one coordinate moved to another orbit of the same level: A V = V A_sym
    # fails far above the probe's rounding bound
    ode = random_ode(2, seed=5)
    sys = assemble_A(ode, 3)
    basis = orbit_basis(sys.index)
    level = sys.index.level_slice(2)
    i, j = level.start, level.start + 1
    assert basis.orbit[i] != basis.orbit[j]
    orbit = basis.orbit.copy()
    orbit[[i, j]] = orbit[[j, i]]
    with pytest.raises(NumericalError, match="does not keep the orbit basis"):
        assemble_A_sym(dataclasses.replace(sys, basis=dataclasses.replace(basis, orbit=orbit)))
