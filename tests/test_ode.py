import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate

import hpmsim
from hpmsim.errors import NumericalError, ValidationError
from hpmsim.ode import (
    RTOL,
    RTOL_LOOSE,
    compute_K,
    default_dt,
    grid_steps,
    integrate,
    make_ode,
    reference_solution,
    rescale,
)
from hpmsim.pipeline import generate_instance
from hpmsim.sparse import SparseMatrix, read_triplets, spectral_norm
from oracles import bernoulli_closed_form


def std1():
    F1 = SparseMatrix.from_triplets(1, 1, [(0, 0, -1.0)])
    F2 = SparseMatrix.from_triplets(1, 1, [(0, 0, 0.2)])
    return make_ode(1, F1, F2, [0.5])


def test_F1_and_F2_are_canonical_float64_int32_sparse_matrices(tmp_path):
    # triplets out of row-major order with one duplicate, inline and from a file
    trips = [(1, 3, 2.0), (0, 1, -1.0), (1, 3, 0.5), (1, 0, 0.25)]
    path = tmp_path / "F2.txt"
    path.write_text("2 4 4\n" + "".join(f"{i} {j} {v}\n" for i, j, v in trips))
    F1 = SparseMatrix.from_triplets(2, 2, [(1, 1, -2.0), (0, 0, -1.0)])
    ode = make_ode(2, F1, read_triplets(path), [0.3, 0.1])
    gen = generate_instance(3, 2, 0.3, 7)
    for M in (SparseMatrix.from_triplets(2, 4, trips), ode.F1, ode.F2, rescale(ode, 0.5).F2,
              gen.F1, gen.F2, rescale(gen, 0.5).F2):
        assert type(M) is SparseMatrix
        assert M.dtype == np.float64
        assert M.indices.dtype == M.indptr.dtype == np.int32
        rows = np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))
        assert np.all(np.diff(rows * M.shape[1] + M.indices) > 0)   # sorted, no duplicates


def test_compute_K_std1():
    nl = compute_K(std1())
    assert nl.K == pytest.approx(0.4, abs=1e-12)
    assert nl.re_lambda1 == pytest.approx(-1.0, abs=1e-10)
    assert nl.flag_K_below_u            # 0.4 < 0.5: rescaling still needed
    assert not nl.flag_K_large


def test_compute_K_linear():
    F1 = SparseMatrix.from_triplets(2, 2, [(0, 0, -1.0), (1, 1, -3.0)])
    F2 = SparseMatrix.from_triplets(2, 4, [])
    nl = compute_K(make_ode(2, F1, F2, [0.3, 0.1]))
    assert nl.K == 0.0


def test_compute_K_cross_checked_with_svd():
    F1 = SparseMatrix.from_triplets(2, 2, [(0, 0, -1.0), (1, 1, -3.0)])
    F2 = SparseMatrix.from_triplets(2, 4, [(0, 1, 0.3), (1, 2, -0.2), (0, 3, 0.1)])
    u_in = np.array([0.3, 0.1])
    nl = compute_K(make_ode(2, F1, F2, u_in))
    norm_f2 = np.linalg.svd(F2.toarray(), compute_uv=False)[0]
    expected = 4.0 * np.linalg.norm(u_in) * norm_f2 / 1.0
    assert nl.K == pytest.approx(expected, abs=1e-8)


def test_not_dissipative_rejected():
    F1 = SparseMatrix.from_triplets(1, 1, [(0, 0, 0.5)])
    F2 = SparseMatrix.from_triplets(1, 1, [])
    with pytest.raises(ValidationError, match="dissipative"):
        make_ode(1, F1, F2, [1.0])


def test_non_normal_rejected():
    # [[-1, 5], [0, -1]]: stable but far from normal
    F1 = SparseMatrix.from_triplets(2, 2, [(0, 0, -1.0), (0, 1, 5.0), (1, 1, -1.0)])
    F2 = SparseMatrix.from_triplets(2, 4, [])
    with pytest.raises(ValidationError, match="normal"):
        make_ode(2, F1, F2, [1.0, 0.0])


def test_normal_F1_with_complex_eigenvalues_is_accepted():
    # [[-1, 2], [-2, -1]] is normal with eigenvalues -1 +- 2i
    F1 = SparseMatrix.from_triplets(2, 2, [(0, 0, -1.0), (0, 1, 2.0), (1, 0, -2.0),
                                           (1, 1, -1.0)])
    ode = make_ode(2, F1, SparseMatrix.from_triplets(2, 4, []), [0.3, 0.1])
    assert sorted(ode.eigs_F1.imag) == pytest.approx([-2.0, 2.0])
    assert ode.norm_F1 == pytest.approx(math.sqrt(5.0), rel=1e-15)
    assert compute_K(ode).re_lambda1 == pytest.approx(-1.0)


def test_instance_carries_the_spectrum_of_F1(monkeypatch):
    F1 = SparseMatrix.from_triplets(2, 2, [(0, 0, -1.0), (1, 1, -4.0)])
    F2 = SparseMatrix.from_triplets(2, 4, [(0, 1, 0.3)])
    ode = make_ode(2, F1, F2, [0.3, 0.1])
    assert ode.norm_F1 == 4.0
    assert sorted(ode.eigs_F1.real) == [-4.0, -1.0]
    assert default_dt(ode, 100.0) == 1.0 / 40.0
    # rescaling keeps F1, and with it the spectrum: nothing is taken again
    monkeypatch.setattr(hpmsim.ode, "f1_spectrum", None)
    assert rescale(ode, 2.0).norm_F1 == 4.0


def test_spectrum_refused_over_the_dense_cap():
    # F1's spectrum is taken from a dense F1, so n^2 over the cap is refused
    F1 = SparseMatrix.from_triplets(3, 3, [(i, i, -1.0) for i in range(3)])
    F2 = SparseMatrix.from_triplets(3, 9, [])
    with pytest.raises(ValidationError, match="dense oracle refused: 3x3 exceeds cap of 8"):
        make_ode(3, F1, F2, [0.1, 0.2, 0.3], dense_cap=8)
    assert make_ode(3, F1, F2, [0.1, 0.2, 0.3], dense_cap=9).norm_F1 == 1.0


def test_log_norm_of_F1():
    # mu(F1) = lambda_max((F1 + F1^T)/2): the spectral abscissa of a normal
    # F1, and above it for a non-normal one, here 0.5 against -1
    normal = make_ode(2, SparseMatrix.from_triplets(2, 2, [(0, 0, -1.0), (1, 1, -4.0)]),
                      SparseMatrix.from_triplets(2, 4, []), [0.3, 0.1])
    assert normal.log_norm_F1 == pytest.approx(-1.0, rel=1e-15)
    F1 = SparseMatrix.from_triplets(2, 2, [(0, 0, -1.0), (0, 1, 3.0), (1, 1, -1.0)])
    ode = make_ode(2, F1, SparseMatrix.from_triplets(2, 4, []), [0.3, 0.2], assume_valid=True)
    assert ode.log_norm_F1 == pytest.approx(0.5, rel=1e-15)
    assert rescale(ode, 2.0).log_norm_F1 == ode.log_norm_F1


def test_rescale_identity():
    ode = std1()
    same = rescale(ode, 1.0)
    assert np.array_equal(same.u_in, ode.u_in)
    assert np.array_equal(same.F2.toarray(), ode.F2.toarray())


def test_rescale_std1_numbers():
    # zeta = K/||u_in|| = 0.8 gives ||u_in'|| = 0.4 = K, ||F2'|| = 0.25
    scaled = rescale(std1(), 0.8)
    assert np.linalg.norm(scaled.u_in) == pytest.approx(0.4, abs=1e-15)
    assert spectral_norm(scaled.F2) == pytest.approx(0.25, rel=1e-10)
    nl = compute_K(scaled)
    assert nl.K == pytest.approx(0.4, abs=1e-12)
    assert not nl.flag_K_below_u


def test_rescale_rejects_nonpositive():
    with pytest.raises(ValidationError):
        rescale(std1(), 0.0)


def test_rescale_solution_equivalence():
    # u'(t) = zeta u(t): solve both systems and compare trajectories
    ode = std1()
    zeta = 0.8
    scaled = rescale(ode, zeta)
    ts = np.linspace(0.0, 1.0, grid_steps(ode, 1.0, 1e-3) + 1)
    us = integrate(ode.rhs, ode.u_in, ts)
    us_s = integrate(scaled.rhs, scaled.u_in, ts)
    assert np.allclose(zeta * us, us_s, atol=1e-8)


def test_reference_linear_exact():
    F1 = SparseMatrix.from_triplets(1, 1, [(0, 0, -1.0)])
    F2 = SparseMatrix.from_triplets(1, 1, [])
    ode = make_ode(1, F1, F2, [0.5])
    u_T, _ = reference_solution(ode, 1.0)
    assert u_T[0] == pytest.approx(0.5 * math.exp(-1.0), abs=1e-10)


def test_reference_vs_bernoulli_oracle():
    u_T, _ = reference_solution(std1(), 1.0)
    exact = bernoulli_closed_form(0.2, 0.5, 1.0)
    assert exact == pytest.approx(0.19635150275025284, abs=1e-15)
    assert u_T[0] == pytest.approx(exact, abs=1e-10)


def test_reference_T_zero():
    u_T, error = reference_solution(std1(), 0.0)
    assert np.array_equal(u_T, np.array([0.5]))
    assert error == 0.0


def test_reference_divergence_detected():
    # strong positive quadratic feedback blows past 1000x the initial norm
    F1 = SparseMatrix.from_triplets(1, 1, [(0, 0, -0.01)])
    F2 = SparseMatrix.from_triplets(1, 1, [(0, 0, 50.0)])
    ode = make_ode(1, F1, F2, [1.0])
    with pytest.raises(NumericalError, match="diverged"):
        reference_solution(ode, 5.0)


@pytest.mark.parametrize("n", range(1, 9))
def test_rhs_bit_equal_to_kron_form(n):
    rng = np.random.default_rng(100 + n)
    F1 = SparseMatrix(rng.standard_normal((n, n)))
    F2 = SparseMatrix(rng.standard_normal((n, n * n))
                      * (rng.random((n, n * n)) < 0.3))
    ode = make_ode(n, F1, F2, np.zeros(n), assume_valid=True)
    for _ in range(5):
        u = rng.standard_normal(n)
        expected = F1.matvec(u) + F2.matvec(np.kron(u, u))
        assert np.array_equal(ode.rhs(u), expected)


@pytest.mark.parametrize("T", [0.5, 1.0, 2.0, 5.0])
def test_reference_matches_bernoulli_closed_form(T):
    # u(T) is a step end of the integrator; the other points of the default
    # grid come from its 7th-order dense output, which is less accurate
    ode = std1()
    u_T, _ = reference_solution(ode, T)
    assert abs(u_T[0] - bernoulli_closed_form(0.2, 0.5, T)) <= 1e-13
    ts = np.linspace(0.0, T, grid_steps(ode, T) + 1)
    exact = [bernoulli_closed_form(0.2, 0.5, t) for t in ts]
    assert np.abs(integrate(ode.rhs, ode.u_in, ts)[:, 0] - exact).max() <= 1e-12


def test_reference_passes_sample_T_alone(monkeypatch):
    # the run reads u(T) and its error alone: the tight and the loose pass
    # each ask DOP853 for t = T and nothing else
    requested = []
    solve_ivp = scipy.integrate.solve_ivp

    def recording(*args, **kwargs):
        requested.append((kwargs["t_eval"].tolist(), kwargs["rtol"]))
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "solve_ivp", recording)
    reference_solution(std1(), 2.0)
    assert requested == [([2.0], RTOL), ([2.0], RTOL_LOOSE)]


def test_reference_error_bounds_true_error():
    # the reported estimate (distance from the rtol 1e-11 pass) is at least
    # the tight pass's true error against the closed form
    u_T, error = reference_solution(std1(), 1.0)
    exact = bernoulli_closed_form(0.2, 0.5, 1.0)
    true_error = abs(u_T[0] - exact) / abs(exact)
    assert 0.0 < error < 1e-10
    assert true_error <= error


def test_dissipative_norm_decay():
    # for K < 1 the solution norm never exceeds the initial norm
    rng = np.random.default_rng(11)
    for trial in range(5):
        diag = -rng.uniform(0.5, 2.0, 2)
        F1 = SparseMatrix(np.diag(diag))
        F2d = rng.normal(size=(2, 4)) * 0.05
        F2 = SparseMatrix(F2d)
        u_in = rng.normal(size=2) * 0.2
        ode = make_ode(2, F1, F2, u_in)
        assert compute_K(ode).K < 1.0
        ts = np.linspace(0.0, 2.0, grid_steps(ode, 2.0, 1e-3) + 1)
        norms = np.linalg.norm(integrate(ode.rhs, u_in, ts), axis=1)
        assert norms.max() <= np.linalg.norm(u_in) * (1 + 1e-8), trial


def test_bernoulli_reduces_to_linear():
    assert bernoulli_closed_form(0.0, 0.5, 1.0) == pytest.approx(
        0.5 * math.exp(-1.0), rel=1e-14)


def test_bernoulli_initial_value():
    assert bernoulli_closed_form(0.2, 0.5, 0.0) == pytest.approx(0.5, rel=1e-14)


def test_bernoulli_pole_crossing():
    # a=2, u0=1: denominator 2 - e^t crosses zero at t = ln 2
    with pytest.raises(NumericalError, match="pole"):
        bernoulli_closed_form(2.0, 1.0, 1.0)


def test_import_does_not_load_scipy_integrate():
    # the integrator imports scipy.integrate on first use, so a fresh
    # interpreter that only imports hpmsim does not pay for it
    src = str(Path(hpmsim.__file__).resolve().parents[1])
    code = "import sys, hpmsim; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": src}, check=True).stdout
    assert out.strip() == "False"


def test_subnormal_initial_state_does_not_stall():
    # 1e-16 max|y0| underflows to a zero atol here; in a subprocess, so a
    # stalled step control fails the test instead of hanging the suite
    src = str(Path(hpmsim.__file__).resolve().parents[1])
    code = ("import numpy as np; from hpmsim.ode import integrate; "
            "print(integrate(lambda y: -y, [5e-324], np.linspace(0.0, 1.0, 11)).shape)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": src}, check=True, timeout=60).stdout
    assert out.strip() == "(11, 1)"
