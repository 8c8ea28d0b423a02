import functools
import math

import numpy as np
import pytest
import scipy.integrate
from scipy.integrate import solve_ivp

import hpmsim.cascade
import hpmsim.ode
from hpmsim.cascade import min_order_for_bound, solve_cascade, truncation_bound
from hpmsim.errors import NumericalError, ValidationError
from hpmsim.ode import make_ode
from hpmsim.pipeline import generate_instance
from hpmsim.sparse import SparseMatrix, vector_norm
from oracles import (
    bernoulli_closed_form,
    catalan,
    grid_index,
    order_norms,
    truncated_solution,
)

K_STD1 = 0.4


def std1():
    F1 = SparseMatrix.from_triplets(1, 1, [(0, 0, -1.0)])
    F2 = SparseMatrix.from_triplets(1, 1, [(0, 0, 0.2)])
    return make_ode(1, F1, F2, [0.5])


def nu1_closed_form(a: float, u0: float, t: float) -> float:
    # integrating-factor quadrature of d nu_1/dt = -nu_1 + a nu_0^2
    return a * u0 * u0 * math.exp(-t) * (1.0 - math.exp(-t))


def reference_cascade(ode, c: int, T: float, dt: float) -> np.ndarray:
    """nu of shape (c+1, steps+1, n): one np.kron per pair, integrated by its
    own DOP853 call at rtol 1e-13, atol 1e-16 max|u_in|, on the same grid."""
    n = ode.n
    steps = max(1, math.ceil(T / dt)) if T > 0 else 0

    def rhs(_t, flat):
        state = flat.reshape(c + 1, n)
        out = np.empty_like(state)
        for i in range(c + 1):
            acc = ode.F1.matvec(state[i])
            if i >= 1 and ode.F2.nnz:
                force = np.zeros(n * n)
                for j in range(i):
                    force += np.kron(state[j], state[i - 1 - j])
                acc += ode.F2.matvec(force)
            out[i] = acc
        return out.ravel()

    state = np.zeros((c + 1, n))
    state[0] = ode.u_in
    if steps == 0:
        return state[:, None, :]
    sol = solve_ivp(rhs, (0.0, T), state.ravel(), method="DOP853",
                    t_eval=np.linspace(0.0, T, steps + 1), rtol=1e-13,
                    atol=1e-16 * np.abs(ode.u_in).max())
    assert sol.success
    return np.moveaxis(sol.y.T.reshape(steps + 1, c + 1, n), 0, 1)


def coupled3():
    # F2 repeats the (0, 1) coupling and holds pairs without their mirror
    F1 = SparseMatrix.from_triplets(3, 3, [(0, 0, -1.0), (1, 1, -1.5), (2, 2, -2.0)])
    F2 = SparseMatrix.from_triplets(3, 9, [
        (0, 1, 0.1), (0, 1, 0.05), (0, 8, -0.03),
        (1, 3, -0.2), (1, 2, 0.04), (2, 5, 0.07), (2, 0, 0.11),
    ])
    return make_ode(3, F1, F2, [0.3, -0.2, 0.25])


def decoupled2():
    F1 = SparseMatrix.from_triplets(2, 2, [(0, 0, -1.0), (1, 1, -2.0)])
    return make_ode(2, F1, SparseMatrix.from_triplets(2, 4, []), [0.3, 0.4])


CASCADE_CASES = [
    *[(f"gen{n}", lambda n=n: generate_instance(n, min(2, n * n), 0.3, 7), 1.0)
      for n in (1, 2, 3, 4, 8)],
    ("coupled3", coupled3, 1.0),
    ("F2_zero", decoupled2, 1.0),
    ("T_zero", coupled3, 0.0),
]


@pytest.mark.parametrize("c", range(6))
@pytest.mark.parametrize("name,make,T", CASCADE_CASES, ids=[case[0] for case in CASCADE_CASES])
def test_solve_cascade_matches_per_pair_reference(name, make, T, c):
    ode = make()
    casc = solve_cascade(ode, c, T, dt=2e-2)
    ref = reference_cascade(ode, c, T, 2e-2)
    assert casc.nu.shape == ref.shape
    assert casc.ts.shape == (ref.shape[1],)
    for i in range(c + 1):
        scale = np.abs(ref[i]).max()
        assert np.abs(casc.nu[i] - ref[i]).max() <= 1e-12 * scale, (name, c, i)


def test_linear_system_decouples():
    F1 = SparseMatrix.from_triplets(2, 2, [(0, 0, -1.0), (1, 1, -2.0)])
    F2 = SparseMatrix.from_triplets(2, 4, [])
    ode = make_ode(2, F1, F2, [0.3, 0.4])
    casc = solve_cascade(ode, 3, 1.0, dt=1e-3)
    expected = np.array([0.3 * math.exp(-1.0), 0.4 * math.exp(-2.0)])
    assert casc.nu[0, -1] == pytest.approx(expected, abs=1e-10)
    assert np.abs(casc.nu[1:]).max() == 0.0


def test_std1_order0():
    casc = solve_cascade(std1(), 2, 1.0)
    assert casc.nu[0, -1, 0] == pytest.approx(0.18393972058572117, abs=1e-10)


def test_std1_order1_closed_form():
    casc = solve_cascade(std1(), 2, 1.0)
    expected = nu1_closed_form(0.2, 0.5, 1.0)
    assert expected == pytest.approx(0.011627207896741482, abs=1e-15)
    assert casc.nu[1, -1, 0] == pytest.approx(expected, abs=1e-10)


def test_truncated_c0_is_order0():
    casc = solve_cascade(std1(), 0, 1.0)
    assert truncated_solution(casc, 1.0)[0] == pytest.approx(
        casc.nu[0, -1, 0], abs=1e-15)


def test_truncated_c1_vs_bernoulli():
    casc = solve_cascade(std1(), 1, 1.0)
    utilde = truncated_solution(casc, 1.0)[0]
    expected = 0.18393972058572117 + 0.011627207896741482
    assert utilde == pytest.approx(expected, abs=1e-9)
    exact = bernoulli_closed_form(0.2, 0.5, 1.0)
    err = abs(exact - utilde)
    assert err == pytest.approx(7.8457e-4, rel=1e-3)
    assert err <= truncation_bound(K_STD1, 1)


def test_truncated_c4_below_bound():
    casc = solve_cascade(std1(), 4, 1.0)
    exact = bernoulli_closed_form(0.2, 0.5, 1.0)
    err = abs(exact - truncated_solution(casc, 1.0)[0])
    bound = truncation_bound(K_STD1, 4)
    assert bound == pytest.approx(6.826666666666667e-3, rel=1e-12)
    assert err < bound
    assert err == pytest.approx(1.9817e-7, rel=1e-2)


def test_truncated_outside_range():
    casc = solve_cascade(std1(), 1, 1.0)
    with pytest.raises(ValidationError):
        truncated_solution(casc, 1.5)


def test_truncated_interpolates_off_grid():
    casc = solve_cascade(std1(), 1, 1.0, dt=1e-2)
    t = 0.5 + 0.37 * 1e-2
    with pytest.warns(UserWarning, match="interpolation"):
        val = truncated_solution(casc, t)[0]
    dense = solve_cascade(std1(), 1, 1.0, dt=1e-5)
    idx = grid_index(dense, round(t, 5))
    ref = dense.nu[:, idx, 0].sum()
    assert val == pytest.approx(ref, abs=1e-6)


def test_initial_conditions():
    casc = solve_cascade(std1(), 3, 1.0)
    assert casc.nu[0, 0, 0] == 0.5
    assert np.abs(casc.nu[1:, 0, :]).max() == 0.0


def test_per_order_norm_bound():
    # ||nu_i(t)|| <= alpha_i (K/4)^i ||u_in|| everywhere on the grid
    ode = std1()
    casc = solve_cascade(ode, 5, 2.0)
    alpha = catalan(5)
    k1 = K_STD1 / 4.0
    maxima = order_norms(casc)
    for i in range(6):
        assert maxima[i] <= alpha[i] * k1**i * 0.5 * (1 + 1e-9), i


def test_order_norm_bound_rescaled_K_power():
    # after rescaling ||u_in|| = K the paper-style bound ||nu_i|| < K^(i+1) holds
    F1 = SparseMatrix.from_triplets(1, 1, [(0, 0, -1.0)])
    F2 = SparseMatrix.from_triplets(1, 1, [(0, 0, 0.25)])
    ode = make_ode(1, F1, F2, [0.4])
    casc = solve_cascade(ode, 5, 2.0, K=K_STD1)
    maxima = order_norms(casc)
    for i in range(6):
        assert maxima[i] < K_STD1 ** (i + 1) * (1 + 1e-9), i


def test_error_monotone_in_order():
    exact = bernoulli_closed_form(0.2, 0.5, 1.0)
    errs = []
    for c in range(5):
        casc = solve_cascade(std1(), c, 1.0)
        errs.append(abs(exact - truncated_solution(casc, 1.0)[0]))
    for lo, hi in zip(errs[1:], errs[:-1]):
        assert lo <= hi + 1e-9


def test_stiff_instance_integrates_within_order_bounds():
    # lambda = -3000 on a grid of dt = 1e-2 made fixed-step RK4 blow up;
    # the adaptive integrator picks stable steps, and every order stays
    # within its per-order decay guard
    F1 = SparseMatrix.from_triplets(1, 1, [(0, 0, -3000.0)])
    F2 = SparseMatrix.from_triplets(1, 1, [(0, 0, 0.1)])
    ode = make_ode(1, F1, F2, [0.5])
    K = 4.0 * 0.5 * 0.1 / 3000.0
    casc = solve_cascade(ode, 2, 1.0, dt=1e-2, K=K)
    assert casc.nu.shape == (3, 101, 1)
    assert casc.nu[0, 1, 0] == pytest.approx(0.5 * math.exp(-30.0), rel=1e-9)
    assert (order_norms(casc) <= 0.5 * K ** np.arange(3)).all()


def test_divergence_guard_names_first_overshooting_order():
    # order 0 decays within its bound, but orders 1 and 2 exceed theirs
    # from the first grid point on, for a K far below the instance's own
    with pytest.raises(NumericalError, match=r"order 1 overshot its decay bound at t=0\.001 "):
        solve_cascade(std1(), 2, 1.0, K=1e-6)


def test_divergence_guard_trips_at_tiny_state_size(monkeypatch):
    # std1 with F2 = 1e-300 rescaled onto ||u_in|| = K = 2e-300: squaring the
    # order norms unscaled gives 0 <= 0 and the guard never trips
    ode = make_ode(1, SparseMatrix.from_triplets(1, 1, [(0, 0, -1.0)]),
                   SparseMatrix.from_triplets(1, 1, [(0, 0, 0.25)]), [2e-300])
    integrate = hpmsim.cascade.integrate

    def order0_doubled(*args, **kwargs):
        states = integrate(*args, **kwargs)
        states[:, 0] *= 2.0
        return states

    monkeypatch.setattr(hpmsim.cascade, "integrate", order0_doubled)
    with pytest.raises(NumericalError, match="order 0 overshot its decay bound at t=0 "):
        solve_cascade(ode, 1, 1.0, K=2e-300)


@pytest.mark.parametrize("make", [std1, lambda: generate_instance(3, 2, 0.3, 7)],
                         ids=["std1", "gen3"])
def test_cascade_integrates_with_no_event(monkeypatch, make):
    # the decay guard reads the sampled norms after the integration, so an
    # event could never fire: none is registered, and nu is bit for bit that
    # of an integration under an event with an infinite bound
    events = []

    def recording(*args, **kwargs):
        events.append(kwargs["events"])
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "solve_ivp", recording)
    casc = solve_cascade(make(), 3, 1.0)
    assert events == [None]
    monkeypatch.setattr(hpmsim.cascade, "integrate",
                        functools.partial(hpmsim.ode.integrate, diverge=math.inf))
    inert = solve_cascade(make(), 3, 1.0)
    assert len(events) == 2 and events[1] is not None
    assert np.array_equal(casc.nu, inert.nu)


def test_order_norms_are_the_norms_of_nu():
    for ode in (std1(), generate_instance(3, 2, 0.3, 7)):
        casc = solve_cascade(ode, 4, 1.0, K=0.3 if ode.n == 3 else None)
        assert casc.order_norms.shape == casc.nu.shape[:2]
        assert np.array_equal(casc.order_norms, vector_norm(casc.nu, axis=2))


def test_catalan_first_values():
    assert catalan(3) == [1, 1, 2, 5]


def test_catalan_closed_form():
    alpha = catalan(20)
    for i in range(21):
        assert alpha[i] == math.comb(2 * i, i) // (i + 1)


def test_catalan_power_bound():
    alpha = catalan(30)
    assert alpha[1] == 1 < 4
    for i in range(1, 31):
        assert alpha[i] < 4**i


def test_truncation_bound_values():
    assert truncation_bound(0.4, 1) == pytest.approx(0.4**3 / 0.6, rel=1e-15)
    assert truncation_bound(0.0, 3) == 0.0
    with pytest.raises(ValidationError):
        truncation_bound(1.0, 2)


def test_min_order_scan():
    # K=0.4, eps=1e-3: bound at c=6 is 1.092e-3 > eps, at c=7 it is 4.369e-4
    assert truncation_bound(0.4, 6) > 1e-3 > truncation_bound(0.4, 7)
    assert min_order_for_bound(0.4, 1e-3) == 7
    assert min_order_for_bound(0.0, 1e-6) == 0
