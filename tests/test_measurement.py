import math
import tracemalloc

import numpy as np
import pytest

from hpmsim.embedding import assemble_A, build_index_map
from hpmsim.errors import ValidationError
from hpmsim.marching import assemble_C, solve_marching, step_counts
from hpmsim.measurement import (
    level_group_norms,
    normalized_difference_bound,
    poisson_tail_sum,
    postselect,
    scalar_decay_check,
    taylor_power_error_check,
)
from hpmsim.marching import TaylorSystemParams
from hpmsim.ode import compute_K, make_ode
from hpmsim.pipeline import generate_instance
from hpmsim.sparse import SparseMatrix
from oracles import (
    amplitude_lower_bound,
    component_difference_bound,
    level_groups,
    marched_x,
    normalized_perturbation_bounds,
)


def tiny_params(N, m, k, p, h, c=0, g=1.0):
    return TaylorSystemParams(
        c=c, h=h, m=m, k=k, p=p, d=m * (k + 1) + p, delta=1e-10,
        epsilon1=0.0, Omega=0.0, g=g, eta=1.0, eta_prime=0.0,
        norm_A=0.0, N=N)


def test_postselect_linear_c0_full_level0_mass():
    F1 = SparseMatrix.from_triplets(2, 2, [(0, 0, -1.0), (1, 1, -2.0)])
    F2 = SparseMatrix.from_triplets(2, 4, [])
    ode = make_ode(2, F1, F2, [0.3, 0.4])
    nl = compute_K(ode)
    sys = assemble_A(ode, 0)
    m, h = step_counts(1.0, sys.norm_A)
    params = tiny_params(N=2, m=m, k=6, p=m, h=h, c=0)
    C = assemble_C(sys.A, params)
    sol = solve_marching(C, sys.y_in)
    rep = postselect(sol, level_groups(sys.index), nl, utilde_T_norm=1.0)
    assert rep.chi0_sq == 1.0
    assert rep.chi0_bound == 1.0
    assert rep.p1_bound == pytest.approx(1.0 / (params.p + 77.0 * params.m))
    assert 0 < rep.p1_block_ratio <= 1.0
    assert np.linalg.norm(rep.u_out) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("p", [7, 2 ** 16])
def test_postselect_norms_take_every_chunk_of_x(p):
    # the march yields one step at a time, and the copy tail of p blocks is
    # never formed; the ratios are those of the whole x
    ode = generate_instance(2, 2, 0.3, 7)
    sys = assemble_A(ode, 2)
    m, h = step_counts(1.0, sys.norm_A)
    params = tiny_params(N=sys.index.N, m=m, k=6, p=p, h=h, c=2)
    C = assemble_C(sys.A, params)
    sol = solve_marching(C, sys.y_in)
    rep = postselect(sol, level_groups(sys.index), compute_K(ode), utilde_T_norm=1.0)
    x = marched_x(C, sys.y_in)
    block = x.reshape(params.d + 1, -1)[m * (params.k + 1)]
    want = np.linalg.norm(block) ** 2 / np.linalg.norm(x) ** 2
    assert rep.p1_block_ratio == pytest.approx(want, rel=1e-14)


def _traced_forward_peak(p: int) -> tuple[int, int]:
    """Traced peak bytes of the forward solve and post-selection on the gen4
    instance at c = 4 with p copies, and the bytes of its step starts."""
    ode = generate_instance(4, 2, 0.3, 7)
    sys = assemble_A(ode, 4)
    params = tiny_params(N=sys.index.N, m=16, k=15, p=p, h=1.0 / sys.norm_A, c=4)
    C = assemble_C(sys.A, params)
    nl = compute_K(ode)
    group = level_groups(sys.index)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sol = solve_marching(C, sys.y_in)
        postselect(sol, group, nl, utilde_T_norm=1.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak, sol.starts.nbytes


def test_forward_solve_and_postselect_hold_the_starts_and_a_few_chunks():
    # a step buffer is (k+1) N floats, and x would be 17 of them at p = 16
    # and 41 at p = 400.  The march takes one step at a time, and the
    # allowance of 4 step buffers covers the march's buffer, the probe's
    # buffer, one step's squares and the temporaries of the probe's |A| and
    # of one product with A.  The copy tail is never formed, so the peak
    # does not grow with p: the 384 more copies would add 9.1 MiB, and the
    # peak of two identical calls differs by some hundred bytes
    short, starts_bytes = _traced_forward_peak(16)
    step_bytes = starts_bytes // 17 * 16        # m + 1 = 17 starts, k + 1 = 16 blocks a step
    long, _ = _traced_forward_peak(400)
    assert long <= short + 64 * 1024
    assert short <= starts_bytes + 4 * step_bytes


def test_level_group_component_counts():
    # group i collects compositions of i+1 into >= 2 parts: 2^i - 1 of them
    for c in range(1, 7):
        index = build_index_map(c, 1)
        counts: dict[int, int] = {}
        for lvl in range(1, c + 1):
            for a in index.levels[lvl]:
                degree = sum(a) + len(a)
                counts[degree - 1] = counts.get(degree - 1, 0) + 1
        for i in range(1, c + 1):
            assert counts[i] == 2**i - 1, (c, i)


def test_level_group_norms_crafted():
    index = build_index_map(2, 1)
    y = np.zeros(index.N)
    y[index.block_slice(0, 0)] = 9.0            # level 0 never grouped
    # level 1 components: (0,0), (0,1), (1,0) with degrees 2, 3, 3
    y[index.block_slice(1, 0)] = 1.0
    y[index.block_slice(1, 1)] = 2.0
    y[index.block_slice(1, 2)] = 3.0
    y[index.block_slice(2, 0)] = 4.0            # (0,0,0): degree 3
    groups_sq, bounds = level_group_norms(y, level_groups(index), K=0.5)
    assert groups_sq == pytest.approx([1.0, 4.0 + 9.0 + 16.0])
    assert bounds == pytest.approx([0.5, 0.25])


# -- normalized-vector perturbation bounds ------------------------------

def test_zero_perturbation_zero_bound():
    assert normalized_difference_bound(1.0, 0.0) == 0.0


def test_bounds_spec_values():
    out = normalized_perturbation_bounds(alpha=1.0, beta=0.3, delta=0.5)
    assert out["normalized_difference"] == pytest.approx(0.6)
    assert out["component_difference"] == pytest.approx(2.0)  # delta = alpha/2
    assert out["amplitude_lower"] == pytest.approx(0.5)


def test_bounds_precondition():
    with pytest.raises(ValidationError):
        component_difference_bound(0.5, 0.5)
    with pytest.raises(ValidationError):
        amplitude_lower_bound(0.5, 0.6)


def test_normalized_difference_bound_random_pairs():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        dim = int(rng.integers(1, 6))
        psi = rng.normal(size=dim)
        phi = psi + rng.normal(size=dim) * rng.uniform(0, 0.5)
        alpha = np.linalg.norm(psi)
        if alpha == 0:
            continue
        beta = np.linalg.norm(psi - phi)
        lhs = np.linalg.norm(psi / alpha - phi / np.linalg.norm(phi))
        assert lhs <= normalized_difference_bound(alpha, beta) + 1e-12


def _two_block(amp: float, v0: np.ndarray, v1: np.ndarray) -> np.ndarray:
    return np.concatenate([amp * v0, math.sqrt(1 - amp * amp) * v1])


def test_component_and_amplitude_bounds_random_pairs():
    rng = np.random.default_rng(321)
    checked = 0
    while checked < 1000:
        dim = int(rng.integers(1, 5))
        unit = lambda: (lambda v: v / np.linalg.norm(v))(rng.normal(size=dim) + 1e-12)
        alpha = rng.uniform(0.2, 1.0)
        beta = rng.uniform(0.0, 1.0)
        psi = _two_block(alpha, unit(), unit())
        phi = _two_block(beta, unit(), unit())
        delta = np.linalg.norm(psi - phi)
        if delta >= alpha:
            continue
        psi0 = psi[:dim] / alpha
        phi0 = phi[:dim] / beta if beta > 0 else psi0
        assert np.linalg.norm(psi0 - phi0) <= component_difference_bound(alpha, delta) + 1e-12
        assert beta >= amplitude_lower_bound(alpha, delta) - 1e-12
        checked += 1


# -- scalar and matrix appendix checks ----------------------------------

def test_poisson_tail_at_zero():
    assert poisson_tail_sum(1.0, 1.0, 3, 0.0) == 1.0


def test_scalar_decay_grid():
    grid = np.linspace(0.0, 10.0, 1000)
    res = scalar_decay_check(gamma=1.0, beta=1.0, m=3, t_grid=grid)
    assert res["precondition_ok"] and res["pass"]
    assert res["measured"] <= 3.0


def test_scalar_decay_reports_failed_precondition():
    res = scalar_decay_check(gamma=0.5, beta=1.0, m=2, t_grid=[0.0, 1.0, 5.0])
    assert not res["precondition_ok"]
    assert res["pass"]  # vacuous: nothing asserted when gamma/beta < 1


def test_taylor_power_error_diag_example():
    # M = diag(-0.5), Delta = 1, k = 4, l = 3: bound 2*3*1*2/120 = 0.1
    M = np.array([[-0.5]])
    res = taylor_power_error_check(M, Delta=1.0, k=4, steps=3)
    assert res["precondition_ok"]
    assert res["bound"] == pytest.approx(0.1)
    t4 = sum((-0.5) ** j / math.factorial(j) for j in range(5))
    expected = abs(math.exp(-1.5) - t4 ** 3)
    assert res["measured"] == pytest.approx(expected, rel=1e-9)
    assert res["pass"]


def test_taylor_power_error_contractive_family():
    rng = np.random.default_rng(77)
    for trial in range(10):
        n = int(rng.integers(2, 5))
        q, r = np.linalg.qr(rng.normal(size=(n, n)))
        q = q * np.sign(np.diag(r))
        M = q @ np.diag(-rng.uniform(0.05, 1.0, n)) @ q.T
        res = taylor_power_error_check(M, Delta=1.0, k=5, steps=4)
        assert res["precondition_ok"], trial
        assert res["pass"], trial
