"""Post-selection analysis of the marching solution.

The two-stage measurement becomes exact norm ratios: keep the final-step
copy blocks (probability per block ||x_{m,0}||^2/||x||^2), then keep the
level-0 block of the embedded state (probability chi_0^2).  Also houses
the appendix checks that `hpmsim bounds` adds to a run's rows: the
normalized-difference bound, the scalar decay sum and the Taylor-power
error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .marching import MarchingSolution
from .ode import NonlinearityParams
from .sparse import DENSE_ORACLE_CAP, dense_expm, spectral_norm, sum_sq, vector_norm


@dataclass
class MeasurementReport:
    p1_block_ratio: float        # ||x_{m,0}||^2 / ||x||^2
    p1_measured: float           # (p+1) * block ratio: any copy block accepts
    p1_bound: float              # 1 / (p + 77 m g^2)
    chi0_sq: float               # ||y_0(T)||^2 / ||y(T)||^2
    chi0_bound: float            # (1-2K^2) / (1-2K^2 + 2 eta'^2)
    u_out: np.ndarray            # normalized level-0 block
    eta_prime: float
    level_group_norms_sq: list[float] = field(default_factory=list)
    level_group_bounds: list[float] = field(default_factory=list)


def postselect(sol: MarchingSolution, group: np.ndarray,
               nl: NonlinearityParams, utilde_T_norm: float) -> MeasurementReport:
    """Exact acceptance probabilities and the normalized output state.

    sol may be in any orthonormal basis whose coordinates each lie in one
    level group, which group labels (see `level_group_norms`).  utilde_T_norm
    is ||sum_i nu_i(T)|| from the cascade; it sets eta' = K / ||u~(T)|| in
    the level-0 probability bound.  The report holds bounds, not verdicts:
    their hypotheses are judged where their rows are built, in `pipeline`.
    """
    params = sol.params
    # the squares are taken on the solution as solved, where max|y_in| lies
    # in [1/2, 1): clear of underflow, and its power-of-two scale cancels
    # exactly in the ratios and in u_out
    x_norm_sq = sol.norm_sq
    block_sq = sum_sq(sol.starts[params.m])
    if x_norm_sq == 0.0:
        raise ValidationError("marching solution is identically zero")
    p1_block = block_sq / x_norm_sq
    g = params.g_est
    p1_bound = 1.0 / (params.p + 77.0 * params.m * g * g)

    y_norm_sq = sum_sq(sol.final)
    level0 = sol.final[group < 0]
    level0_sq = sum_sq(level0)
    if level0_sq == 0.0:
        raise ValidationError("level-0 block of the final state is zero")
    chi0_sq = level0_sq / y_norm_sq

    K = nl.K
    if K > 0:
        if utilde_T_norm <= 0:
            raise ValidationError("||u~(T)|| must be positive")
        eta_prime = K / utilde_T_norm
        one_m = 1.0 - 2.0 * K * K
        chi0_bound = one_m / (one_m + 2.0 * eta_prime ** 2) if one_m > 0 else 0.0
    else:
        eta_prime = 0.0
        chi0_bound = 1.0

    groups_sq, group_bounds = level_group_norms(sol.extract_final(), group, K)

    return MeasurementReport(
        p1_block_ratio=p1_block,
        p1_measured=(params.p + 1) * p1_block,
        p1_bound=p1_bound,
        chi0_sq=chi0_sq,
        chi0_bound=chi0_bound,
        u_out=level0 / math.sqrt(level0_sq),
        eta_prime=eta_prime,
        level_group_norms_sq=groups_sq,
        level_group_bounds=group_bounds,
    )


def level_group_norms(y: np.ndarray, group: np.ndarray,
                      K: float) -> tuple[list[float], list[float]]:
    """Regroup pure-tensor blocks by total order sum(a_k + 1) = i + 1.

    Group i collects every component whose factors' orders sum to i+1 with
    at least two factors; its squared norm stays below (2 K^2)^i.  group[j]
    is coordinate j's group, i + sum(a) in component a of level i >= 1, and
    -1 on level 0, which no group holds (`embedding.OrbitBasis.group`).
    """
    keep = group >= 0
    groups_sq = np.bincount(group[keep], weights=y[keep] * y[keep])[1:].tolist()
    return groups_sq, [(2.0 * K * K) ** i if K > 0 else 0.0
                       for i in range(1, len(groups_sq) + 1)]


@dataclass
class ErrorBudget:
    final_error: float           # || u_out - u(T)/||u(T)|| ||
    hpm_part: float              # || u~(T)/||u~|| - u(T)/||u|| ||
    solve_part: float            # || u_out - u~(T)/||u~|| ||
    hpm_part_bound: float        # 2 eta' eps1 / K = eps/2 when certified


def final_error(report: MeasurementReport, u_exact: np.ndarray,
                utilde_T: np.ndarray, epsilon1: float, K: float) -> ErrorBudget:
    """Measured normalized error, split into truncation and solve parts."""
    nrm = float(vector_norm(u_exact))
    if nrm == 0.0:
        raise ValidationError("exact solution has zero norm")
    u_hat = u_exact / nrm
    ut_nrm = vector_norm(utilde_T)
    ut_hat = utilde_T / ut_nrm if ut_nrm > 0 else u_hat
    err = float(vector_norm(report.u_out - u_hat))
    hpm = float(vector_norm(ut_hat - u_hat))
    solve = float(vector_norm(report.u_out - ut_hat))
    # normalized-difference bound with alpha = ||u(T)|| = K/eta', beta = eps1
    hpm_bound = 2.0 * report.eta_prime * epsilon1 / K if K > 0 else 0.0
    return ErrorBudget(final_error=err, hpm_part=hpm, solve_part=solve,
                       hpm_part_bound=hpm_bound)


# -- appendix checks ---------------------------------------------------

def normalized_difference_bound(alpha: float, beta: float) -> float:
    """||psi/||psi|| - phi/||phi|||| <= 2 beta/alpha when ||psi|| >= alpha,
    ||psi - phi|| <= beta."""
    if alpha <= 0:
        raise ValidationError("alpha must be positive")
    return 2.0 * beta / alpha


def poisson_tail_sum(beta: float, gamma: float, m: int, t: float) -> float:
    """sum_{j=0}^{m-1} (beta t)^j / j! * e^(-gamma t)."""
    if m < 1:
        raise ValidationError("m must be a positive integer")
    terms = sum((beta * t) ** j / math.factorial(j) for j in range(m))
    return terms * math.exp(-gamma * t)


def scalar_decay_check(gamma: float, beta: float, m: int, t_grid) -> dict:
    """max over the grid of the weighted exponential sum, asserted <= m
    whenever gamma/beta >= 1."""
    if gamma <= 0 or beta <= 0:
        raise ValidationError("gamma and beta must be positive")
    values = [poisson_tail_sum(beta, gamma, m, float(t)) for t in np.asarray(t_grid)]
    measured = float(max(values))
    ok = gamma / beta >= 1.0
    return {
        "precondition_ok": ok,
        "measured": measured,
        "bound": float(m),
        "pass": (not ok) or measured <= m * (1 + 1e-12),
    }


def taylor_power_error_check(M: np.ndarray, Delta: float, k: int, steps: int,
                             dense_cap: int = DENSE_ORACLE_CAP) -> dict:
    """||e^(M l) - T_k(M)^l|| against 2 l Delta (Delta+1)/(k+1)! for l = steps.

    Preconditions: ||M|| <= 1, ||e^(M t)|| <= Delta, and
    2 steps Delta (Delta+1)/(k+1)! <= 1.
    """
    M = np.asarray(M, dtype=np.float64)
    norm_M = spectral_norm(M, cap=dense_cap)
    fact = math.factorial(k + 1)
    pre = norm_M <= 1.0 + 1e-9 and 2.0 * steps * Delta * (Delta + 1.0) / fact <= 1.0
    E = dense_expm(M, dense_cap)
    Tk = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for j in range(1, k + 1):
        term = term @ M / j
        Tk = Tk + term
    expl = np.linalg.matrix_power(E, steps)
    tkl = np.linalg.matrix_power(Tk, steps)
    measured = spectral_norm(expl - tkl, cap=dense_cap)
    bound = 2.0 * steps * Delta * (Delta + 1.0) / fact
    return {
        "precondition_ok": bool(pre),
        "measured": float(measured),
        "bound": float(bound),
        "pass": (not pre) or measured <= bound * (1 + 1e-9),
    }
