"""Correctness checks that do not come from hpmsim.

Every checker returns a list of failure messages; an empty list means the
output passed. The oracles use numpy and scipy directly, never hpmsim code.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

UNIT_NORM_TOL = 1e-12


def bernoulli_u(a: float, u0: float, t: float) -> float:
    """Closed form of du/dt = -u + a u^2, u(0) = u0."""
    return 1.0 / (a + (1.0 / u0 - a) * math.exp(t))


def ivp_reference(n: int, f1_triplets, f2_triplets, u_in, T: float) -> np.ndarray:
    """u(T) of du/dt = F1 u + F2 (u kron u) by DOP853 at tight tolerances."""
    F1 = np.zeros((n, n))
    F2 = np.zeros((n, n * n))
    for i, j, v in f1_triplets:
        F1[i, j] += v
    for i, j, v in f2_triplets:
        F2[i, j] += v

    def rhs(_t, u):
        return F1 @ u + F2 @ np.outer(u, u).ravel()

    sol = solve_ivp(rhs, (0.0, T), np.asarray(u_in, dtype=np.float64),
                    method="DOP853", rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:, -1]


def check_level0(level0: float, zeta: float, u_T: float, K: float, c: int,
                 delta: float) -> list[str]:
    """The un-normalized level-0 entry of the final marching block against
    zeta u(T), within the truncation bound K^(c+2)/(1-K) plus the solve
    tolerance delta."""
    err = abs(level0 - zeta * u_T)
    bound = K ** (c + 2) / (1.0 - K) + delta
    if not err <= bound:
        return [f"level-0 entry {level0:.6g} is {err:.3e} from zeta u(T) = "
                f"{zeta * u_T:.6g}, over the bound {bound:.3e}"]
    return []


def check_direction(u_out, u_T, epsilon: float) -> list[str]:
    """||u_out - u(T)/||u(T)|| || <= epsilon."""
    u_T = np.asarray(u_T, dtype=np.float64)
    err = float(np.linalg.norm(np.asarray(u_out) - u_T / np.linalg.norm(u_T)))
    if not err <= epsilon:
        return [f"||u_out - u(T)/||u(T)|| || = {err:.3e} exceeds epsilon = {epsilon:g}"]
    return []


def check_report(report) -> list[str]:
    """Properties every run must have: status pass, ||u_out|| = 1, and
    every bound row whose precondition holds passes."""
    failures = []
    if report.status != "pass":
        failures.append(f"status is {report.status!r}")
    norm = float(np.linalg.norm(report.measurement["u_out"]))
    if not abs(norm - 1.0) <= UNIT_NORM_TOL:
        failures.append(f"||u_out|| = {norm!r}, not 1")
    for row in report.bound_checks:
        if row["precondition_ok"] and not row["pass"]:
            failures.append(f"bound row {row['check']} fails: measured "
                            f"{row['measured']!r} vs bound {row['bound']!r}")
    return failures


def checks_measured(report) -> int:
    """Bound rows that carry a measured value, i.e. were not skipped."""
    return sum(1 for row in report.bound_checks if row["measured"] is not None)
