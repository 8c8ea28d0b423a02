"""Quadratic dissipative ODE model du/dt = F1 u + F2 (u kron u).

Holds the nonlinearity parameter K = 4 ||u_in|| ||F2|| / |Re lambda_1|,
rescaling, and the one integrator: adaptive DOP853 (the 8(5,3)
Dormand-Prince pair of scipy's `solve_ivp`) sampled at the times its caller
reads, which marches both the perturbation cascade, on an equal grid, and
the ground-truth reference, at T alone. `scipy.integrate` is imported on
the first integration, not with the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError, ValidationError
from .sparse import (DENSE_ORACLE_CAP, SparseMatrix, _check_cap, dense_eigs, max_line_nnz,
                     spectral_norm, vector_norm)

SQRT_HALF = math.sqrt(2.0) / 2.0
# most grid steps one integration may sample: more would run for minutes and
# store a state per step
MAX_GRID_STEPS = 1_000_000
# DOP853 tolerances: the relative one, and the absolute one per unit of the
# initial state's largest entry
RTOL = 1e-13
ATOL_PER_UNIT = 1e-16
# the relative tolerance of the second, looser reference pass whose distance
# from the first estimates the reference's own error
RTOL_LOOSE = 1e-11


@dataclass(frozen=True)
class QuadraticODE:
    n: int
    F1: SparseMatrix
    F2: SparseMatrix
    u_in: np.ndarray
    s: int  # max row/col nonzeros over F1 and F2
    # F1's spectrum (see f1_spectrum), taken once by make_ode
    eigs_F1: np.ndarray
    norm_F1: float
    log_norm_F1: float

    def rhs(self, u: np.ndarray) -> np.ndarray:
        return self.F1.matvec(u) + self.F2.matvec(np.outer(u, u).ravel())


def f1_spectrum(F1: SparseMatrix, dense_cap: int = DENSE_ORACLE_CAP
                ) -> tuple[np.ndarray, float, float, float]:
    """F1's eigenvalues (residual-verified), its largest singular value
    sigma_1 = ||F1||, its logarithmic norm mu(F1) = lambda_max((F1 + F1^T)/2)
    and its departure from normality ||F1 F1^T - F1^T F1||_F / sigma_1^2,
    from one dense F1 under the cap.

    The SVD, the symmetric eigensolve and the commutator run on F1 scaled
    by an exact power of two, so entries such as 1e300 cannot overflow
    them; sigma_1 and mu(F1) are exact to rounding of order eps sigma_1.
    """
    _check_cap(*F1.shape, dense_cap)
    d1 = F1.toarray()
    exp = math.frexp(float(np.abs(d1).max(initial=0.0)))[1]
    d1s = np.ldexp(d1, -exp)
    sig = np.linalg.svd(d1s)[1]
    comm = np.linalg.norm(d1s @ d1s.T - d1s.T @ d1s)
    departure = float(comm / max(sig[0] ** 2, np.finfo(float).tiny))
    mu = float(np.linalg.eigvalsh((d1s + d1s.T) / 2.0)[-1])
    return (dense_eigs(d1, dense_cap), math.ldexp(float(sig[0]), exp),
            math.ldexp(mu, exp), departure)


def make_ode(n: int, F1: SparseMatrix, F2: SparseMatrix, u_in,
             assume_valid: bool = False,
             dense_cap: int = DENSE_ORACLE_CAP) -> QuadraticODE:
    """Build and validate a problem instance.

    F1's spectrum is taken once here (`f1_spectrum`, so n^2 must fit under
    the dense cap) and travels with the instance. Normality of F1 and
    dissipativity (all Re lambda < 0) are then verified unless the caller
    passes assume_valid=True.
    """
    u_in = np.asarray(u_in, dtype=np.float64)
    if F1.shape != (n, n):
        raise ValidationError(f"F1 must be {n}x{n}")
    if F2.shape != (n, n * n):
        raise ValidationError(f"F2 must be {n}x{n * n}")
    if u_in.shape != (n,):
        raise ValidationError(f"u_in must have length {n}")
    s = max(*max_line_nnz(F1), *max_line_nnz(F2))
    lam, norm1, mu, departure = f1_spectrum(F1, dense_cap)
    if not assume_valid:
        if departure > 1e-10:
            raise ValidationError("F1 is not normal")
        if lam.size and lam.real.max() >= 0:
            raise ValidationError(
                f"F1 is not dissipative: max Re(lambda) = {lam.real.max():.3e}"
            )
    return QuadraticODE(n=n, F1=F1, F2=F2, u_in=u_in, s=s,
                        eigs_F1=lam, norm_F1=norm1, log_norm_F1=mu)


@dataclass(frozen=True)
class NonlinearityParams:
    K: float
    re_lambda1: float      # max real part of F1's spectrum (negative)
    norm_F2: float
    norm_u_in: float
    flag_K_large: bool     # K >= sqrt(2)/2: post-selection bound unavailable
    flag_K_below_u: bool   # ||u_in|| > K (1 + 1e-9): not in the rescaled regime


def compute_K(ode: QuadraticODE) -> NonlinearityParams:
    """Nonlinearity parameter K and its ingredients; soft flags, hard dissipativity."""
    re1 = float(ode.eigs_F1.real.max())
    if re1 >= 0:
        raise ValidationError(f"not dissipative: max Re(lambda) = {re1:.3e}")
    norm_f2 = spectral_norm(ode.F2) if ode.F2.nnz else 0.0
    norm_u = float(vector_norm(ode.u_in))
    K = 4.0 * norm_u * norm_f2 / abs(re1)
    return NonlinearityParams(
        K=K,
        re_lambda1=re1,
        norm_F2=norm_f2,
        norm_u_in=norm_u,
        flag_K_large=K >= SQRT_HALF,
        # the slack keeps rounding from deciding ||u_in|| = K, which the
        # default rescaling and `generate_instance` both set
        flag_K_below_u=norm_u > K * (1 + 1e-9),
    )


def rescale(ode: QuadraticODE, zeta: float) -> QuadraticODE:
    """Substitute u -> zeta*u: u_in' = zeta u_in, F2' = F2/zeta. K is invariant."""
    if zeta <= 0:
        raise ValidationError("zeta must be positive")
    return replace(ode, F2=ode.F2 * (1.0 / zeta), u_in=ode.u_in * zeta)


def default_dt(ode: QuadraticODE, T: float) -> float:
    candidates = [T / 1000.0 if T > 0 else 1.0]
    if ode.norm_F1 > 0:
        candidates.append(1.0 / (10.0 * ode.norm_F1))
    return min(candidates)


def integrate(rhs, y0: np.ndarray, ts: np.ndarray, diverge: float | None = None,
              rtol: float = RTOL) -> np.ndarray:
    """States of dy/dt = rhs(y) at the ascending sample times ts of [0, ts[-1]],
    stacked, for a state of any shape.

    DOP853 picks its own steps to meet rtol and an atol of ATOL_PER_UNIT
    times max|y0|; the samples come from its dense output. Given a bound
    `diverge`, a state norm above it is a terminal event: it raises
    NumericalError at once.
    """
    ts = np.asarray(ts, dtype=np.float64)
    y0 = np.array(y0, dtype=np.float64)
    top = float(np.abs(y0).max(initial=0.0))
    if ts[-1] == 0.0 or top == 0.0:
        # rhs(0) = 0 for both systems integrated here, so a zero state stays zero
        return np.repeat(y0[None], len(ts), axis=0)
    from scipy.integrate import solve_ivp

    events = None
    if diverge is not None:
        def events(_t, y):
            return vector_norm(y) - diverge
        events.terminal = True

    shape = y0.shape
    sol = solve_ivp(lambda _t, y: rhs(y.reshape(shape)).ravel(), (0.0, ts[-1]), y0.ravel(),
                    method="DOP853", t_eval=ts, events=events, rtol=rtol,
                    # a zero atol (max|y0| below ~5e-308) stalls the step control
                    atol=max(ATOL_PER_UNIT * top, np.finfo(float).smallest_subnormal))
    if sol.status == 1:
        raise NumericalError(f"trajectory diverged at t={sol.t_events[0][0]:.4g}: "
                             "the instance does not look dissipative")
    if sol.status != 0:
        raise NumericalError(f"DOP853 integration failed: {sol.message}")
    return sol.y.T.reshape(len(ts), *shape)


def grid_steps(ode: QuadraticODE, T: float, dt: float | None = None) -> int:
    """ceil(T/dt) equal steps of [0, T], at least one; dt defaults to
    default_dt.  More than MAX_GRID_STEPS are refused before anything is
    allocated."""
    if dt is None:
        dt = default_dt(ode, T)
    if dt <= 0:
        raise ValidationError("dt must be positive")
    steps = max(1, int(math.ceil(T / dt)))
    if steps > MAX_GRID_STEPS:
        raise ValidationError(f"{steps} grid steps exceed the cap of {MAX_GRID_STEPS}: "
                              "T is too long for the step size")
    return steps


def reference_solution(ode: QuadraticODE, T: float) -> tuple[np.ndarray, float]:
    """Ground truth u(T) and its error estimate: the relative distance at T
    from a second pass at RTOL_LOOSE.

    Both passes sample t = T alone, so each builds DOP853's dense output
    only on its last step. DOP853 is explicit, and its step count grows
    with T ||F1||: an instance whose default grid exceeds the cap is
    refused."""
    if T < 0:
        raise ValidationError("T must be nonnegative")
    if T == 0:
        return ode.u_in.copy(), 0.0
    grid_steps(ode, T)                 # the cap on the default grid
    diverge = 1e3 * vector_norm(ode.u_in)
    u_T = integrate(ode.rhs, ode.u_in, [T], diverge)[-1]
    loose = integrate(ode.rhs, ode.u_in, [T], diverge, rtol=RTOL_LOOSE)[-1]
    norm_T = vector_norm(u_T)
    error = vector_norm(u_T - loose) / norm_T if norm_T > 0 else math.inf
    return u_T, float(error)
