"""Perturbation cascade: the lower-triangular family of forced linear ODEs

    d nu_0/dt = F1 nu_0,                         nu_0(0) = u_in
    d nu_i/dt = F1 nu_i + F2 sum_j nu_j kron nu_{i-1-j},   nu_i(0) = 0

whose truncated sum approximates the quadratic ODE solution, plus the
geometric truncation bound K^(c+2)/(1-K) and the least order that meets it.

All orders are stacked as one state X of shape (c+1, n) and marched by the
shared DOP853 integrator `ode.integrate`, with no event, sampled on an
equal grid of at least 1,000 steps; the per-order norms on that grid are
taken once, for the divergence guard and every later reader. The
right-hand side is two batched sparse products: every outer product
nu_j nu_l^T comes from one broadcast, and a fixed 0/1 Cauchy selection
matrix S of shape (c+1, (c+1)^2), with S[i, j(c+1)+l] = 1 when
j + l = i - 1, folds them into each order's forcing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .ode import QuadraticODE, grid_steps, integrate
from .sparse import vector_norm

# tolerance multiplier on the per-order norm bound before declaring divergence
_DIVERGENCE_SLACK = 1.1


@dataclass
class HpmCascade:
    c: int
    ts: np.ndarray
    nu: np.ndarray          # shape (c+1, len(ts), n)
    order_norms: np.ndarray  # shape (c+1, len(ts)): ||nu_i(t)||


def solve_cascade(ode: QuadraticODE, c: int, T: float, dt: float | None = None,
                  K: float | None = None) -> HpmCascade:
    """Integrate all orders 0..c simultaneously, sampled on one equal grid.

    Order i's forcing is F2 times row i of S @ outer, where outer stacks every
    nu_j kron nu_l and S is the selection matrix above; the F2 product is
    skipped when F2 = 0.
    When K (with ||u_in|| <= K assumed rescaled away from equality issues)
    certifies geometric decay, any order overshooting its decay bound by
    more than 10% at a grid point fails the run, naming the first such
    point: that signals K >= 1 or an integration failure. The cascade is
    linear and lower triangular, so it cannot blow up in finite time and
    the guard can run after the integration.
    """
    if c < 0:
        raise ValidationError("truncation order must be nonnegative")
    if T < 0:
        raise ValidationError("T must be nonnegative")
    n, m = ode.n, c + 1
    norm_u = float(vector_norm(ode.u_in))
    ts = np.linspace(0.0, T, (grid_steps(ode, T, dt) if T > 0 else 0) + 1)
    F1, F2 = ode.F1, ode.F2
    pair_sum = np.add.outer(np.arange(m), np.arange(m)).ravel()   # j + l at column j*m + l
    S = (pair_sum == np.arange(m)[:, None] - 1).astype(np.float64)

    def rhs(X: np.ndarray) -> np.ndarray:
        out = (F1 @ X.T).T
        if F2.nnz:
            outer = (X[:, None, :, None] * X[None, :, None, :]).reshape(m * m, n * n)
            out += (F2 @ (S @ outer).T).T
        return out

    X0 = np.zeros((m, n))
    X0[0] = ode.u_in
    nu = np.ascontiguousarray(np.moveaxis(integrate(rhs, X0, ts), 0, 1))
    norms = vector_norm(nu, axis=2)
    # per-order divergence guards: ||nu_0|| <= ||u_in||, ||nu_i|| <= K^i ||u_in||
    if K is not None and K > 0:
        guards = norm_u * np.power(K, np.arange(m)) * _DIVERGENCE_SLACK
        over = norms > guards[:, None]
        if over.any():
            step = int(np.argmax(over.any(axis=0)))
            bad = int(np.argmax(over[:, step]))
            raise NumericalError(
                f"order {bad} overshot its decay bound at t={ts[step]:.4g} "
                f"({norms[bad, step]:.3e} > {guards[bad]:.3e}): "
                "K >= 1 or integration failure"
            )
    return HpmCascade(c=c, ts=ts, nu=nu, order_norms=norms)


def truncation_bound(K: float, c: int) -> float:
    """Geometric tail sum_{i=c+1}^inf K^{i+1} = K^{c+2} / (1 - K)."""
    if K < 0:
        raise ValidationError("K must be nonnegative")
    if K >= 1.0:
        raise ValidationError(f"truncation bound diverges for K={K} >= 1")
    if K == 0.0:
        return 0.0
    if c < 0:
        raise ValidationError("order must be nonnegative")
    return K ** (c + 2) / (1.0 - K)


def min_order_for_bound(K: float, eps: float, c_max: int = 10_000) -> int:
    """Smallest c with truncation_bound(K, c) <= eps, by direct scan."""
    if eps <= 0:
        raise ValidationError("eps must be positive")
    if K == 0.0:
        return 0
    for c in range(c_max + 1):
        if truncation_bound(K, c) <= eps:
            return c
    raise ValidationError(f"no order up to {c_max} meets eps={eps} at K={K}")
