"""Piecewise plateau-then-decay fit for targets neither process can match.

The family is constant at height A for groups before an integer breakpoint k
and decays as A exp(-B (x - k)^C) from the breakpoint on. With B, C > 0 the
curve is non-increasing, so its normalized evaluations always form a target
the closed-form solver accepts. A, B and C are fitted by damped least
squares for every breakpoint in 1..n and the breakpoint whose normalized
curve sits closest to the original in Wasserstein distance wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .distributions import (
    AgeDistribution,
    default_labels,
    solver_proportions,
    wasserstein,
)
from .errors import AgedistError, CurveFitFailed

MAX_INNER_ITERATIONS = 200
STEP_TOLERANCE = 1e-10

#: Log-parameter box. Flat data pushes log(decay_scale) toward -inf (the
#: plateau-only limit); the clamp keeps every parameter positive and finite.
LOG_PARAM_LIMIT = 600.0


@dataclass(frozen=True)
class CurveParams:
    """Plateau height, decay scale/shape and the breakpoint group index."""

    plateau: float
    decay_scale: float
    decay_shape: float
    breakpoint: int

    def __post_init__(self):
        if self.plateau <= 0 or self.decay_scale <= 0 or self.decay_shape <= 0:
            raise ValueError("plateau, decay_scale and decay_shape must be positive")
        if self.breakpoint < 1:
            raise ValueError("breakpoint must be a group index >= 1")


@dataclass(frozen=True)
class CurveFitResult:
    params: CurveParams
    fitted: AgeDistribution
    wasserstein_to_original: float
    residual_sse: float
    #: One (k, sse, wasserstein) row per attempted breakpoint; failed inner
    #: fits carry infinities.
    per_k_table: tuple


def eval_curve(params: CurveParams, x: int) -> float:
    """Curve value at group position x (1-based)."""
    if x < params.breakpoint:
        return params.plateau
    return params.plateau * math.exp(
        -params.decay_scale * (x - params.breakpoint) ** params.decay_shape
    )


def curve_values(params: CurveParams, n: int) -> np.ndarray:
    """Curve evaluated at x = 1..n."""
    return _values(
        np.log([params.plateau, params.decay_scale, params.decay_shape]),
        params.breakpoint,
        n,
    )


def _values(log_params: np.ndarray, k: int, n: int) -> np.ndarray:
    return _values_and_jacobian(log_params, k, n)[0]


def _values_and_jacobian(log_params: np.ndarray, k: int, n: int):
    """Model values and the Jacobian with respect to the log-parameters."""
    a, b, c = np.exp(log_params)
    x = np.arange(1, n + 1, dtype=float)
    vals = np.full(n, a)
    jac = np.zeros((n, 3))
    jac[:, 0] = vals  # both branches scale linearly with the plateau
    tail = x >= k
    u = x[tail] - k
    with np.errstate(over="ignore", invalid="ignore"):
        t = u**c
        f = a * np.exp(-b * t)
        vals[tail] = f
        jac[tail, 0] = f
        jac[tail, 1] = np.nan_to_num(-b * t * f, nan=0.0, posinf=0.0, neginf=0.0)
        logu = np.where(u > 0, np.log(np.maximum(u, 1.0)), 0.0)
        jac[tail, 2] = np.nan_to_num(
            -b * c * t * logu * f, nan=0.0, posinf=0.0, neginf=0.0
        )
    return vals, jac


def _fit_single_breakpoint(y: np.ndarray, k: int):
    """Damped Gauss-Newton on (log A, log B, log C) for one breakpoint.

    Positivity comes free from the log parameterisation. Returns
    (log_params, sse, converged); converged means an accepted or proposed
    step shrank below STEP_TOLERANCE in infinity norm within the iteration
    budget.
    """
    n = y.size
    a0 = float(y.max())
    c0 = 1.0
    b0 = math.log(2.0) / max(n - k, 1) ** c0
    theta = np.log([a0, b0, c0])
    vals, jac = _values_and_jacobian(theta, k, n)
    residual = vals - y
    sse = float(residual @ residual)
    lam = 1e-3

    for _ in range(MAX_INNER_ITERATIONS):
        gram = jac.T @ jac
        grad = jac.T @ residual
        damping = np.diag(np.maximum(np.diag(gram), 1e-12))
        try:
            step = np.linalg.solve(gram + lam * damping, -grad)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        if float(np.abs(step).max()) < STEP_TOLERANCE:
            return theta, sse, True
        trial = np.clip(theta + step, -LOG_PARAM_LIMIT, LOG_PARAM_LIMIT)
        trial_vals, trial_jac = _values_and_jacobian(trial, k, n)
        trial_residual = trial_vals - y
        trial_sse = float(trial_residual @ trial_residual)
        if np.isfinite(trial_sse) and trial_sse < sse:
            theta, residual, jac, sse = trial, trial_residual, trial_jac, trial_sse
            lam = max(lam * 0.1, 1e-12)
        else:
            lam *= 10.0
            if lam > 1e14:
                # No improving direction left; the step sizes implied by
                # further damping are below the tolerance.
                return theta, sse, True
    return theta, sse, False


def fit(dist) -> CurveFitResult:
    """Fit the plateau-then-decay family to ``dist``, an AgeDistribution or
    a raw proportion vector (whose fit gets the labels g1..gn).

    Runs the inner least squares for every breakpoint k in 1..n, normalizes
    each fitted curve into a distribution and keeps the breakpoint with the
    smallest Wasserstein distance to the original (ties go to the smallest
    k). Breakpoints whose inner fit fails are recorded with infinite sse and
    skipped.

    Raises:
        InteriorZeroGroup: a raw vector has an empty group before a
            non-empty one.
        CurveFitFailed: no breakpoint produced a usable fit.
    """
    y = solver_proportions(dist)
    n = y.size
    labels = dist.labels if isinstance(dist, AgeDistribution) else default_labels(n)
    table = []
    best = None

    for k in range(1, n + 1):
        theta, sse, ok = _fit_single_breakpoint(y, k)
        with np.errstate(over="ignore"):
            abc = np.exp(theta)
        if not ok or not np.all(np.isfinite(abc)) or np.any(abc <= 0):
            table.append((k, float("inf"), float("inf")))
            continue
        vals = _values(theta, k, n)
        try:
            # A decay steep enough to underflow leaves zero groups (trimmed
            # or rejected by the constructor); such a curve cannot feed the
            # closed-form solver, so treat the fit as failed.
            fitted = AgeDistribution(labels, vals / vals.sum())
        except AgedistError:
            table.append((k, sse, float("inf")))
            continue
        if len(fitted) != n:
            table.append((k, sse, float("inf")))
            continue
        distance = wasserstein(fitted, dist)
        table.append((k, sse, distance))
        if best is None or distance < best[0]:
            a, b, c = np.exp(theta)
            best = (
                distance,
                CurveParams(float(a), float(b), float(c), k),
                fitted,
                sse,
            )

    if best is None:
        raise CurveFitFailed("inner least squares failed for every breakpoint")
    distance, params, fitted, sse = best
    return CurveFitResult(
        params=params,
        fitted=fitted,
        wasserstein_to_original=distance,
        residual_sse=sse,
        per_k_table=tuple(table),
    )
