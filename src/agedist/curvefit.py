"""Piecewise plateau-then-decay fit for targets neither process can match.

The family is constant at height A for groups before an integer breakpoint k
and decays as A exp(-B (x - k)^C) from the breakpoint on. With B, C > 0 the
curve is non-increasing, so its normalized evaluations always form a target
the closed-form solver accepts. A, B and C are fitted by damped least
squares for every breakpoint in 1..n, a batch of breakpoints in one
stacked iteration, and the breakpoint whose normalized curve sits closest
to the original in Wasserstein distance wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .distributions import AgeDistribution, as_distribution, wasserstein
from .errors import AgedistError

MAX_INNER_ITERATIONS = 200
STEP_TOLERANCE = 1e-10

#: Log-parameter box. Flat data pushes log(decay_scale) toward -inf (the
#: plateau-only limit); the clamp keeps every parameter positive and finite.
LOG_PARAM_LIMIT = 600.0

#: Entries (breakpoints x n x 3) of the Jacobian stack that one batch of
#: breakpoints holds. A fit takes its breakpoints in batches of this size
#: at most, so its memory grows linearly in n; up to 182 groups it takes
#: them all at once.
JACOBIAN_ENTRIES = 100_000


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


def curve_values(params: CurveParams, n: int) -> np.ndarray:
    """Curve evaluated at x = 1..n."""
    log_params = np.log([[params.plateau, params.decay_scale, params.decay_shape]])
    return _values_and_jacobian(log_params, np.array([params.breakpoint]), n)[0][0]


def _values_and_jacobian(log_params: np.ndarray, breakpoints: np.ndarray, n: int):
    """Model values (m, n) and Jacobians (m, n, 3) with respect to the
    log-parameters, for m rows of log-parameters, each with its breakpoint.
    Every row gets the floats that evaluating it alone would give: each
    entry comes from the same elementwise operations in the same order."""
    a, b, c = (column[:, None] for column in np.exp(log_params).T)
    u = np.arange(1, n + 1, dtype=float) - breakpoints[:, None]
    tail = u >= 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        t = u**c
        f = a * np.exp(-b * t)
        logu = np.where(u > 0, np.log(np.maximum(u, 1.0)), 0.0)
        jac = np.zeros((len(u), n, 3))
        jac[..., 0] = vals = np.where(tail, f, a)  # both branches scale with the plateau
        jac[..., 1] = np.where(
            tail, np.nan_to_num(-b * t * f, nan=0.0, posinf=0.0, neginf=0.0), 0.0)
        jac[..., 2] = np.where(
            tail, np.nan_to_num(-b * c * t * logu * f, nan=0.0, posinf=0.0, neginf=0.0), 0.0)
    return vals, jac


def _solve_rows(systems: np.ndarray, rhs: np.ndarray) -> tuple:
    """Damped normal-equation steps for a stack of 3 x 3 systems, and a
    mask of the rows whose system is singular (their steps are zero).
    ``slogdet`` and ``solve`` factor each system by the same LAPACK getrf,
    and a sign of 0 is its exact-zero pivot, the one case ``solve`` raises
    on; those rows solve the identity against zeros instead. NaN systems
    warn in ``slogdet`` only, so the screen ignores invalid values."""
    with np.errstate(invalid="ignore"):
        singular = np.linalg.slogdet(systems)[0] == 0
    systems = np.where(singular[:, None, None], np.eye(3), systems)
    rhs = np.where(singular[:, None], 0.0, rhs)
    return np.linalg.solve(systems, rhs[..., None])[..., 0], singular


def _sums_of_squares(residuals: np.ndarray) -> np.ndarray:
    """Each row's r . r, by the BLAS dot that ``r @ r`` calls. An overflow
    gives inf, which the caller rejects; it raises no warning."""
    with np.errstate(over="ignore"):
        return (residuals[:, None, :] @ residuals[:, :, None])[:, 0, 0]


def _fit_breakpoints(y: np.ndarray, breakpoints: np.ndarray) -> tuple:
    """Damped Gauss-Newton on (log A, log B, log C) for the given
    breakpoints k (group indices in 1..n) at once.

    Positivity comes free from the log parameterisation. Each breakpoint
    keeps its own damping, accept/reject decision, stop test and budget of
    MAX_INNER_ITERATIONS steps, and leaves the stack once it stops; the
    stacked ``np.matmul`` and ``np.linalg.solve`` make, for every row, the
    BLAS and LAPACK calls a breakpoint-at-a-time loop makes, so each row's
    floats are the same. A step whose sse overflows is rejected like any
    other non-improving step. A singular damped system raises the damping
    tenfold and spends the step. Returns (log_params (m, 3), sse (m,),
    converged (m,)) for the m breakpoints; converged means an accepted or
    proposed step shrank below STEP_TOLERANCE in infinity norm, or the
    damping grew past 1e14, within the budget.
    """
    n = y.size
    m = breakpoints.size
    rows = np.arange(m)
    # Start at the data's peak, decay shape 1 and a scale that halves the
    # curve over the tail.
    theta = np.log(np.column_stack(
        [np.full(m, y.max()), math.log(2.0) / np.maximum(n - breakpoints, 1), np.ones(m)]))
    vals, jac = _values_and_jacobian(theta, breakpoints, n)
    residual = vals - y
    sse = _sums_of_squares(residual)
    lam = np.full(m, 1e-3)
    fitted, fitted_sse = np.empty_like(theta), np.empty_like(sse)
    converged = np.zeros(m, dtype=bool)

    for _ in range(MAX_INNER_ITERATIONS):
        jac_t = jac.transpose(0, 2, 1)
        with np.errstate(over="ignore"):
            gram = jac_t @ jac
            grad = (jac_t @ residual[:, :, None])[:, :, 0]
        damping = np.zeros_like(gram)
        damping[:, [0, 1, 2], [0, 1, 2]] = np.maximum(
            np.diagonal(gram, axis1=1, axis2=2), 1e-12)
        step, spent = _solve_rows(gram + lam[:, None, None] * damping, -grad)
        lam[spent] *= 10.0
        done = ~spent & (np.abs(step).max(axis=1) < STEP_TOLERANCE)
        trial = np.clip(theta + step, -LOG_PARAM_LIMIT, LOG_PARAM_LIMIT)
        trial_vals, trial_jac = _values_and_jacobian(trial, breakpoints, n)
        trial_residual = trial_vals - y
        trial_sse = _sums_of_squares(trial_residual)
        moved = ~spent & ~done
        better = moved & np.isfinite(trial_sse) & (trial_sse < sse)
        worse = moved & ~better
        theta[better], sse[better] = trial[better], trial_sse[better]
        residual[better], jac[better] = trial_residual[better], trial_jac[better]
        lam[better] = np.maximum(lam[better] * 0.1, 1e-12)
        lam[worse] *= 10.0
        # No improving direction left; the step sizes implied by further
        # damping are below the tolerance.
        done |= worse & (lam > 1e14)
        fitted[rows[done]], fitted_sse[rows[done]] = theta[done], sse[done]
        converged[rows[done]] = True
        if done.any():
            live = ~done
            rows, breakpoints, theta, sse, lam = (
                rows[live], breakpoints[live], theta[live], sse[live], lam[live])
            residual, jac = residual[live], jac[live]
            if not rows.size:
                break
    fitted[rows], fitted_sse[rows] = theta, sse
    return fitted, fitted_sse, converged


def _fits(y: np.ndarray):
    """(k, log_params, sse, converged, curve values) for every breakpoint k
    in 1..n, in order, fitted in batches of at most JACOBIAN_ENTRIES
    Jacobian entries. Each row gets the floats that fitting it alone gives,
    whatever its batch."""
    n = y.size
    size = max(1, JACOBIAN_ENTRIES // (3 * n))
    for first in range(1, n + 1, size):
        breakpoints = np.arange(first, min(first + size, n + 1))
        thetas, sses, converged = _fit_breakpoints(y, breakpoints)
        curves = _values_and_jacobian(thetas, breakpoints, n)[0]
        yield from zip(breakpoints.tolist(), thetas, sses.tolist(), converged, curves)


def fit(dist) -> CurveFitResult:
    """Fit the plateau-then-decay family to ``dist``, an AgeDistribution or
    a raw vector of counts, which is fitted as ``distributions.as_distribution``
    makes it (its proportions, labelled g1..gn): the plateau and the
    distances are in proportion units.

    Runs the inner least squares for every breakpoint k in 1..n, in
    batches of at most ``JACOBIAN_ENTRIES`` Jacobian entries (each
    breakpoint gets the floats that fitting it alone gives), normalizes
    each fitted curve into a distribution and keeps the breakpoint with the
    smallest Wasserstein distance to the original (ties go to the smallest
    k). Breakpoints whose inner fit runs out of budget are recorded with
    infinite sse, and those whose curve underflows to an empty group with
    infinite distance; both are skipped. An sse that overflows is handled
    on purpose (the step is rejected) and raises no warning.

    The fit always returns: at k = n the curve is a plateau alone, whose
    decay columns of the Jacobian are zero, so its steps are Gauss-Newton in
    log A, which converge, and it normalizes to the uniform 1/n.

    Raises:
        ValueError, EmptyPopulation, InteriorZeroGroup, TooFewGroups: as
            ``distributions.as_distribution`` raises them for a raw vector.
    """
    dist = as_distribution(dist)
    y, labels = dist.proportions, dist.labels
    table, best = [], None
    for k, theta, sse, ok, vals in _fits(y):
        try:
            # A decay steep enough to underflow leaves an empty group, which
            # the constructor rejects; such a curve cannot feed the
            # closed-form solver.
            fitted = AgeDistribution(labels, vals / vals.sum()) if ok else None
        except AgedistError:
            fitted = None
        distance = float("inf") if fitted is None else wasserstein(fitted, y)
        table.append((k, sse if ok else float("inf"), distance))
        if fitted is not None and (best is None or distance < best[0]):
            a, b, c = np.exp(theta)
            best = (distance, CurveParams(float(a), float(b), float(c), k), fitted, sse)
    distance, params, fitted, sse = best
    return CurveFitResult(params=params, fitted=fitted, wasserstein_to_original=distance,
                          residual_sse=sse, per_k_table=tuple(table))
