"""Independent oracles used across the test suite.

These implement the expected one-step population update directly from the
per-group balance bookkeeping (who leaves, who arrives), not the closed-form
recursions under test. Steady states are found by iterating the update to a
fixed point, so agreement with the library is evidence, not tautology.

The second half keeps the straightforward forms of the steady-state
recursions, of the differential-evolution search (objective, reflection,
generation loop), of the curve fit's breakpoint-at-a-time least squares and
of the simulator step and run. The library's batched kernel, in-place
search, batched curve fit and count-state run must reproduce them bit for
bit.
"""

import math

import numpy as np

from agedist import model2
from agedist.curvefit import (
    LOG_PARAM_LIMIT,
    MAX_INNER_ITERATIONS,
    STEP_TOLERANCE,
    CurveFitResult,
    CurveParams,
)
from agedist.distributions import (
    AgeDistribution,
    default_labels,
    solver_proportions,
    wasserstein,
)
from agedist.errors import AgedistError, CurveFitFailed


def expected_update_plain(props, survival):
    """Expected next distribution of the plain process.

    First group: keeps its own dead (replaced in place), loses survivors,
    gains every other group's dead. Intermediate group i: emptied entirely,
    refilled by survivors of i-1. Last group: keeps survivors, loses dead,
    gains survivors of the previous group.
    """
    n = np.asarray(props, dtype=float)
    p = np.asarray(survival, dtype=float)
    out = np.empty_like(n)
    out[0] = n[0] - p[0] * n[0] + np.sum((1.0 - p[1:]) * n[1:])
    for i in range(1, len(n) - 1):
        out[i] = p[i - 1] * n[i - 1]
    out[-1] = n[-1] - (1.0 - p[-1]) * n[-1] + p[-2] * n[-2]
    return out


def expected_update_activated(props, survival, activation):
    """Expected next distribution of the activation-rate process.

    Inactive agents are untouched; active agents follow the plain rules.
    """
    n = np.asarray(props, dtype=float)
    p = np.asarray(survival, dtype=float)
    a = np.asarray(activation, dtype=float)
    out = np.empty_like(n)
    out[0] = n[0] - a[0] * p[0] * n[0] + np.sum(a[1:] * (1.0 - p[1:]) * n[1:])
    for i in range(1, len(n) - 1):
        out[i] = n[i] - a[i] * n[i] + a[i - 1] * p[i - 1] * n[i - 1]
    out[-1] = (
        n[-1] - a[-1] * (1.0 - p[-1]) * n[-1] + a[-2] * p[-2] * n[-2]
    )
    return out


def stationary_null_vector(survival, activation):
    """Stationary profile of the activation-rate process, solved directly.

    The columns of the one-step expected-update matrix E come from the
    bookkeeping above applied to each unit vector. The profile is the null
    vector of E - I with entries summing to one; the first-group balance
    row is implied by the others (columns of E sum to one), so it is
    replaced by the normalisation row and the square system solved by LU.
    """
    n = len(survival)
    unit = np.eye(n)
    system = np.column_stack(
        [expected_update_activated(unit[j], survival, activation) for j in range(n)]
    ) - unit
    system[0, :] = 1.0
    return np.linalg.solve(system, unit[0])


def fixed_point(update, n_groups, tol=1e-14, max_iter=2_000_000):
    """Iterate the half-lazy map x -> (x + update(x)) / 2 from uniform.

    The averaging keeps the same fixed points but also converges for
    periodic corner cases (all intermediate survivals 1 with last survival
    0 turns the raw update into a pure cycle).
    """
    x = np.full(n_groups, 1.0 / n_groups)
    for _ in range(max_iter):
        nxt = 0.5 * (x + update(x))
        nxt = nxt / nxt.sum()
        if np.abs(nxt - x).sum() < tol:
            return nxt
        x = nxt
    raise AssertionError("oracle iteration did not converge")


def reference_steady_state(survival, activation=None):
    """The scalar forward recursions the two steady states were first
    written with, before they shared one batched kernel: N_1 = 1,
    N_{i+1} = p_i N_i (plain) or (alpha_i p_i / alpha_{i+1}) N_i, the last
    group from its balance, normalized."""
    p = np.asarray(survival, dtype=float)
    n = p.size
    weights = np.empty(n)
    weights[0] = 1.0
    if activation is None:
        for i in range(n - 2):
            weights[i + 1] = p[i] * weights[i]
        weights[n - 1] = p[n - 2] * weights[n - 2] / (1.0 - p[n - 1])
    else:
        a = np.asarray(activation, dtype=float)
        for i in range(n - 2):
            weights[i + 1] = (a[i] * p[i] / a[i + 1]) * weights[i]
        weights[n - 1] = (
            a[n - 2] * p[n - 2] * weights[n - 2] / (a[n - 1] * (1.0 - p[n - 1]))
        )
    return weights / weights.sum()


def reference_mae_objective(target):
    """The allocating batched objective the search was first written with."""
    t = np.asarray(target, dtype=float)
    n = t.size

    def evaluate(candidates):
        x = np.atleast_2d(np.asarray(candidates, dtype=float))
        probs, rates = x[:, :n], x[:, n:]
        weights = np.empty_like(probs)
        weights[:, 0] = 1.0
        if n > 2:
            ratios = rates[:, : n - 2] * probs[:, : n - 2] / rates[:, 1 : n - 1]
            np.cumprod(ratios, axis=1, out=weights[:, 1 : n - 1])
        weights[:, n - 1] = (
            rates[:, n - 2] * probs[:, n - 2] * weights[:, n - 2]
            / (rates[:, n - 1] * (1.0 - probs[:, n - 1]))
        )
        dists = weights / weights.sum(axis=1, keepdims=True)
        return np.abs(dists - t).mean(axis=1)

    return evaluate


def _reference_distinct_rows(rng, m, count):
    own = np.arange(m)
    picks = [rng.integers(0, m, size=m) for _ in range(count)]
    while True:
        bad = np.zeros(m, dtype=bool)
        for i, a in enumerate(picks):
            bad |= a == own
            for b in picks[i + 1:]:
                bad |= a == b
        if not bad.any():
            return picks
        k = int(bad.sum())
        for a in picks:
            a[bad] = rng.integers(0, m, size=k)


def reference_bounce_back(x, lo, hi):
    """Branchy reflection: where/where/clip."""
    x = np.where(x < lo, 2.0 * lo - x, x)
    x = np.where(x > hi, 2.0 * hi - x, x)
    return np.clip(x, lo, hi)


def reference_optimize(target, config, objective=None, history=None):
    """The allocating differential-evolution loop (dithered best/1/bin on
    model2's search constants), kept as the bitwise reference for
    ``optimize``. Returns (probs, rates, mae, iterations)."""
    cfg = config
    t = np.asarray(target, dtype=float)
    n = t.size
    dim = 2 * n
    bounds = model2.default_bounds(n)
    lo, hi = bounds[:, 0].copy(), bounds[:, 1].copy()
    pop_size = cfg.population_size or 15 * dim
    evaluate = objective if objective is not None else reference_mae_objective(t)

    rng = np.random.default_rng(cfg.seed)
    population = rng.uniform(lo, hi, size=(pop_size, dim))
    errors = np.asarray(evaluate(population), dtype=float)
    if history is not None:
        history.append(float(errors.min()))

    iterations = 0
    while errors.min() >= model2.SUCCESS_THRESHOLD and iterations < cfg.max_iterations:
        factor = rng.uniform(*model2.MUTATION_RANGE)
        r1, r2 = _reference_distinct_rows(rng, pop_size, 2)
        base = population[int(errors.argmin())]
        mutants = base + factor * (population[r1] - population[r2])
        mutants = reference_bounce_back(mutants, lo, hi)
        cross = rng.random((pop_size, dim)) < model2.CROSSOVER_RATE
        cross[np.arange(pop_size), rng.integers(0, dim, size=pop_size)] = True
        trials = np.where(cross, mutants, population)
        trial_errors = np.asarray(evaluate(trials), dtype=float)
        improved = trial_errors <= errors
        population[improved] = trials[improved]
        errors[improved] = trial_errors[improved]
        iterations += 1
        if history is not None:
            history.append(float(errors.min()))

    best = int(errors.argmin())
    return population[best, :n], population[best, n:], float(errors[best]), iterations


def reference_step(state, survival, activation, rng):
    """The allocating two-draw per-agent update: one uniform per agent for
    activation (none for the plain process), then one for survival. It is
    the bitwise reference for the plain process, where it takes the same
    single draw as the kernel; for the activation process it draws the same
    law from a different stream. Returns (new state, deaths)."""
    probs = np.asarray(survival, dtype=float)
    n = probs.size
    if activation is not None:
        rates = np.asarray(activation, dtype=float)
        active = rng.random(state.size) < rates[state]
    else:
        active = np.ones(state.size, dtype=bool)
    survive = rng.random(state.size) < probs[state]

    new_state = state.copy()
    advance = active & survive & (state < n - 1)
    died = active & ~survive
    new_state[advance] += 1
    new_state[died] = 0
    return new_state, int(died.sum())


def reference_single_draw_step(state, survival, activation, rng):
    """The allocating form of the single-draw update: one uniform ``u`` per
    agent, advance below alpha * p, die below alpha, stay otherwise (alpha
    is 1 for the plain process). Returns (new state, deaths)."""
    probs = np.asarray(survival, dtype=float)
    n = probs.size
    rates = np.ones(n) if activation is None else np.asarray(activation, dtype=float)
    u = rng.random(state.size)
    advances = u < (rates * probs)[state]
    dies = ~advances & (u < rates[state])
    new_state = np.where(advances, np.minimum(state + 1, n - 1),
                         np.where(dies, 0, state))
    return new_state, int(dies.sum())


def reference_sorted_run(start, survival, activation, config):
    """``simulator.run`` in per-agent form: ``reference_single_draw_step``
    from the per-agent ``start`` state, with the agents sorted by group
    after every step, under ``config``'s seed, step count and burn-in.
    Returns (trajectory, steady estimate, total deaths); the last row of
    the trajectory is the final snapshot."""
    n = len(survival)
    rng = np.random.default_rng(config.seed)
    state = np.sort(start)
    trajectory = np.empty((config.num_steps, n))
    accumulator = np.zeros(n)
    deaths = 0
    for index in range(config.num_steps):
        state, died = reference_single_draw_step(state, survival, activation, rng)
        state = np.sort(state)
        deaths += died
        trajectory[index] = np.bincount(state, minlength=n) / state.size
        if index >= config.burn_in:
            accumulator += trajectory[index]
    return trajectory, accumulator / (config.num_steps - config.burn_in), deaths


def reachable_l1_optimum(target, scale):
    """Smallest mean absolute error from ``target`` to a distribution that
    the model-2 closed form reproduces, by linear programming.

    Every group j of the first n-1 is at least ALPHA_MIN times each later
    group among them and at least (1 - MAX_LAST_SURVIVAL) times the last.
    The variables are the deviations from the target divided by ``scale``
    (about the expected total deviation), so that the binding rows and the
    sum constraint are of order one and the solver's absolute tolerances
    stay far below the answer.
    """
    from scipy.optimize import linprog

    from agedist.distributions import ALPHA_MIN, MAX_LAST_SURVIVAL

    t = np.asarray(target, dtype=float)
    n = t.size
    rows, bounds = [], []

    def at_least(j, i, factor):
        # t_j + s z_j >= factor (t_i + s z_i)
        row = np.zeros(2 * n)
        row[i], row[j] = factor, -1.0
        rows.append(row)
        bounds.append((t[j] - factor * t[i]) / scale)

    for j in range(n - 1):
        for i in range(j + 1, n - 1):
            at_least(j, i, ALPHA_MIN)
        at_least(j, n - 1, 1.0 - MAX_LAST_SURVIVAL)
    for k in range(n):
        # u_k >= |z_k| and t_k + s z_k >= 0.
        for sign in (1.0, -1.0):
            row = np.zeros(2 * n)
            row[k], row[n + k] = sign, -1.0
            rows.append(row)
            bounds.append(0.0)
        row = np.zeros(2 * n)
        row[k] = -1.0
        rows.append(row)
        bounds.append(t[k] / scale)
    result = linprog(
        np.r_[np.zeros(n), np.ones(n)],
        A_ub=np.array(rows), b_ub=bounds,
        A_eq=np.r_[np.ones(n), np.zeros(n)][None], b_eq=[0.0],
        bounds=[(None, None)] * n + [(0.0, None)] * n,
        method="highs",
    )
    assert result.status == 0, result.message
    return result.fun * scale / n


def _reference_curve(log_params, k, n):
    """Plateau-then-decay values at x = 1..n and the Jacobian with respect
    to the log-parameters, for one breakpoint k."""
    a, b, c = np.exp(log_params)
    x = np.arange(1, n + 1, dtype=float)
    vals = np.full(n, a)
    jac = np.zeros((n, 3))
    jac[:, 0] = vals
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


def _reference_breakpoint_fit(y, k):
    """Damped Gauss-Newton on (log A, log B, log C) for one breakpoint.
    Returns (log_params, sse, converged)."""
    n = y.size
    a0 = float(y.max())
    c0 = 1.0
    b0 = math.log(2.0) / max(n - k, 1) ** c0
    theta = np.log([a0, b0, c0])
    vals, jac = _reference_curve(theta, k, n)
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
        trial_vals, trial_jac = _reference_curve(trial, k, n)
        trial_residual = trial_vals - y
        trial_sse = float(trial_residual @ trial_residual)
        if np.isfinite(trial_sse) and trial_sse < sse:
            theta, residual, jac, sse = trial, trial_residual, trial_jac, trial_sse
            lam = max(lam * 0.1, 1e-12)
        else:
            lam *= 10.0
            if lam > 1e14:
                return theta, sse, True
    return theta, sse, False


def reference_fit(dist):
    """The curve fit as first written: one breakpoint's least squares after
    another, then the Wasserstein choice. Returns a ``CurveFitResult``."""
    y = solver_proportions(dist)
    n = y.size
    labels = dist.labels if isinstance(dist, AgeDistribution) else default_labels(n)
    table = []
    best = None
    for k in range(1, n + 1):
        theta, sse, ok = _reference_breakpoint_fit(y, k)
        with np.errstate(over="ignore"):
            abc = np.exp(theta)
        if not ok or not np.all(np.isfinite(abc)) or np.any(abc <= 0):
            table.append((k, float("inf"), float("inf")))
            continue
        vals = _reference_curve(theta, k, n)[0]
        try:
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
            best = (distance, CurveParams(float(a), float(b), float(c), k), fitted, sse)
    if best is None:
        raise CurveFitFailed("inner least squares failed for every breakpoint")
    distance, params, fitted, sse = best
    return CurveFitResult(params=params, fitted=fitted, wasserstein_to_original=distance,
                          residual_sse=sse, per_k_table=tuple(table))
