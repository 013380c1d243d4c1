"""Independent oracles used across the test suite.

These implement the expected one-step population update directly from the
per-group balance bookkeeping (who leaves, who arrives), not the closed-form
recursions under test. Steady states are found by iterating the update to a
fixed point, so agreement with the library is evidence, not tautology. The
exact law of a few agents' counts one step on is enumerated fate by fate,
and the count chain's transition matrix is built from it row by row.

The second half keeps the straightforward forms of the steady-state
recursions, of the differential-evolution search (objective, reflection,
generation loop), of the nearest-reachable payment's counts, of the curve
fit's breakpoint-at-a-time least squares, of the simulator step and run and
of the cascade's two stations. The library's batched kernel, in-place
search, batched curve fit, count-state run and one station must reproduce
them bit for bit.
"""

import itertools
import math

import numpy as np

from agedist import model1, model2
from agedist.curvefit import (
    LOG_PARAM_LIMIT,
    MAX_INNER_ITERATIONS,
    STEP_TOLERANCE,
    CurveFitResult,
    CurveParams,
)
from agedist.distributions import (
    ALPHA_MIN,
    AgeDistribution,
    Classification,
    ModelKind,
    ModelParams,
    as_distribution,
    classify,
    mean_absolute_error,
    wasserstein,
)
from agedist.errors import (
    ActivationTooSmall,
    AgedistError,
    CurveFitFailed,
    DegenerateLastGroup,
)


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


def stationarity_system(survival, activation):
    """The dense stationarity system E - I of the activation-rate process.

    The columns of the one-step expected-update matrix E come from the
    bookkeeping above applied to each unit vector. Its product with a
    profile is the residual that ``distributions.stationarity_residual``
    computes in O(n).
    """
    unit = np.eye(len(survival))
    return np.column_stack(
        [expected_update_activated(column, survival, activation) for column in unit]
    ) - unit


def stationary_null_vector(survival, activation):
    """Stationary profile of the activation-rate process, solved directly.

    The profile is the null vector of ``stationarity_system`` with entries
    summing to one; the first-group balance row is implied by the others
    (columns of E sum to one), so it is replaced by the normalisation row
    and the square system solved by LU. The diagonal is written out as the
    rate at which an agent leaves its group, alpha_i, or alpha_n (1 - p_n)
    in the last: E's diagonal minus one keeps only the last bits of that
    rate, which put the profile up to 2.6e-12 off at activations near
    ALPHA_MIN.
    """
    p = np.asarray(survival, dtype=float)
    a = np.asarray(activation, dtype=float)
    system = stationarity_system(p, a)
    np.fill_diagonal(system, -a * np.append(np.ones(p.size - 1), 1.0 - p[-1]))
    system[0, :] = 1.0
    return np.linalg.solve(system, np.eye(len(survival))[0])


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


def one_step_count_law(counts, survival, activation):
    """Exact distribution of the group counts one step after ``counts``,
    by enumerating every agent's fate. Each agent of group i independently
    advances with probability alpha_i p_i (the last group keeps the agents
    it advances), dies into group 1 with probability alpha_i (1 - p_i) and
    stays with probability 1 - alpha_i (alpha is 1 for the plain process).
    Returns {next counts as a tuple: probability}, impossible outcomes left
    out. It takes 3 ** agents terms, so it is for a few agents only."""
    probs = np.asarray(survival, dtype=float)
    n = probs.size
    rates = np.ones(n) if activation is None else np.asarray(activation, dtype=float)
    agents = np.repeat(np.arange(n), counts).tolist()
    law = {}
    for fates in itertools.product(range(3), repeat=len(agents)):
        chance, new_counts = 1.0, [0] * n
        for group, fate in zip(agents, fates):
            a, p = rates[group], probs[group]
            chance *= (a * p, a * (1.0 - p), 1.0 - a)[fate]
            new_counts[(min(group + 1, n - 1), 0, group)[fate]] += 1
        if chance > 0:
            law[tuple(new_counts)] = law.get(tuple(new_counts), 0.0) + chance
    return law


def count_transition_matrix(agents, survival, activation):
    """The exact transition matrix of the group counts of ``agents`` agents,
    row by row from ``one_step_count_law``; returns (states, matrix). The
    states are every way to put the agents in the groups, in lexicographic
    order, and row k of the matrix is the law of the next state after
    ``states[k]``."""
    n = len(survival)
    states = [s for s in itertools.product(range(agents + 1), repeat=n) if sum(s) == agents]
    index = {state: k for k, state in enumerate(states)}
    matrix = np.zeros((len(states), len(states)))
    for k, state in enumerate(states):
        for outcome, chance in one_step_count_law(state, survival, activation).items():
            matrix[k, index[outcome]] = chance
    return states, matrix


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
    dist = as_distribution(dist)
    y, labels, n = dist.proportions, dist.labels, len(dist)
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


def reference_paid_for(props, raised, later, bound):
    """``model2._paid_for`` with its counts as first written: one Python
    pass per raised group."""
    head = props[:-1]
    starts = np.flatnonzero(bound)
    sizes = later[starts]
    gains = np.array([np.count_nonzero(sizes[t:] == sizes[t]) for t in range(starts.size)])
    payers = np.array([np.count_nonzero(head[j + 1:] == later[j]) for j in starts])
    best = np.argmax(gains / payers)
    first, size, slope = starts[best], sizes[best], gains[best] * ALPHA_MIN
    heights = np.sort(head[first + 1:])[::-1]
    levels = ((np.cumsum(heights) - (raised.sum() - props.sum()) + slope * size)
              / (np.arange(1, heights.size + 1) + slope))
    level = levels[np.argmax(levels >= np.append(heights[1:], 0.0))]
    paid = props.copy()
    paid[first + 1:-1] = np.minimum(head[first + 1:], max(level, 0.5 * size))
    return paid


def reference_solve_one(dist, p_n="mid", *, seed=None):
    """``pipeline.solve`` as two stations; returns (params, analytic
    steady state). A monotone target goes to model 1 (``p_n`` and ``seed``
    as ``model1.solve`` takes them, its steady state from
    ``model1.steady_state``) and falls through to model 2 when its last
    group is too large. Model 2 is the closed form at the midpoint on the
    target or, where the closed form rejects it, on its nearest reachable
    target."""
    if classify(dist) is Classification.MONOTONE_NON_INCREASING:
        try:
            survival = model1.solve(dist, p_n, seed=seed)
        except DegenerateLastGroup:
            pass
        else:
            analytic = model1.steady_state(survival, labels=dist.labels)
            mode = ("explicit" if not isinstance(p_n, str)
                    else "midpoint" if p_n == "mid" else "rand")
            diagnostics = {"mae": mean_absolute_error(analytic, dist), "free_param_mode": mode}
            if mode == "rand":
                diagnostics["seed"] = seed
            return ModelParams(ModelKind.MODEL1, survival, diagnostics=diagnostics), analytic
    diagnostics = {"solver": "closed_form"}
    try:
        survival, activation = model2.solve(dist)
    except (ActivationTooSmall, DegenerateLastGroup):
        reachable = model2.nearest_reachable(dist)
        diagnostics = {"solver": "nearest_reachable",
                       "wasserstein_to_original": wasserstein(reachable, dist)}
        survival, activation = model2.solve(reachable)
    analytic = model2.steady_state2(survival, activation, labels=dist.labels)
    diagnostics.update(min_activation=float(activation.rates.min()),
                       free_param_mode="midpoint", mae=mean_absolute_error(analytic, dist))
    return ModelParams(ModelKind.MODEL2, survival, activation, diagnostics=diagnostics), analytic


def reference_route(params) -> str:
    """The route's name, read from a station's parameters by kind and
    solver, as ``reference_solve_one`` builds them: model 1, the model-2
    closed form or its nearest reachable target."""
    if params.kind is ModelKind.MODEL1:
        return "model1"
    return "model2" if params.diagnostics["solver"] == "closed_form" else "nearest_reachable"
