"""Steady-state evaluator, closed-form inverse and differential-evolution
search for the activation-rate process.

Adding a per-group activation rate alpha_i (an agent only undergoes the
ageing/survival draw when active) widens the family of achievable stationary
profiles to non-monotone shapes. At stationarity the active mass
m_i = alpha_i N_i obeys m_{i+1} = p_i m_i, so ``solve`` inverts any target
whose groups stay within 1/ALPHA_MIN of every earlier group exactly, in
closed form. ``optimize`` is the search of the original method: a bounded
differential evolution over the joint vector (p_1..p_n, alpha_1..alpha_n)
that minimises the mean absolute error between the candidate's stationary
profile and the target. ``steady_state2`` and the search objective both use
model 1's stationary kernel, with the activation rates as its second row
set.
"""

from __future__ import annotations

import numbers
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import model1
from .distributions import (
    ALPHA_MIN,
    MAX_LAST_SURVIVAL,
    ActivationVector,
    AgeDistribution,
    SurvivalVector,
    default_labels,
    normalize,
    proportions_of,
    solver_proportions,
)
from .errors import ActivationTooSmall

#: Population entries (rows x 2n) of a search generation for each thread
#: it runs on: a generation of fewer than twice this runs on the calling
#: thread alone. Results do not depend on it. Two shares against one on a
#: 2-CPU machine: 0.69x at n = 21 (13k entries a share), break-even near
#: n = 33 (33k), 1.2-1.3x at n = 41 (50k), 1.65x at n = 101 (306k).
SHARE_FLOOR = 50_000


@dataclass
class DEConfig:
    """Differential-evolution settings.

    ``strategy`` picks the base vector for mutation: ``"best1bin"`` (the
    default; mutate around the population's best member) or ``"rand1bin"``
    (mutate around a random member). ``mutation_factor`` is either a fixed scale in
    (0, 2] or a (low, high) pair, in which case the scale is redrawn
    uniformly from that range every generation (dither). Dithered best/1/bin
    converges an order of magnitude faster here than fixed-F rand/1/bin and
    is what the success criterion is calibrated against; the flat landscape
    along the solution manifold makes the usual premature-convergence worry
    moot.

    ``population_size`` and ``bounds`` default to None, meaning "derive from
    the problem dimension when the search starts": 15 x dimension members,
    survival components bounded to [0, 1 - 1e-9] and activation components
    to [ALPHA_MIN, 1].
    """

    population_size: Optional[int] = None
    max_iterations: int = 250
    mutation_factor: object = (0.5, 1.0)
    crossover_rate: float = 0.9
    success_threshold: float = 1e-4
    seed: int = 0
    bounds: Optional[np.ndarray] = None
    strategy: str = "best1bin"

    def __post_init__(self):
        if self.population_size is not None and self.population_size < 4:
            raise ValueError("population_size must be at least 4")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        low, high = self.mutation_range()
        if not 0.0 < low <= high <= 2.0:
            raise ValueError("mutation_factor must lie in (0, 2]")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must lie in [0, 1]")
        if self.success_threshold <= 0.0:
            raise ValueError("success_threshold must be positive")
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral):
            raise ValueError(f"seed must be an integer, not {self.seed!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.strategy not in ("best1bin", "rand1bin"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.bounds is not None:
            self.bounds = np.array(self.bounds, dtype=float)

    def mutation_range(self) -> tuple:
        if isinstance(self.mutation_factor, (int, float)):
            f = float(self.mutation_factor)
            return f, f
        low, high = self.mutation_factor
        return float(low), float(high)

    def resolved_bounds(self, n_groups: int) -> np.ndarray:
        """Per-parameter [low, high] rows for a 2n-dimensional search."""
        if self.bounds is None:
            return default_bounds(n_groups)
        b = self.bounds
        if b.shape != (2 * n_groups, 2):
            raise ValueError(f"bounds must have shape {(2 * n_groups, 2)}, got {b.shape}")
        if np.any(b[:, 0] > b[:, 1]):
            raise ValueError("bounds rows must satisfy low <= high")
        ref = default_bounds(n_groups)
        if np.any(b[:, 0] < ref[:, 0]) or np.any(b[:, 1] > ref[:, 1]):
            raise ValueError("bounds must respect the survival and activation ranges")
        return b


def default_bounds(n_groups: int) -> np.ndarray:
    """Search box: survival in [0, 1 - 1e-9], activation in [ALPHA_MIN, 1]."""
    lo = np.concatenate([np.zeros(n_groups), np.full(n_groups, ALPHA_MIN)])
    hi = np.concatenate(
        [np.full(n_groups, MAX_LAST_SURVIVAL), np.ones(n_groups)]
    )
    return np.column_stack([lo, hi])


@dataclass
class Model2Solution:
    survival: SurvivalVector
    activation: ActivationVector
    mae: float
    iterations_used: int
    converged: bool


def solve(dist) -> tuple:
    """Survival and activation rates whose steady state equals ``dist``
    exactly; returns (SurvivalVector, ActivationVector).

    With m_i = alpha_i N_i the stationary equations read m_{i+1} = p_i m_i
    over the intermediate groups and (1 - p_n) alpha_n N_n = p_{n-1} m_{n-1}
    for the last, so (m_1..m_{n-1}, alpha_n N_n) is the steady state of the
    plain process with the same survival rates. Every non-increasing m with
    m_i <= N_i gives a solution, with alpha_i = m_i / N_i. This one is the
    maximal-activation member: m is the running minimum of N over the first
    n-1 groups and alpha_n = 1, so alpha_i = 1 wherever N_i is a running
    minimum, and the survival rates are model 1's closed form for
    (m_1..m_{n-1}, N_n) with p_n at the midpoint of its interval. A monotone
    target gets alpha = 1 and ``model1.solve(dist, "mid")`` bit for bit.

    Raises:
        InteriorZeroGroup: a raw vector has an empty group before a
            non-empty one.
        ActivationTooSmall: a group is more than 1/ALPHA_MIN times the
            smallest group before it. No m_i exceeds that running minimum,
            so no member of the family keeps alpha_i >= ALPHA_MIN.
    """
    props = solver_proportions(dist)
    active = np.minimum.accumulate(props[:-1])
    rates = np.append(active / props[:-1], 1.0)
    if rates.min() < ALPHA_MIN:
        worst = int(rates.argmin())
        raise ActivationTooSmall(
            f"group index {worst} is {1.0 / rates[worst]:.4g} times the "
            f"smallest group before it, beyond 1/ALPHA_MIN = {1.0 / ALPHA_MIN:g}"
        )
    masses = normalize(np.append(active, props[-1]), default_labels(props.size))
    return model1.solve(masses, "mid"), ActivationVector(rates)


def steady_state2(p, alpha, labels=None) -> AgeDistribution:
    """Stationary age distribution of the activation-rate process: the
    ``model1.stationary_profiles`` recursion, under the guards of
    ``model1.steady_state`` with column j of the stationarity system scaled
    by alpha_j. All activation rates 1 give the plain process bit for bit.
    """
    return model1._steady_state(p, alpha, labels)


def mae_objective(target) -> Callable[[np.ndarray], np.ndarray]:
    """Batched search objective for a fixed target distribution.

    Returns a function mapping a (m, 2n) matrix of candidate
    (survival, activation) rows to a fresh array of the m mean absolute
    errors between each candidate's stationary profile
    (``model1.stationary_profiles``, unguarded) and the target. The function
    keeps its (m, n) profiles and (m, n-2) ratios scratch between calls of
    the same row count, so one instance must not be called from two threads
    at once.
    """
    t = proportions_of(target)
    n = t.size
    weights = ratios = None

    def evaluate(candidates: np.ndarray) -> np.ndarray:
        nonlocal weights, ratios
        x = np.atleast_2d(np.asarray(candidates, dtype=float))
        if weights is None or weights.shape[0] != x.shape[0]:
            weights = np.empty((x.shape[0], n))
            ratios = np.empty((x.shape[0], n - 2))
        model1.stationary_profiles(x[:, :n], x[:, n:], weights, ratios)
        np.subtract(weights, t, out=weights)
        np.abs(weights, out=weights)
        return weights.mean(axis=1)

    return evaluate


def _distinct_rows(rng: np.random.Generator, m: int, count: int) -> list:
    """``count`` index vectors over 0..m-1, distinct per row from each other
    and from the row's own index."""
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


def _bounce_back(x: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 scratch: np.ndarray, doubled: Optional[tuple] = None) -> None:
    """Reflect out-of-bounds components of ``x`` back into the box, in place.

    ``max(2lo - x, x)`` picks the reflection exactly when ``x < lo``:
    rounding is monotone, so ``x >= lo`` gives ``fl(2lo - x) <= x``. The
    same holds for the upper side, and the final clip catches reflections
    that overshoot the far bound. numpy's maximum and minimum return their
    second operand on ties, so ``x`` keeps its own signed zero as in the
    where/where/clip form, which this equals bit for bit. The clip stays a
    clip: on a zero of the other sign at a bound it returns the bound when
    the bounds vary along numpy's inner loop and ``x`` when they do not, and
    no fixed ``maximum``/``minimum`` pair does both.
    ``scratch`` has the shape of ``x``; ``doubled`` is ``(2 * lo, 2 * hi)``
    when the caller has them.
    """
    twice_lo, twice_hi = doubled if doubled is not None else (2.0 * lo, 2.0 * hi)
    np.subtract(twice_lo, x, out=scratch)
    np.maximum(scratch, x, out=x)
    np.subtract(twice_hi, x, out=scratch)
    np.minimum(scratch, x, out=x)
    np.clip(x, lo, hi, out=x)


def _finite_scores(evaluate, candidates: np.ndarray) -> np.ndarray:
    """Objective values of ``candidates``, non-finite ones counted as +inf."""
    scores = np.asarray(evaluate(candidates), dtype=float)
    return np.where(np.isfinite(scores), scores, np.inf)


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where it has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _row_shares(pop_size: int, dim: int) -> list:
    """Contiguous row slices of a generation, one per thread it runs on:
    one per CPU, but at most one per SHARE_FLOOR population entries."""
    count = max(1, min(_cpu_count(), pop_size * dim // SHARE_FLOOR, pop_size))
    edges = [pop_size * k // count for k in range(count + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


@contextmanager
def _share_runner(count: int):
    """Yield ``run(task)``, which calls ``task(k)`` for k in 0..count-1 and
    returns once all calls are done: share 0 on the calling thread, each
    other share on a worker thread that lives only inside the ``with``."""
    if count == 1:
        yield lambda task: task(0)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(count - 1, thread_name_prefix="agedist-search") as pool:
        def run(task):
            pending = [pool.submit(task, k) for k in range(1, count)]
            try:
                task(0)
            finally:
                # Wait for every share, even when this one failed.
                failures = [future.exception() for future in pending]
            for failure in failures:
                if failure is not None:
                    raise failure

        yield run


def optimize(
    target,
    config: Optional[DEConfig] = None,
    *,
    objective: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    history: Optional[list] = None,
) -> Model2Solution:
    """Search survival and activation rates reproducing ``target``.

    Binomial-crossover differential evolution over the 2n-dimensional joint
    vector with elitist selection, bounce-back repair and an early stop once
    the best mean absolute error drops below the success threshold.
    Deterministic for a given seed: one generator drives every draw and
    selection replaces rows only once the whole generation is scored.

    A generation is synchronous, so its trial rows are built in row shares,
    one per CPU the process may run on (``os.sched_getaffinity``), on the
    calling thread and on worker threads that live only as long as the
    call. The calling thread makes every random draw, in the serial order,
    before the shares start; each share gathers, mutates, reflects and
    crosses over its own rows and scores them with its own scratch. There
    is at most one share per ``SHARE_FLOOR`` population entries, so small
    searches (the cascade's 21-group ones among them) stay on the calling
    thread. Every row gets the same floats whatever the share count, so
    results are bitwise independent of it; restricting the CPU affinity
    gives a serial search. A generation allocates nothing of the
    population's size: the population, trial rows, crossover draws and the
    objective's scratch live in buffers made once per call.

    Non-convergence is reported through ``converged=False``, never raised.
    A non-finite objective value counts as ``+inf``: such a candidate never
    wins selection and never stops the search. ``objective`` replaces the
    batched scorer (testing hook); it is called from the calling thread,
    once for the initial population and once per generation, with the whole
    candidate matrix. That matrix is a buffer that the search overwrites
    afterwards, so a hook that keeps candidates must copy them. ``history``
    receives the best error after initialisation and after each generation.
    """
    cfg = config if config is not None else DEConfig()
    t = proportions_of(target)
    n = t.size
    dim = 2 * n
    bounds = cfg.resolved_bounds(n)
    lo, hi = bounds[:, 0].copy(), bounds[:, 1].copy()
    doubled = (2.0 * lo, 2.0 * hi)
    pop_size = cfg.population_size or 15 * dim
    f_low, f_high = cfg.mutation_range()
    shares = _row_shares(pop_size, dim)
    scorers = [mae_objective(t) for _ in shares] if objective is None else None

    rng = np.random.default_rng(cfg.seed)
    population = rng.uniform(lo, hi, size=(pop_size, dim))

    # Every generation writes into this workspace: trial rows, a second
    # gather buffer, the crossover uniforms, the keep-parent mask and the
    # trial scores. The row indices are always in range; mode="clip" only
    # spares np.take a temporary copy of its output.
    trials = np.empty_like(population)
    spare = np.empty_like(population)
    uniforms = np.empty_like(population)
    keep = np.empty(population.shape, dtype=bool)
    errors = np.empty(pop_size)
    trial_errors = np.empty(pop_size)
    local = np.arange(pop_size)

    def score(k, candidates, out):
        rows = shares[k]
        out[rows] = _finite_scores(scorers[k], candidates[rows])

    def build(k):
        # Reads this generation's draws (factor, base, base_idx, r1, r2,
        # forced) and the unchanged population; writes only share k's rows.
        rows = shares[k]
        out, gather, draws, mask = trials[rows], spare[rows], uniforms[rows], keep[rows]
        np.greater_equal(draws, cfg.crossover_rate, out=mask)
        mask[local[: len(out)], forced[rows]] = False
        # The crossover draws are spent, so ``draws`` can hold the base rows.
        share_base = base if base_idx is None else np.take(
            population, base_idx[rows], axis=0, out=draws, mode="clip")
        np.take(population, r1[rows], axis=0, out=out, mode="clip")
        np.take(population, r2[rows], axis=0, out=gather, mode="clip")
        np.subtract(out, gather, out=out)
        np.multiply(out, factor, out=out)
        np.add(out, share_base, out=out)
        _bounce_back(out, lo, hi, gather, doubled)
        np.copyto(out, population[rows], where=mask)
        if scorers is not None:
            score(k, trials, trial_errors)

    with _share_runner(len(shares)) as run:
        if objective is None:
            run(lambda k: score(k, population, errors))
        else:
            errors = _finite_scores(objective, population)
        if history is not None:
            history.append(float(errors.min()))

        iterations = 0
        while errors.min() >= cfg.success_threshold and iterations < cfg.max_iterations:
            factor = f_low if f_low == f_high else rng.uniform(f_low, f_high)
            if cfg.strategy == "best1bin":
                r1, r2 = _distinct_rows(rng, pop_size, 2)
                base_idx, base = None, population[int(errors.argmin())]
            else:
                base_idx, r1, r2 = _distinct_rows(rng, pop_size, 3)
            rng.random(out=uniforms)
            forced = rng.integers(0, dim, size=pop_size)
            run(build)
            if objective is not None:
                trial_errors = _finite_scores(objective, trials)
            improved = trial_errors <= errors
            np.copyto(population, trials, where=improved[:, None])
            np.copyto(errors, trial_errors, where=improved)
            iterations += 1
            if history is not None:
                history.append(float(errors.min()))

    best = int(errors.argmin())
    mae = float(errors[best])
    return Model2Solution(
        survival=SurvivalVector(population[best, :n]),
        activation=ActivationVector(population[best, n:]),
        mae=mae,
        iterations_used=iterations,
        converged=mae < cfg.success_threshold,
    )
