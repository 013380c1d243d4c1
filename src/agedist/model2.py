"""Steady-state evaluator, closed-form inverse and differential-evolution
search for the activation-rate process.

Adding a per-group activation rate alpha_i (an agent only undergoes the
ageing/survival draw when active) widens the family of achievable stationary
profiles to non-monotone shapes. At stationarity the active mass
m_i = alpha_i N_i obeys m_{i+1} = p_i m_i, so ``solve`` inverts any target
whose groups stay within 1/ALPHA_MIN of every earlier group exactly, in
closed form; ``nearest_reachable`` moves any other target into its reach,
as little as it can. ``optimize`` is the search of the original method: a
bounded differential evolution over the joint vector (p_1..p_n,
alpha_1..alpha_n) that minimises the mean absolute error between the
candidate's stationary profile and the target. ``steady_state2`` and the
search objective both use model 1's stationary kernel, with the activation
rates as its second row set.
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
#: 2-CPU machine (medians of six alternating runs of a default search):
#: 0.37x at n = 11 (3.6k entries a share), 0.60x at n = 21 (13k), 0.90x at
#: n = 31 (29k), 0.99-1.27x at n = 41 (50k), 1.56x at n = 51 (78k) and
#: 1.73x at n = 101 (306k). Break-even lies between n = 31 and n = 41,
#: where the floor puts the switch.
SHARE_FLOOR = 50_000

#: Margins on the floors ``nearest_reachable`` raises groups to.
_FLOOR_MARGIN = 1.0 + 4.0 * np.finfo(float).eps
_FLOOR_OFFSET = 4.0 * np.finfo(float).smallest_subnormal

#: Range of the mutation scale, redrawn uniformly every generation (dither).
MUTATION_RANGE = (0.5, 1.0)
#: Chance that a trial component comes from the mutant (binomial crossover).
CROSSOVER_RATE = 0.9
#: The search stops once the best mean absolute error drops below this.
SUCCESS_THRESHOLD = 1e-4


@dataclass
class DEConfig:
    """Search settings: population size (None: 15 per dimension, 30n for n
    groups), generation budget and seed.

    The search itself is fixed: dithered best/1/bin (Storn & Price 1997)
    with the module's ``MUTATION_RANGE``, ``CROSSOVER_RATE`` and
    ``SUCCESS_THRESHOLD``, in ``default_bounds``. It converges an order of
    magnitude faster here than fixed-scale rand/1/bin; the flat landscape
    along the solution manifold makes premature convergence moot.
    """

    population_size: Optional[int] = None
    max_iterations: int = 250
    seed: int = 0

    def __post_init__(self):
        for name in ("population_size", "max_iterations", "seed"):
            value = getattr(self, name)
            if not (value is None and name == "population_size") and (
                    isinstance(value, bool) or not isinstance(value, numbers.Integral)):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if self.population_size is not None and self.population_size < 4:
            raise ValueError("population_size must be at least 4")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


def default_bounds(n_groups: int) -> np.ndarray:
    """Search box: survival in [0, 1 - 1e-9], activation in [ALPHA_MIN, 1]."""
    lo = np.concatenate([np.zeros(n_groups), np.full(n_groups, ALPHA_MIN)])
    hi = np.concatenate([np.full(n_groups, MAX_LAST_SURVIVAL), np.ones(n_groups)])
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
        DegenerateLastGroup: the last group is more than
            1/(1 - MAX_LAST_SURVIVAL) times the smallest group before it.
    """
    props = solver_proportions(dist)
    active = np.minimum.accumulate(props[:-1])
    rates = np.append(active / props[:-1], 1.0)
    if rates.min() < ALPHA_MIN:
        worst = int(rates.argmin())
        raise ActivationTooSmall(
            f"group index {worst} is more than 1/ALPHA_MIN = {1.0 / ALPHA_MIN:g} "
            f"times the smallest group before it (activation {rates[worst]:.4g})"
        )
    masses = normalize(np.append(active, props[-1]), default_labels(props.size))
    return model1.solve(masses, "mid"), ActivationVector(rates)


def _raised_to_floors(props: np.ndarray) -> tuple:
    """``props`` with its first n-1 groups raised to their floors (see
    ``nearest_reachable``), and each one's largest later group among them."""
    head = props[:-1]
    later = np.append(np.maximum.accumulate(head[:0:-1])[::-1], 0.0)
    floor = np.maximum(later * ALPHA_MIN, props[-1] * (1.0 - MAX_LAST_SURVIVAL))
    raised = np.maximum(head, floor * _FLOOR_MARGIN + _FLOOR_OFFSET)
    return np.append(raised, props[-1]), later


def _paid_for(props: np.ndarray, raised: np.ndarray, later: np.ndarray,
              bound: np.ndarray) -> np.ndarray:
    """``props`` with the groups after one raised group j capped at a level
    U that pays for the raise: the m tallest give up their excess over U,
    and the k raised groups that their size bounds from j on need ALPHA_MIN
    k less per unit that U drops (j has the largest k / m). U is at least
    half that size, so every group stays positive."""
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


def nearest_reachable(dist) -> AgeDistribution:
    """A target that ``solve`` reproduces, for a ``dist`` it rejects: on
    mean absolute error within 1% of the nearest one (the L1 projection).

    ``solve`` accepts the targets in which no group of the first n-1 is
    more than 1/ALPHA_MIN times an earlier one and the last group is at
    most 1/(1 - MAX_LAST_SURVIVAL) times the smallest before it; every
    model-2 steady state is one. Raising each group j of the first n-1 to
    ``max(N_j, max_{j<i<=n-1} N_i * ALPHA_MIN, N_n * (1 - MAX_LAST_SURVIVAL))``,
    times 1 + 4 eps plus 4 subnormal steps to stay clear of rounding, and
    renormalizing gives one. As in the projection, the groups that set the
    floors first give up the mass the raise adds (``_paid_for``).
    """
    props = solver_proportions(dist)
    raised, later = _raised_to_floors(props)
    # Raised groups whose floor a later group of the first n-1 sets.
    bound = (raised[:-1] > props[:-1]) & (
        later * ALPHA_MIN > props[-1] * (1.0 - MAX_LAST_SURVIVAL))
    if bound.any():
        raised, _ = _raised_to_floors(_paid_for(props, raised, later, bound))
    labels = dist.labels if isinstance(dist, AgeDistribution) else default_labels(props.size)
    return normalize(raised, labels)


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


def _distinct_pairs(rng: np.random.Generator, m: int) -> tuple:
    """Two index vectors over 0..m-1, distinct per row from each other and
    from the row's own index."""
    own = np.arange(m)
    r1, r2 = rng.integers(0, m, size=m), rng.integers(0, m, size=m)
    while True:
        bad = (r1 == own) | (r2 == own) | (r1 == r2)
        if not bad.any():
            return r1, r2
        k = int(bad.sum())
        r1[bad] = rng.integers(0, m, size=k)
        r2[bad] = rng.integers(0, m, size=k)


def _bounce_back(x: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 scratch: np.ndarray, doubled: tuple) -> None:
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
    ``scratch`` has the shape of ``x``; ``doubled`` is ``(2 * lo, 2 * hi)``.
    """
    twice_lo, twice_hi = doubled
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


def _skip_doubles(bit_generator, count: int) -> dict:
    """Move ``bit_generator`` past ``count`` doubles (one 64-bit output
    each) and return its state from before the skip. ``advance`` clears
    the buffered upper half of a 64-bit output that a 32-bit draw leaves;
    the skip puts it back, so the next bounded integer draw reads the
    stream exactly as after drawing the doubles."""
    before = bit_generator.state
    bit_generator.advance(count)
    after = bit_generator.state
    after["has_uint32"], after["uinteger"] = before["has_uint32"], before["uinteger"]
    bit_generator.state = after
    return before


def optimize(
    target,
    config: Optional[DEConfig] = None,
    *,
    history: Optional[list] = None,
) -> Model2Solution:
    """Search survival and activation rates reproducing ``target``.

    Binomial-crossover differential evolution over the 2n-dimensional joint
    vector (dithered best/1/bin, see ``DEConfig``) with elitist selection,
    bounce-back repair into ``default_bounds`` and an early stop once the
    best mean absolute error drops below ``SUCCESS_THRESHOLD``.
    Deterministic for a given seed: every draw comes from one PCG64 stream
    in a fixed order, and selection replaces rows only once the whole
    generation is built.

    A generation is synchronous, so its trial rows are built in row shares,
    one per CPU the process may run on (``os.sched_getaffinity``), on the
    calling thread and on worker threads that live only as long as the
    call. The calling thread draws the mutation scale, the row pairs and
    the forced crossover components; each share draws its own rows of the
    crossover uniforms from a copy of the stream advanced to them (the
    calling thread skips past all of them), then gathers, mutates, reflects
    and crosses over its rows and scores them with its own scratch. Once
    every share has gathered from the parents, each share copies its
    improved trial rows into the population. There is at most one share
    per ``SHARE_FLOOR`` population entries, so small searches (21-group
    ones among them) stay on the calling thread. Every row gets the same
    floats whatever the share count, so results are bitwise independent of
    it; restricting the CPU affinity gives a serial search. A generation
    allocates nothing of the population's size: the population, trial rows
    and the objective's scratch live in buffers made once per call.

    Each share scores its rows with its own ``mae_objective(target)``,
    once for the initial population and once per generation; the rows it
    is handed are a view of a buffer that the search overwrites afterwards.
    Non-convergence is reported through ``converged=False``, never raised.
    A non-finite objective value counts as ``+inf``: such a candidate never
    wins selection and never stops the search. ``history`` receives the
    best error after initialisation and after each generation.
    """
    cfg = config if config is not None else DEConfig()
    t = proportions_of(target)
    n = t.size
    dim = 2 * n
    lo, hi = default_bounds(n).T.copy()
    doubled = (2.0 * lo, 2.0 * hi)
    pop_size = cfg.population_size or 15 * dim
    shares = _row_shares(pop_size, dim)
    scorers = [mae_objective(t) for _ in shares]

    rng = np.random.default_rng(cfg.seed)
    population = rng.uniform(lo, hi, size=(pop_size, dim))
    # A generator per share for its rows of the crossover uniforms; every
    # generation sets its state from the calling thread's stream.
    streams = [np.random.Generator(np.random.PCG64(cfg.seed)) for _ in shares]

    # Every generation writes into this workspace: trial rows, a second
    # buffer (crossover uniforms, then the second gather, then the rows
    # selection moves), the keep-parent mask and the trial scores. The row
    # indices are always in range; mode="clip" only spares np.take a
    # temporary copy of its output.
    trials = np.empty_like(population)
    spare = np.empty_like(population)
    keep = np.empty(population.shape, dtype=bool)
    errors = np.empty(pop_size)
    trial_errors = np.empty(pop_size)
    local = np.arange(pop_size)

    def score(k, candidates, out):
        rows = shares[k]
        out[rows] = _finite_scores(scorers[k], candidates[rows])

    def build(k):
        # Reads this generation's draws (factor, base, r1, r2, forced, the
        # stream state) and the unchanged population; writes only share
        # k's rows.
        rows = shares[k]
        out, gather, mask = trials[rows], spare[rows], keep[rows]
        stream = streams[k]
        stream.bit_generator.state = crossover_state
        stream.bit_generator.advance(rows.start * dim)
        stream.random(out=gather)
        np.greater_equal(gather, CROSSOVER_RATE, out=mask)
        mask[local[: len(out)], forced[rows]] = False
        np.take(population, r1[rows], axis=0, out=out, mode="clip")
        np.take(population, r2[rows], axis=0, out=gather, mode="clip")
        np.subtract(out, gather, out=out)
        np.multiply(out, factor, out=out)
        np.add(out, base, out=out)
        _bounce_back(out, lo, hi, gather, doubled)
        np.copyto(out, population[rows], where=mask)
        score(k, trials, trial_errors)

    def select(k):
        # Runs once every share has built: writes only share k's rows.
        rows = shares[k]
        won = rows.start + np.flatnonzero(trial_errors[rows] <= errors[rows])
        moved = spare[rows][: won.size]
        np.take(trials, won, axis=0, out=moved, mode="clip")
        population[won] = moved
        errors[won] = trial_errors[won]

    with _share_runner(len(shares)) as run:
        run(lambda k: score(k, population, errors))
        if history is not None:
            history.append(float(errors.min()))

        iterations = 0
        while errors.min() >= SUCCESS_THRESHOLD and iterations < cfg.max_iterations:
            factor = rng.uniform(*MUTATION_RANGE)
            r1, r2 = _distinct_pairs(rng, pop_size)
            base = population[int(errors.argmin())]
            crossover_state = _skip_doubles(rng.bit_generator, pop_size * dim)
            forced = rng.integers(0, dim, size=pop_size)
            run(build)
            run(select)
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
        converged=mae < SUCCESS_THRESHOLD,
    )
