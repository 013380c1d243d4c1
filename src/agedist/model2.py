"""Closed-form inverse, steady-state evaluator and differential-evolution
search for the activation-rate process.

Adding a per-group activation rate alpha_i (an agent only undergoes the
ageing/survival draw when active) widens the family of achievable stationary
profiles to non-monotone shapes: each active mass m_i = alpha_i N_i in the
target's ``band`` gives an exact solution in closed form (``member``). The
paper's Model 1, the plain process, is the member m = N, every alpha_i = 1,
which only a monotone target admits; ``feasibility`` gives the interval of
its free last-group survival. ``solve`` is the member on the band's upper
edge, and ``nearest_reachable`` moves a target whose band is empty to
the nearest one in mean absolute error (the L1 projection).
``optimize`` is the search of the original method: a bounded differential
evolution over the joint vector (p_1..p_n, alpha_1..alpha_n) that minimises
the mean absolute error between the candidate's stationary profile and the
target. ``steady_state2`` is a name of the process's stationary law in
``distributions``, and the search objective reads that law with the
activation rates as its second row set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import parallel
from .distributions import (
    ALPHA_MIN,
    MAX_LAST_SURVIVAL,
    ActivationVector,
    AgeDistribution,
    SurvivalVector,
    as_distribution,
    check_integer,
    check_seed,
    normalize,
    proportions_of,
    rises,
    stationary_distribution,
    stationary_profiles,
)
from .errors import DegenerateLastGroup, FreeParamOutOfRange, NotModel1Eligible

#: Population entries (rows x 2n) that a search share builds, scores and
#: selects at a time: a share's rows are cut into the fewest tiles of at
#: most this many entries, within one row of each other (three of 505 rows
#: for each of two shares at n = 101), and a generation has a share per
#: tile at most. Results do not depend on it. On a 2-CPU machine a 101-group
#: search on one thread runs about 8% faster in tiles than in whole shares,
#: as the rows stay in cache. On two threads every numpy call of a tile
#: passes the GIL back and forth: these tiles measured 0-10% slower than
#: whole shares there, five tiles of 303 rows 18-34%, for 1.4 MB less memory.
TILE_ENTRIES = 110_000

#: Margins on the floors ``nearest_reachable`` raises groups to at the end.
_FLOOR_MARGIN = 1.0 + 4.0 * np.finfo(float).eps
_FLOOR_OFFSET = 4.0 * np.finfo(float).smallest_subnormal

#: Range of the mutation scale, redrawn uniformly every generation (dither).
MUTATION_RANGE = (0.5, 1.0)
#: Chance that a trial component comes from the mutant (binomial crossover).
CROSSOVER_RATE = 0.9
#: The search stops once the best mean absolute error drops below this.
SUCCESS_THRESHOLD = 1e-4


@dataclass(frozen=True)
class DEConfig:
    """Frozen search settings: population size (None: 15 per dimension, 30n
    for n groups), generation budget and seed, stored as Python ints.

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
        if self.population_size is not None:
            if (size := check_integer("population_size", self.population_size)) < 4:
                raise ValueError("population_size must be at least 4")
            object.__setattr__(self, "population_size", size)
        if (iterations := check_integer("max_iterations", self.max_iterations)) < 1:
            raise ValueError("max_iterations must be positive")
        object.__setattr__(self, "max_iterations", iterations)
        object.__setattr__(self, "seed", check_seed(self.seed))


def default_bounds(n_groups: int) -> np.ndarray:
    """Search box: survival in [0, 1 - 1e-9], activation in [ALPHA_MIN, 1]."""
    lo = np.concatenate([np.zeros(n_groups), np.full(n_groups, ALPHA_MIN)])
    hi = np.concatenate([np.full(n_groups, MAX_LAST_SURVIVAL), np.ones(n_groups)])
    return np.column_stack([lo, hi])


@dataclass(frozen=True)
class Model2Solution:
    survival: SurvivalVector
    activation: ActivationVector
    mae: float
    iterations_used: int
    converged: bool
    history: tuple  #: best error after initialisation and each generation


def feasibility(dist) -> tuple:
    """The admissible interval (lower, upper), two Python floats, for the
    free last-group survival p_n of model 1 on ``dist``; ``member`` reads it
    on the active mass.

    The lower bound `1 - N_{n-1}/N_n` is clamped to 0 (it is negative
    whenever the second-to-last group is the larger one, and the ratio is
    then not formed, since it overflows for a last group near underflow);
    the upper bound stays strictly below 1.

    Raises:
        ValueError, EmptyPopulation, InteriorZeroGroup, TooFewGroups: as
            ``distributions.as_distribution`` raises them for a raw vector.
        NotModel1Eligible: the first n-1 groups are not monotone
            non-increasing; the message names each group index (0-based)
            larger than its predecessor.
        DegenerateLastGroup: the last group is more than
            1/(1 - MAX_LAST_SURVIVAL) times the one before it.
    """
    props = as_distribution(dist).proportions
    if (bad := rises(props)).size:
        raise NotModel1Eligible(
            f"proportions increase at group indices {[int(i) for i in bad]}")
    lower = 0.0 if props[-2] >= props[-1] else float(1.0 - props[-2] / props[-1])
    if lower > MAX_LAST_SURVIVAL:
        raise DegenerateLastGroup(
            "last group is more than 1/(1 - MAX_LAST_SURVIVAL) = "
            f"{1.0 / (1.0 - MAX_LAST_SURVIVAL):.4g} times the one before it "
            f"(its survival would be at least {lower!r})")
    return lower, MAX_LAST_SURVIVAL


def _closed_form(active, p_n, seed) -> SurvivalVector:
    """Model 1's survival rates on the active mass ``active``, read as
    ``as_distribution`` reads it: the successive ratios, with p_n picked in
    ``feasibility`` as ``member`` states."""
    dist = as_distribution(active)
    lower, upper = feasibility(dist)
    if isinstance(p_n, str):
        if p_n == "mid":
            value = 0.5 * (lower + upper)
        elif p_n == "rand":
            if seed is None:
                raise ValueError("p_n='rand' requires a seed")
            value = float(np.random.default_rng(check_seed(seed)).uniform(lower, upper))
        else:
            raise ValueError(f"unknown free-parameter mode {p_n!r}")
    elif isinstance(p_n, (bool, np.bool_)):
        raise ValueError(f"free parameter must be a number, 'mid' or 'rand', not {p_n!r}")
    else:
        # Adding +0.0 turns -0.0 into +0.0 and keeps every other value.
        value = float(p_n) + 0.0
        if not lower <= value <= upper:
            raise FreeParamOutOfRange(f"p_n={value!r} outside [{lower!r}, {upper!r}]")

    props = dist.proportions
    n = props.size
    p = np.empty(n)
    p[: n - 2] = props[1 : n - 1] / props[: n - 2]
    # Rounding can push the compensating entry a few ulp past 1 when p_n sits
    # exactly on the interval's lower bound.
    p[n - 2] = min((1.0 - value) * props[n - 1] / props[n - 2], 1.0)
    p[n - 1] = value
    return SurvivalVector(p)


def member(dist, active, p_n="mid", *, seed: Optional[int] = None) -> tuple:
    """Survival and activation rates whose steady state equals ``dist``
    exactly, for the active mass ``active``; returns (SurvivalVector,
    ActivationVector).

    With m_i = alpha_i N_i the stationary equations read m_{i+1} = p_i m_i
    over the intermediate groups and (1 - p_n) m_n = p_{n-1} m_{n-1} for
    the last, so m is the steady state of the plain process with the same
    survival rates. Every path m inside ``band`` (m_n = N_n, or below it,
    which lowers the band's last term) gives a solution: alpha = m / N, and
    the survival rates are the closed form of model 1 on m, the successive
    ratios of m with p_n free in ``feasibility(m)``. ``p_n`` is a value in
    that interval, "mid" for its midpoint (the deterministic default) or
    "rand" for a uniform draw from it seeded by ``seed``. ``active`` is the
    full length-n vector m. m = N is model 1, with alpha = 1.

    Raises:
        ValueError, EmptyPopulation, InteriorZeroGroup, TooFewGroups: as
            ``distributions.as_distribution`` raises them for a raw ``dist``.
        ValueError: ``active`` is not a vector of one entry per group, or an
            entry (or its activation m_i / N_i) is not finite, exceeds its
            group (an activation above 1) or rises over the first n-1
            groups (``distributions.rises``); the last two name the first
            such group index, and the activation one its rate. An m_i even
            one ulp above N_i is refused: a correctly rounded m_i / N_i is
            then above 1.
        ActivationTooSmall: an m_i below ALPHA_MIN N_i (zero and negative
            ones too); the message names the first such group index and its rate.
        DegenerateLastGroup: m_n is more than 1/(1 - MAX_LAST_SURVIVAL)
            times m_{n-1}; the closed form judges it after
            ``ActivationVector(m / N)`` has judged every entry.
        FreeParamOutOfRange: an explicit ``p_n`` outside the interval.
        ValueError: ``p_n`` is "rand" without a valid ``seed``, an unknown
            mode or a bool.
    """
    props = as_distribution(dist).proportions
    m = np.array(active, dtype=float)
    if m.shape != props.shape:
        raise ValueError(f"active mass of shape {m.shape} for {props.size} groups")
    with np.errstate(over="ignore"):  # an m_i / N_i that overflows is refused as not finite
        activation = ActivationVector(m / props)
    if (up := rises(m)).size:
        i = int(up[0])
        raise ValueError(f"active mass {float(m[i])!r} at group index {i} rises above "
                         "the one before it")
    return _closed_form(m, p_n, seed), activation


def band(dist) -> tuple:
    """The edges (lower, upper), read-only over the first n-1 groups, of the
    active masses m with m_n = N_n, as in ``solve``, that reproduce ``dist``
    as given (``distributions.proportions_of``): the non-increasing paths
    with m_i <= upper_i = min_{j<=i} N_j, as m <= N, and m_i >= lower_i =
    max(ALPHA_MIN max_{i<=j<n} N_j, (1 - MAX_LAST_SURVIVAL) N_n), as
    alpha >= ALPHA_MIN and p_n <= MAX_LAST_SURVIVAL. So ``solve`` accepts
    ``dist`` exactly when lower <= upper, up to rounding: ``lower`` is only
    correctly rounded, and m_i = lower_i may give alpha_i an ulp below ALPHA_MIN
    or, where (1 - MAX_LAST_SURVIVAL) N_n is subnormal, p_n an empty interval.
    """
    props = proportions_of(dist)
    upper = np.minimum.accumulate(props[:-1])
    lower = np.maximum(np.maximum.accumulate(props[-2::-1])[::-1] * ALPHA_MIN,
                       props[-1] * (1.0 - MAX_LAST_SURVIVAL))
    upper.flags.writeable = lower.flags.writeable = False
    return lower, upper


def solve(dist, p_n="mid", *, seed: Optional[int] = None) -> tuple:
    """The maximal-activation ``member`` for ``dist``: m is ``band``'s upper
    edge and m_n = N_n, so alpha_i = 1 wherever N_i is a running minimum and
    in the last group (a monotone target gets model 1, alpha = 1).

    Raises:
        What ``member`` raises on this m: ActivationTooSmall or
            DegenerateLastGroup where ``band`` is empty.
    """
    dist = as_distribution(dist)
    return member(dist, np.append(band(dist)[1], dist.proportions[-1]), p_n, seed=seed)


def _moved(t: np.ndarray, chain: np.ndarray) -> tuple:
    """The point nearest ``t`` that ``chain`` admits, its raise R and its cut C."""
    y = np.append(np.maximum(t[:-1], ALPHA_MIN * chain),
                  min(t[-1], chain[-1] * ALPHA_MIN / (1.0 - MAX_LAST_SURVIVAL)))
    y[1:-1] = np.minimum(y[1:-1], chain[:-1])
    moves = y - t
    return y, np.maximum(moves, 0.0).sum(), np.maximum(-moves, 0.0).sum()


def _chain(t: np.ndarray, weight: float) -> np.ndarray:
    """The least chain T_1 >= ... >= T_{n-1} minimizing R + ``weight`` C for
    ``t``. y is reproduced exactly when some chain has y_k >= ALPHA_MIN T_k
    (k < n), y_{k+1} <= T_k (k < n - 1) and y_n <= T_{n-1} c, c = ALPHA_MIN /
    (1 - MAX_LAST_SURVIVAL) (``band``); R raises groups to those floors and
    C cuts groups to those caps. So link T_k has slope ALPHA_MIN above t_k /
    ALPHA_MIN and ``weight`` below t_{k+1} (``weight`` c below t_n / c on the
    last link). The slope trick, O(n log n): from the last link back, each
    link's slope changes go on a max-heap, ALPHA_MIN of slope comes off the
    top, which is then the least minimizer; T_k is the least over 1..k."""
    from heapq import heappop, heappush, heapreplace
    cuts = np.append(t[1:-1], t[-1] * (1.0 - MAX_LAST_SURVIVAL) / ALPHA_MIN).tolist()
    raises = (t[:-1] / ALPHA_MIN).tolist()
    weights = [weight] * (len(cuts) - 1) + [weight * ALPHA_MIN / (1.0 - MAX_LAST_SURVIVAL)]
    heap, least = [], np.empty(len(cuts))
    for k in range(len(cuts) - 1, -1, -1):
        heappush(heap, (-cuts[k], weights[k]))
        heappush(heap, (-raises[k], ALPHA_MIN))
        excess = ALPHA_MIN
        while heap[0][1] <= excess:
            excess -= heappop(heap)[1]
        if excess:
            heapreplace(heap, (heap[0][0], heap[0][1] - excess))
        least[k] = -heap[0][0]
    return np.minimum.accumulate(least)


def nearest_reachable(dist) -> AgeDistribution:
    """The target nearest ``dist`` in mean absolute error (its L1 projection)
    among those ``solve`` reproduces: ``dist`` where it does. A raise of the
    first group or a cut to a floor moves no bound, so the least sum |y - t|
    is 2 min_T max(R, C) = 2 max_w min_T (R + w C) / (1 + w) (``_chain``). A
    cutting-plane search on w ends when the points of the chains either side
    of the best w, mixed so that raise equals cut, are within a relative
    1e-12 of it; where several targets are nearest, that mix is returned. It
    runs on the target times 2**128, exactly, so that subnormal groups keep
    their digits. Where no weight lies between the ends (every floor met, up
    to rounding, or an end balanced bit for bit), it ends on the last mix, or
    on ``dist`` before one. Last, the first n-1 groups are raised to
    ``band``'s lower edge times 1 + 4 eps, plus 4 subnormal steps, and
    renormalized."""
    dist = as_distribution(dist)
    t = np.ldexp(dist.proportions, 128)
    # Past these weights no least chain changes: it changes where i raise slopes
    # (ALPHA_MIN each) balance w times j in cut slopes, i < n, j < n - 2 + c (``_chain``).
    ends = (ALPHA_MIN * t.size, ALPHA_MIN / (t.size + ALPHA_MIN / (1.0 - MAX_LAST_SURVIVAL)))
    low, high = (_moved(t, _chain(t, weight)) for weight in ends)
    y = t
    for _ in range(64):
        (y_low, raise_low, cut_low), (y_high, raise_high, cut_high) = low, high
        over, under = raise_low - cut_low, cut_high - raise_high
        if min(over, under, cut_high - cut_low) <= 0.0:  # no weight lies between the ends
            break
        y = y_high + under / (over + under) * (y_low - y_high)
        weight = (raise_low - raise_high) / (cut_high - cut_low)
        bound = (raise_low * under + raise_high * over) / (over + under)  # y's cost / 2
        _, raised, cut = side = _moved(t, _chain(t, weight))
        if (raised + weight * cut) / (1.0 + weight) >= bound * (1.0 - 1e-12):
            break
        low, high = (side, high) if raised >= cut else (low, side)
    y = np.ldexp(y, -128)
    head = np.maximum(y[:-1], band(y)[0] * _FLOOR_MARGIN + _FLOOR_OFFSET)
    return normalize(np.append(head, y[-1]), dist.labels)


#: ``distributions.stationary_distribution``; rates of 1 give the plain process.
steady_state2 = stationary_distribution


def mae_objective(target) -> Callable[..., np.ndarray]:
    """Batched search objective for a fixed target distribution.

    Returns a function ``evaluate(candidates, scratch=None)`` mapping a
    (m, 2n) matrix of candidate (survival, activation) rows to a fresh
    array of the m mean absolute errors between each candidate's stationary
    profile (``distributions.stationary_profiles``, unguarded) and the target.
    The (m, n) profiles and (m, n-2) ratios it works in are contiguous
    views carved from ``scratch``, a C-contiguous float array of at least
    m (2n - 2) entries whose contents it overwrites (a (m, 2n) one does),
    or, without one, allocated for the call. The function keeps no state
    of its own, so threads may call one instance at once, each with its own
    scratch.
    """
    t = as_distribution(target).proportions
    n = t.size

    def evaluate(candidates: np.ndarray, scratch: Optional[np.ndarray] = None) -> np.ndarray:
        x = np.atleast_2d(np.asarray(candidates, dtype=float))
        m = x.shape[0]
        flat = np.empty(m * (2 * n - 2)) if scratch is None else scratch.reshape(-1)
        profiles = flat[: m * n].reshape(m, n)
        ratios = flat[m * n : m * (2 * n - 2)].reshape(m, n - 2)
        stationary_profiles(x[:, :n], x[:, n:], profiles, ratios)
        np.subtract(profiles, t, out=profiles)
        np.abs(profiles, out=profiles)
        return profiles.mean(axis=1)

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
    ``x`` is a tile of the search's 2n columns.

    ``max(2lo - x, x)`` picks the reflection exactly when ``x < lo``:
    rounding is monotone, so ``x >= lo`` gives ``fl(2lo - x) <= x``. The
    same holds for the upper side, and the final clamp catches reflections
    that overshoot the far bound. Rounding makes that happen: ``uniform``
    draws the mutation scale 0.5 + 0.5u, which is 1.0 for u = 1 - 2**-53,
    and with base = r1 = 1 and r2 = ALPHA_MIN in an activation column the
    mutant fl(1 + fl(1 - 0.001)) reflects off 1 to 0.0009999999999998899,
    below ALPHA_MIN. numpy's maximum and minimum return their second
    operand on ties, so ``x`` keeps its own signed zero as in the
    where/where/clip form, which this equals bit for bit. The final clamp
    stands in for that form's ``np.clip``. On a zero of the other sign at a
    bound, clip returns the bound when the bounds vary along numpy's inner
    loop, as they do along a tile's columns; ``maximum(x, lo)`` then
    ``minimum(x, hi)`` return it too, and skip clip's Python wrapper and
    generic loop, taking half its time at 101 groups. ``scratch`` has the
    shape of ``x``; ``doubled`` is ``(2 * lo, 2 * hi)``.
    """
    twice_lo, twice_hi = doubled
    np.subtract(twice_lo, x, out=scratch)
    np.maximum(scratch, x, out=x)
    np.subtract(twice_hi, x, out=scratch)
    np.minimum(scratch, x, out=x)
    np.maximum(x, lo, out=x)
    np.minimum(x, hi, out=x)


def _finite_scores(evaluate, candidates: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Objective values of ``candidates``, scored in ``scratch``, non-finite
    ones counted as +inf."""
    scores = np.asarray(evaluate(candidates, scratch), dtype=float)
    return np.where(np.isfinite(scores), scores, np.inf)


def _tiles(rows: slice, height: int) -> list:
    """``rows`` cut into the fewest contiguous tiles of at most ``height``
    rows, their lengths within one row of each other."""
    return parallel.split(rows, -(-(rows.stop - rows.start) // height))


def optimize(target, config: Optional[DEConfig] = None) -> Model2Solution:
    """Search survival and activation rates reproducing ``target``.

    Binomial-crossover differential evolution over the 2n-dimensional joint
    vector (dithered best/1/bin, see ``DEConfig``) with elitist selection,
    bounce-back repair into ``default_bounds`` and an early stop once the
    best mean absolute error drops below ``SUCCESS_THRESHOLD``.
    Deterministic for a given seed: every draw comes from one PCG64 stream
    in a fixed order, and selection replaces rows only once the whole
    generation is built.

    A generation is synchronous, so its trial rows are built in the row
    shares of ``parallel``. There is at most one share per tile, so default
    searches of up to 42 groups stay on the calling thread. The calling
    thread draws the mutation scale, the row pairs and the forced crossover
    components, and each share its rows of the crossover uniforms. A share
    works through its rows in tiles of ``TILE_ENTRIES`` entries: it draws a
    tile's crossover uniforms, gathers, mutates, reflects and crosses over
    its rows, scores them and writes into the trial buffer, for every row,
    the trial or, if the trial scores worse, the parent. Once every share
    has gathered from the parents, the trial buffer becomes the population
    and the old population the next trial buffer. Every row gets the same
    floats whatever the share count and the tile size, so results are
    bitwise independent of both. A search keeps two buffers of the
    population's size, the parents and the trial rows; the rest of a
    generation's work lives in each share's tile scratch (a tile's uniforms
    and mask), made once per call, in which the objective also scores the
    tile: the uniforms lie idle from crossover to selection. In
    ``tracemalloc`` a two-share search peaks at 12.0 MB at 101 groups (3030
    x 202 rows, 4.9 MB a buffer) and at 41.1 MB at 201 groups. Every share
    has its own tile, so at 101 groups the peak is 2.2 buffers on one
    share, 2.5 on two, 2.7 on four and 3.2 on six, where a share is one
    tile: the most shares it gets.

    Every share scores its rows with the search's one (stateless)
    ``mae_objective(target)``, a tile at a time in that tile's scratch, for
    the initial population and in every generation; the rows and scratch it
    is handed are views of buffers that the search overwrites afterwards.
    Non-convergence is reported through ``converged=False``, never raised.
    A non-finite objective value counts as ``+inf``: such a candidate never
    wins selection and never stops the search. The solution's ``history``
    holds the best error after initialisation and after each generation.

    Raises:
        ValueError, EmptyPopulation, InteriorZeroGroup, TooFewGroups: as
            ``distributions.as_distribution`` raises them for a raw vector.
    """
    cfg = config if config is not None else DEConfig()
    target = as_distribution(target)
    n = len(target)
    dim = 2 * n
    lo, hi = default_bounds(n).T.copy()
    doubled = (2.0 * lo, 2.0 * hi)
    pop_size = cfg.population_size or 15 * dim
    height = max(1, TILE_ENTRIES // dim)
    shares = parallel.shares(pop_size, height)
    objective = mae_objective(target)
    tiles = [_tiles(rows, height) for rows in shares]

    rng = np.random.default_rng(cfg.seed)
    population = rng.uniform(lo, hi, size=(pop_size, dim))
    # A generator per share for its rows of the crossover uniforms; every
    # generation jumps it ahead to them on the calling thread's stream.
    streams = [np.random.Generator(np.random.PCG64(cfg.seed)) for _ in shares]
    skips = [rows.start * dim for rows in shares]

    # The trial rows, then the next generation. Each share's tile scratch
    # holds the crossover uniforms, then the second gather, the
    # reflection's scratch and the objective's profiles and ratios, and
    # the keep-parent mask. The row indices are always in range;
    # mode="clip" only spares np.take a temporary copy of its output.
    trials = np.empty_like(population)
    spare = [np.empty((max(tile.stop - tile.start for tile in share), dim)) for share in tiles]
    keep = [np.empty(gather.shape, dtype=bool) for gather in spare]
    errors = np.empty(pop_size)
    local = np.arange(max(map(len, spare)))

    def score(k):
        for rows in tiles[k]:
            errors[rows] = _finite_scores(objective, population[rows], spare[k])

    def build(k):
        # Reads this generation's draws (factor, base, r1, r2, forced, its
        # positioned stream) and the unchanged population; writes only
        # share k's rows of the trial buffer and of the errors.
        for rows in tiles[k]:
            out, parents = trials[rows], population[rows]
            gather, mask = spare[k][: len(out)], keep[k][: len(out)]
            streams[k].random(out=gather)
            np.greater_equal(gather, CROSSOVER_RATE, out=mask)
            mask[local[: len(out)], forced[rows]] = False
            np.take(population, r1[rows], axis=0, out=out, mode="clip")
            np.take(population, r2[rows], axis=0, out=gather, mode="clip")
            np.subtract(out, gather, out=out)
            np.multiply(out, factor, out=out)
            np.add(out, base, out=out)
            _bounce_back(out, lo, hi, gather, doubled)
            np.putmask(out, mask, parents)
            scores = _finite_scores(objective, out, gather)
            # A trial replaces its parent unless it scores worse. No score is
            # NaN (``_finite_scores``) or -0.0 (a mean of |x|): ">" negates "<=".
            np.copyto(out, parents, where=(scores > errors[rows])[:, None])
            np.minimum(errors[rows], scores, out=errors[rows])

    with parallel.runner(len(shares)) as run:
        run(score)
        history = [float(errors.min())]

        iterations = 0
        while history[-1] >= SUCCESS_THRESHOLD and iterations < cfg.max_iterations:
            factor = rng.uniform(*MUTATION_RANGE)
            r1, r2 = _distinct_pairs(rng, pop_size)
            base = population[int(errors.argmin())]
            parallel.position(rng, streams, skips, pop_size * dim)
            forced = rng.integers(0, dim, size=pop_size)
            run(build)
            population, trials = trials, population
            iterations += 1
            history.append(float(errors.min()))

    best = int(errors.argmin())
    mae = float(errors[best])
    return Model2Solution(
        survival=SurvivalVector(population[best, :n]),
        activation=ActivationVector(population[best, n:]),
        mae=mae,
        iterations_used=iterations,
        converged=mae < SUCCESS_THRESHOLD,
        history=tuple(history),
    )
