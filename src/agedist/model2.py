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
profile and the target.
"""

from __future__ import annotations

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
from .errors import (
    ActivationTooSmall,
    DegenerateLastGroup,
    InteriorZeroGroup,
    ResidualCheckFailed,
)

#: Residual ceiling for the first-group balance check in steady_state2().
BALANCE_TOLERANCE = 1e-10


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
        if not 0 <= int(self.seed) < 2**64:
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
    """Stationary age distribution of the activation-rate process.

    Forward recursion N_1 = 1, N_{i+1} = (alpha_i p_i / alpha_{i+1}) N_i for
    intermediate groups and
    N_n = alpha_{n-1} p_{n-1} N_{n-1} / (alpha_n (1 - p_n)), normalized.
    The recursion enforces all but one row of the (rank n-1) stationarity
    system; the remaining first-group balance
    alpha_1 p_1 N_1 = sum_j alpha_j (1 - p_j) N_j is checked as a residual.

    With all activation rates equal to 1 this reproduces the plain process
    bit for bit.
    """
    raw = np.asarray(p, dtype=float)
    if raw.size and raw[-1] >= 1.0:
        raise DegenerateLastGroup(
            f"last-group survival {raw[-1]!r} leaves the final group with no outflow"
        )
    sv = p if isinstance(p, SurvivalVector) else SurvivalVector(raw)
    av = alpha if isinstance(alpha, ActivationVector) else ActivationVector(
        np.asarray(alpha, dtype=float)
    )
    probs, rates = sv.probs, av.rates
    if probs.size != rates.size:
        raise ValueError(
            f"survival has {probs.size} entries, activation has {rates.size}"
        )
    n = probs.size
    if np.any(probs[: n - 1] == 0.0):
        idx = int(np.nonzero(probs[: n - 1] == 0.0)[0][0])
        raise InteriorZeroGroup(
            f"survival of 0 in group {idx} empties every later group"
        )

    weights = np.empty(n)
    weights[0] = 1.0
    for i in range(n - 2):
        weights[i + 1] = (rates[i] * probs[i] / rates[i + 1]) * weights[i]
    weights[n - 1] = (
        rates[n - 2] * probs[n - 2] * weights[n - 2]
        / (rates[n - 1] * (1.0 - probs[n - 1]))
    )
    dist = weights / weights.sum()

    inflow = rates[0] * probs[0] * dist[0]
    outflow = float(np.sum(rates[1:] * (1.0 - probs[1:]) * dist[1:]))
    if abs(inflow - outflow) >= BALANCE_TOLERANCE:
        raise ResidualCheckFailed(
            f"first-group balance residual {abs(inflow - outflow):g} exceeds "
            f"{BALANCE_TOLERANCE:g}"
        )
    return AgeDistribution(labels if labels is not None else default_labels(n), dist)


def mae_objective(target) -> Callable[[np.ndarray], np.ndarray]:
    """Batched search objective for a fixed target distribution.

    Returns a function mapping a (m, 2n) matrix of candidate
    (survival, activation) rows to a fresh array of the m mean absolute
    errors between each candidate's stationary profile and the target.
    Mirrors steady_state2 without the balance check (which the recursion
    satisfies by construction) so that whole populations evaluate in one
    shot. The function keeps its (m, n) scratch between calls of the same
    row count, so one instance must not be called from two threads at once.
    """
    t = proportions_of(target)
    n = t.size
    ratios = weights = None

    def evaluate(candidates: np.ndarray) -> np.ndarray:
        nonlocal ratios, weights
        x = np.atleast_2d(np.asarray(candidates, dtype=float))
        if weights is None or weights.shape[0] != x.shape[0]:
            ratios = np.empty((x.shape[0], n - 2))
            weights = np.empty((x.shape[0], n))
        probs, rates = x[:, :n], x[:, n:]
        weights[:, 0] = 1.0
        np.multiply(rates[:, : n - 2], probs[:, : n - 2], out=ratios)
        np.divide(ratios, rates[:, 1 : n - 1], out=ratios)
        np.cumprod(ratios, axis=1, out=weights[:, 1 : n - 1])
        weights[:, n - 1] = (
            rates[:, n - 2] * probs[:, n - 2] * weights[:, n - 2]
            / (rates[:, n - 1] * (1.0 - probs[:, n - 1]))
        )
        np.divide(weights, weights.sum(axis=1, keepdims=True), out=weights)
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
                 scratch: np.ndarray) -> None:
    """Reflect out-of-bounds components of ``x`` back into the box, in place.

    ``max(2lo - x, x)`` picks the reflection exactly when ``x < lo``:
    rounding is monotone, so ``x >= lo`` gives ``fl(2lo - x) <= x``. The
    same holds for the upper side, and the final clip catches reflections
    that overshoot the far bound. numpy's maximum and minimum return their
    second operand on ties, so ``x`` keeps its own signed zero as in the
    where/where/clip form, which this equals bit for bit. ``scratch`` has
    the shape of ``x``.
    """
    np.subtract(2.0 * lo, x, out=scratch)
    np.maximum(scratch, x, out=x)
    np.subtract(2.0 * hi, x, out=scratch)
    np.minimum(scratch, x, out=x)
    np.clip(x, lo, hi, out=x)


def _finite_scores(evaluate, candidates: np.ndarray) -> np.ndarray:
    """Objective values of ``candidates``, non-finite ones counted as +inf."""
    scores = np.asarray(evaluate(candidates), dtype=float)
    return np.where(np.isfinite(scores), scores, np.inf)


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
    Deterministic for a given seed: one generator drives every draw and the
    population update is sequential. A generation allocates nothing of the
    population's size: the population, trial rows, crossover draws and the
    objective's scratch live in buffers made once per call.

    Non-convergence is reported through ``converged=False``, never raised.
    A non-finite objective value counts as ``+inf``: such a candidate never
    wins selection and never stops the search. ``objective`` replaces the
    batched scorer (testing hook). The candidate matrix it receives is a
    buffer that the search overwrites afterwards, so a hook that keeps
    candidates must copy them. ``history`` receives the best error after
    initialisation and after each generation.
    """
    cfg = config if config is not None else DEConfig()
    t = proportions_of(target)
    n = t.size
    dim = 2 * n
    bounds = cfg.resolved_bounds(n)
    lo, hi = bounds[:, 0].copy(), bounds[:, 1].copy()
    pop_size = cfg.population_size or 15 * dim
    f_low, f_high = cfg.mutation_range()
    evaluate = objective if objective is not None else mae_objective(t)

    rng = np.random.default_rng(cfg.seed)
    population = rng.uniform(lo, hi, size=(pop_size, dim))
    errors = _finite_scores(evaluate, population)
    if history is not None:
        history.append(float(errors.min()))

    # Every generation writes into this workspace: trial rows, a second
    # gather buffer, the crossover uniforms and the keep-parent mask. The
    # row indices are always in range; mode="clip" only spares np.take a
    # temporary copy of its output.
    trials = np.empty_like(population)
    spare = np.empty_like(population)
    uniforms = np.empty_like(population)
    keep = np.empty(population.shape, dtype=bool)
    rows = np.arange(pop_size)

    iterations = 0
    while errors.min() >= cfg.success_threshold and iterations < cfg.max_iterations:
        factor = f_low if f_low == f_high else rng.uniform(f_low, f_high)
        if cfg.strategy == "best1bin":
            r1, r2 = _distinct_rows(rng, pop_size, 2)
            base = population[int(errors.argmin())]
        else:
            base_idx, r1, r2 = _distinct_rows(rng, pop_size, 3)
            # ``uniforms`` is free until the crossover draw below.
            base = np.take(population, base_idx, axis=0, out=uniforms, mode="clip")
        np.take(population, r1, axis=0, out=trials, mode="clip")
        np.take(population, r2, axis=0, out=spare, mode="clip")
        np.subtract(trials, spare, out=trials)
        np.multiply(trials, factor, out=trials)
        np.add(trials, base, out=trials)
        _bounce_back(trials, lo, hi, spare)
        rng.random(out=uniforms)
        np.greater_equal(uniforms, cfg.crossover_rate, out=keep)
        keep[rows, rng.integers(0, dim, size=pop_size)] = False
        np.copyto(trials, population, where=keep)
        trial_errors = _finite_scores(evaluate, trials)
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
