"""Closed-form solver for the plain ageing process.

An agent in group i survives a step with probability p_i; survivors advance
one group (the last group retains its survivors) and every death is replaced
by a new agent in the first group. For a monotone non-increasing target the
survival probabilities that make the target the stationary profile have a
closed form, with the last-group survival p_n left free inside a feasibility
interval.

The steady state of both processes comes from one batched kernel,
``stationary_profiles``, over rows of survival and activation rates; the
plain process is the activation-rate process with every rate 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import (
    MAX_LAST_SURVIVAL,
    ActivationVector,
    AgeDistribution,
    Classification,
    SurvivalVector,
    classify,
    default_labels,
    proportions_of,
    solver_proportions,
)
from .errors import (
    DegenerateLastGroup,
    FreeParamOutOfRange,
    InteriorZeroGroup,
    NotModel1Eligible,
    ResidualCheckFailed,
)

#: Ceiling on the largest entry of stationarity_residual(), checked in
#: steady_state() and model2.steady_state2().
RESIDUAL_TOLERANCE = 1e-10


@dataclass(frozen=True)
class FeasibleInterval:
    """Admissible range for the free last-group survival probability."""

    lower: float
    upper: float

    def __post_init__(self):
        if not 0.0 <= self.lower <= self.upper <= 1.0:
            raise ValueError(f"invalid interval [{self.lower}, {self.upper}]")

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


def feasibility(dist) -> FeasibleInterval:
    """Admissible interval for the closed-form solver's free parameter.

    The lower bound `1 - N_{n-1}/N_n` is clamped to 0 (it is negative
    whenever the second-to-last group is the larger one, and the ratio is
    then not formed, since it overflows for a last group near underflow);
    the upper bound stays strictly below 1.

    Raises:
        NotModel1Eligible: the first n-1 groups are not monotone
            non-increasing; the message names each group index (0-based)
            larger than its predecessor.
        InteriorZeroGroup, TooFewGroups, DegenerateLastGroup: as for
            ``solve``.
    """
    props = solver_proportions(dist)
    if classify(props) is Classification.NON_MONOTONE:
        bad = np.nonzero(np.diff(props[:-1]) > 0)[0] + 1
        raise NotModel1Eligible(
            f"proportions increase at group indices {[int(i) for i in bad]}")
    lower = 0.0 if props[-2] >= props[-1] else 1.0 - props[-2] / props[-1]
    if lower > MAX_LAST_SURVIVAL:
        raise DegenerateLastGroup(
            "last group is more than 1/(1 - MAX_LAST_SURVIVAL) = "
            f"{1.0 / (1.0 - MAX_LAST_SURVIVAL):.4g} times the one before it "
            f"(its survival would be at least {lower!r})")
    return FeasibleInterval(lower, MAX_LAST_SURVIVAL)


def solve(dist, p_n="mid", *, seed: Optional[int] = None) -> SurvivalVector:
    """Survival probabilities whose steady state equals ``dist`` exactly.

    ``p_n`` selects the free last-group survival: an explicit value inside
    the feasible interval, ``"mid"`` for the interval midpoint (the
    deterministic default) or ``"rand"`` for a seeded uniform draw from the
    interval (``seed`` is then required).

    Raises:
        InteriorZeroGroup: a raw vector has an empty group before a
            non-empty one.
        TooFewGroups: a raw vector has fewer than three groups.
        NotModel1Eligible: the target is not monotone non-increasing.
        DegenerateLastGroup: the last group is more than
            1/(1 - MAX_LAST_SURVIVAL) times the one before it.
        FreeParamOutOfRange: an explicit ``p_n`` lies outside the interval.
    """
    interval = feasibility(dist)
    if isinstance(p_n, str):
        if p_n == "mid":
            value = interval.midpoint
        elif p_n == "rand":
            if seed is None:
                raise ValueError("p_n='rand' requires a seed")
            value = float(np.random.default_rng(seed).uniform(
                interval.lower, interval.upper
            ))
        else:
            raise ValueError(f"unknown free-parameter mode {p_n!r}")
    else:
        value = float(p_n)
        if not interval.contains(value):
            raise FreeParamOutOfRange(
                f"p_n={value!r} outside [{interval.lower!r}, {interval.upper!r}]"
            )

    props = proportions_of(dist)
    n = props.size
    p = np.empty(n)
    p[: n - 2] = props[1 : n - 1] / props[: n - 2]
    # Rounding can push the compensating entry a few ulp past 1 when p_n sits
    # exactly on the interval's lower bound.
    p[n - 2] = min((1.0 - value) * props[n - 1] / props[n - 2], 1.0)
    p[n - 1] = value
    return SurvivalVector(p)


def steady_state(p, labels=None) -> AgeDistribution:
    """Stationary age distribution of the plain ageing process: the
    ``stationary_profiles`` recursion with every activation rate 1, checked
    against every equation of the stationarity system (in O(n)).

    Raises:
        DegenerateLastGroup: the last survival probability is >= 1.
        InteriorZeroGroup: an intermediate survival probability is 0.
        ResidualCheckFailed: the result misses a stationarity equation by
            ``RESIDUAL_TOLERANCE`` or more.
    """
    return _steady_state(p, None, labels)


def stationary_profiles(probs: np.ndarray, rates: np.ndarray, out: np.ndarray,
                        ratios: Optional[np.ndarray] = None) -> np.ndarray:
    """Stationary profiles of (m, n) survival and activation rows, written
    into ``out`` (m, n) and returned.

    The active mass alpha_i N_i obeys m_{i+1} = p_i m_i over the
    intermediate groups, so row by row N_1 = 1,
    N_{i+1} = (alpha_i p_i / alpha_{i+1}) N_i and
    N_n = alpha_{n-1} p_{n-1} N_{n-1} / (alpha_n (1 - p_n)), normalized.
    Rates of 1 give the plain process bit for bit. The group-to-group
    ratios are formed in ``ratios``, a contiguous (m, n-2) scratch (made
    when absent): dividing in place into a column slice of ``out`` is
    slower.
    """
    n = probs.shape[1]
    if ratios is None:
        ratios = np.empty((probs.shape[0], n - 2))
    inner = out[:, 1 : n - 1]
    out[:, 0] = 1.0
    np.multiply(rates[:, : n - 2], probs[:, : n - 2], out=ratios)
    np.divide(ratios, rates[:, 1 : n - 1], out=ratios)
    np.cumprod(ratios, axis=1, out=inner)
    out[:, n - 1] = (
        rates[:, n - 2] * probs[:, n - 2] * out[:, n - 2]
        / (rates[:, n - 1] * (1.0 - probs[:, n - 1]))
    )
    return np.divide(out, out.sum(axis=1, keepdims=True), out=out)


def _steady_state(p, alpha, labels) -> AgeDistribution:
    """Guarded steady state of either process (``alpha`` None: plain)."""
    raw = np.asarray(p, dtype=float)
    if raw.size and raw[-1] >= 1.0:
        raise DegenerateLastGroup(
            f"last-group survival {raw[-1]!r} leaves the final group with no outflow"
        )
    probs = SurvivalVector(raw).probs
    n = probs.size
    rates = np.ones(n) if alpha is None else ActivationVector(alpha).rates
    if rates.size != n:
        raise ValueError(f"survival has {n} entries, activation has {rates.size}")
    if np.any(probs[: n - 1] == 0.0):
        idx = int(np.nonzero(probs[: n - 1] == 0.0)[0][0])
        raise InteriorZeroGroup(
            f"survival of 0 in group {idx} empties every later group"
        )

    dist = stationary_profiles(probs[None], rates[None], np.empty((1, n)))[0]
    worst = float(np.abs(stationarity_residual(probs, rates, dist)).max())
    if worst >= RESIDUAL_TOLERANCE:
        raise ResidualCheckFailed(
            f"stationarity residual {worst:g} exceeds {RESIDUAL_TOLERANCE:g}"
        )
    return AgeDistribution(labels if labels is not None else default_labels(n), dist)


def stationarity_residual(probs, rates, profile) -> np.ndarray:
    """(E - I) profile in O(n), E the expected one-step update. With active
    mass y = alpha N and advances m = p y, row 0 is
    sum_{j>=1} (y_j - m_j) - m_0 (deaths replaced into the first group
    against its advances), row i is m_{i-1} - y_i, and the last row adds
    back m_{n-1}, the survivors the last group keeps."""
    active = rates * profile
    advanced = probs * active
    residual = np.empty_like(active)
    residual[0] = np.sum(active[1:] - advanced[1:]) - advanced[0]
    np.subtract(advanced[:-1], active[1:], out=residual[1:])
    residual[-1] += advanced[-1]
    return residual
