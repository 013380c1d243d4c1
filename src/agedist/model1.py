"""Closed-form solver for the plain ageing process.

An agent in group i survives a step with probability p_i; survivors advance
one group (the last group retains its survivors) and every death is replaced
by a new agent in the first group. For a monotone non-increasing target the
survival probabilities that make the target the stationary profile have a
closed form, with the last-group survival p_n left free inside a feasibility
interval.

The stationary law of both processes lives in ``distributions``; this
module keeps only the closed form and ``steady_state``, a call into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import (
    MAX_LAST_SURVIVAL,
    AgeDistribution,
    Classification,
    SurvivalVector,
    as_distribution,
    check_seed,
    classify,
    stationary_distribution,
)
from .errors import DegenerateLastGroup, FreeParamOutOfRange, NotModel1Eligible


@dataclass(frozen=True)
class FeasibleInterval:
    """Admissible range (Python floats) for the free last-group survival."""

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
        ValueError, EmptyPopulation, InteriorZeroGroup, TooFewGroups,
        DegenerateLastGroup: as for ``solve``.
    """
    props = as_distribution(dist).proportions
    if classify(props) is Classification.NON_MONOTONE:
        bad = np.nonzero(np.diff(props[:-1]) > 0)[0] + 1
        raise NotModel1Eligible(
            f"proportions increase at group indices {[int(i) for i in bad]}")
    lower = 0.0 if props[-2] >= props[-1] else float(1.0 - props[-2] / props[-1])
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
        ValueError, EmptyPopulation, InteriorZeroGroup, TooFewGroups: as
            ``distributions.as_distribution`` raises them for a raw vector.
        NotModel1Eligible: the target is not monotone non-increasing.
        DegenerateLastGroup: the last group is more than
            1/(1 - MAX_LAST_SURVIVAL) times the one before it.
        FreeParamOutOfRange: an explicit ``p_n`` lies outside the interval.
        ValueError: ``p_n`` is "rand" without a valid ``seed``, an unknown
            mode or a bool.
    """
    dist = as_distribution(dist)
    interval = feasibility(dist)
    if isinstance(p_n, str):
        if p_n == "mid":
            value = interval.midpoint
        elif p_n == "rand":
            if seed is None:
                raise ValueError("p_n='rand' requires a seed")
            value = float(np.random.default_rng(check_seed(seed)).uniform(
                interval.lower, interval.upper
            ))
        else:
            raise ValueError(f"unknown free-parameter mode {p_n!r}")
    elif isinstance(p_n, (bool, np.bool_)):
        raise ValueError(f"free parameter must be a number, 'mid' or 'rand', not {p_n!r}")
    else:
        # Adding +0.0 turns -0.0 into +0.0 and keeps every other value.
        value = float(p_n) + 0.0
        if not interval.contains(value):
            raise FreeParamOutOfRange(
                f"p_n={value!r} outside [{interval.lower!r}, {interval.upper!r}]"
            )

    props = dist.proportions
    n = props.size
    p = np.empty(n)
    p[: n - 2] = props[1 : n - 1] / props[: n - 2]
    # Rounding can push the compensating entry a few ulp past 1 when p_n sits
    # exactly on the interval's lower bound.
    p[n - 2] = min((1.0 - value) * props[n - 1] / props[n - 2], 1.0)
    p[n - 1] = value
    return SurvivalVector(p)


def steady_state(p, labels=None) -> AgeDistribution:
    """``distributions.stationary_distribution`` of the plain process."""
    return stationary_distribution(p, None, labels)
