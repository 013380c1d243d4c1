"""Closed-form solver for the plain ageing process.

An agent in group i survives a step with probability p_i; survivors advance
one group (the last group retains its survivors) and every death is replaced
by a new agent in the first group. For a monotone non-increasing target the
survival probabilities that make the target the stationary profile have a
closed form, with the last-group survival p_n left free inside a feasibility
interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .distributions import (
    MAX_LAST_SURVIVAL,
    AgeDistribution,
    Classification,
    SurvivalVector,
    classify,
    default_labels,
    proportions_of,
)
from .errors import (
    DegenerateLastGroup,
    FreeParamOutOfRange,
    InteriorZeroGroup,
    NotModel1Eligible,
    ResidualCheckFailed,
)

#: Residual ceiling for the stationarity check in steady_state().
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


@dataclass(frozen=True)
class InfeasibleReport:
    """Indices (0-based) of every group larger than its predecessor."""

    violations: tuple


def feasibility(dist) -> Union[FeasibleInterval, InfeasibleReport]:
    """Feasibility gate for the closed-form solver.

    Returns the admissible interval for the free parameter when the target is
    monotone non-increasing over its first n-1 groups, otherwise a report of
    the offending indices. The interval's lower bound `1 - N_{n-1}/N_n` is
    clamped to 0 (it is negative whenever the second-to-last group is the
    larger one, and the ratio is then not formed, since it overflows for a
    last group near underflow); the upper bound stays strictly below 1.
    """
    props = proportions_of(dist)
    if classify(props) is Classification.NON_MONOTONE:
        bad = np.nonzero(np.diff(props[:-1]) > 0)[0] + 1
        return InfeasibleReport(tuple(int(i) for i in bad))
    lower = 0.0 if props[-2] >= props[-1] else 1.0 - props[-2] / props[-1]
    return FeasibleInterval(lower, MAX_LAST_SURVIVAL)


def solve(dist, p_n="mid", *, seed: Optional[int] = None) -> SurvivalVector:
    """Survival probabilities whose steady state equals ``dist`` exactly.

    ``p_n`` selects the free last-group survival: an explicit value inside
    the feasible interval, ``"mid"`` for the interval midpoint (the
    deterministic default) or ``"rand"`` for a seeded uniform draw from the
    interval (``seed`` is then required).

    Raises:
        NotModel1Eligible: the target is not monotone non-increasing.
        FreeParamOutOfRange: an explicit ``p_n`` lies outside the interval.
    """
    interval = feasibility(dist)
    if isinstance(interval, InfeasibleReport):
        raise NotModel1Eligible(
            f"proportions increase at group indices {list(interval.violations)}"
        )
    if isinstance(p_n, str):
        if p_n in ("mid", "midpoint"):
            value = interval.midpoint
        elif p_n in ("rand", "random"):
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
    """Stationary age distribution of the plain ageing process.

    Computed by the forward recursion N_1 = 1, N_{i+1} = p_i N_i for the
    intermediate groups and N_n = p_{n-1} N_{n-1} / (1 - p_n), then
    normalized. Every row of the full stationarity system is then evaluated
    on the result as a transcription guard.

    Raises:
        DegenerateLastGroup: the last survival probability is >= 1.
        ResidualCheckFailed: the result misses a stationarity equation by
            ``RESIDUAL_TOLERANCE`` or more.
    """
    raw = np.asarray(p, dtype=float)
    if raw.size and raw[-1] >= 1.0:
        raise DegenerateLastGroup(
            f"last-group survival {raw[-1]!r} leaves the final group with no outflow"
        )
    sv = p if isinstance(p, SurvivalVector) else SurvivalVector(raw)
    probs = sv.probs
    n = probs.size
    if np.any(probs[: n - 1] == 0.0):
        idx = int(np.nonzero(probs[: n - 1] == 0.0)[0][0])
        raise InteriorZeroGroup(
            f"survival of 0 in group {idx} empties every later group"
        )

    weights = np.empty(n)
    weights[0] = 1.0
    for i in range(n - 2):
        weights[i + 1] = probs[i] * weights[i]
    weights[n - 1] = probs[n - 2] * weights[n - 2] / (1.0 - probs[n - 1])
    dist = weights / weights.sum()

    _check_residual(probs, dist)
    return AgeDistribution(labels if labels is not None else default_labels(n), dist)


def stationarity_matrix(probs: np.ndarray) -> np.ndarray:
    """Full linear system whose null vector is the stationary profile.

    Row 0 balances the first group's outflow against the deaths replaced
    into it; row i says group i is fed entirely by survivors of group i-1;
    the last row balances final-group inflow against its deaths.
    """
    probs = np.asarray(probs, dtype=float)
    n = probs.size
    m = np.zeros((n, n))
    m[0, 0] = -probs[0]
    m[0, 1:] = 1.0 - probs[1:]
    for i in range(1, n - 1):
        m[i, i - 1] = probs[i - 1]
        m[i, i] = -1.0
    m[n - 1, n - 2] = probs[n - 2]
    m[n - 1, n - 1] = -(1.0 - probs[n - 1])
    return m


def _check_residual(probs: np.ndarray, dist: np.ndarray) -> None:
    residual = stationarity_matrix(probs) @ dist
    worst = float(np.abs(residual).max())
    if worst >= RESIDUAL_TOLERANCE:
        raise ResidualCheckFailed(
            f"stationarity residual {worst:g} exceeds {RESIDUAL_TOLERANCE:g}"
        )
