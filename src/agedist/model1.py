"""Model 1, the plain ageing process, is ``model2``'s member with every
activation 1 (``model2.member`` with m = N). This module keeps the two
names that the benchmark reads: ``solve`` and ``steady_state``.
"""

from __future__ import annotations

from typing import Optional

from . import model2
from .distributions import SurvivalVector, as_distribution, stationary_distribution


def solve(dist, p_n="mid", *, seed: Optional[int] = None) -> SurvivalVector:
    """The survival rates of ``model2.member(dist, N, p_n, seed=seed)``,
    once ``model2.feasibility`` has refused a target that is not monotone
    non-increasing (NotModel1Eligible) or whose last group is too large."""
    dist = as_distribution(dist)
    model2.feasibility(dist)
    return model2.member(dist, dist.proportions, p_n, seed=seed)[0]


#: ``distributions.stationary_distribution``, whose default is the plain process.
steady_state = stationary_distribution
