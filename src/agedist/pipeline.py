"""Model-selection cascade and dataset-level batch driver.

One station, ``solve``, takes any target to its route: the model-2 closed
form (``model2.solve``) on the target itself when its ``model2.band`` is
not empty, else on the nearest target it reaches
(``model2.nearest_reachable``). Model 1 is its member with every
activation 1, which a monotone target gets. The paper's activation-rate
search and curve fit stay available (``model2.optimize``,
``curvefit.fit``), but the cascade calls neither: no model-2 steady state
or curve fit is closer to the target than the L1 projection, which is
the nearest reachable target. The cascade and the command
line's ``classify`` and ``solve`` all call the station, and the route of
its ``Solution`` is set where the station decides it. ``run_dataset``,
the one validated entry, checks every solved parameter set against its
own analytic steady state with one stochastic run, all in one
``simulator.run_many`` batch that draws their shared uniform stream once.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

import numpy as np

from . import model2, simulator
from .distributions import (  # noqa: F401 (classify: bench/run.py's tracer wraps it here)
    AgeDistribution,
    ModelKind,
    ModelParams,
    _Value,
    check_seed,
    classify,
    mean_absolute_error,
    wasserstein,
)
from .errors import (
    ActivationTooSmall,
    AgedistError,
    DegenerateLastGroup,
    EmptyDataset,
    InvalidEntry,
)

logger = logging.getLogger("agedist")

#: Nearest-reachable entries that moved their target by a Wasserstein
#: distance above this are flagged (reported, never rejected).
DEFAULT_WASSERSTEIN_WARN = 0.0055


class Route(Enum):
    MODEL1 = "model1"
    MODEL2 = "model2"
    NEAREST_REACHABLE = "nearest_reachable"
    FAILED = "failed"


@dataclass(frozen=True)
class Solution:
    """One target solved by ``solve``: its route, parameters and their steady state."""

    route: Route
    params: ModelParams
    analytic: AgeDistribution


@dataclass(frozen=True, eq=False)
class CountryResult(_Value):
    solution: Optional[Solution] = None
    failure_reason: Optional[str] = None
    sim_mae: Optional[float] = None
    #: Steady-state estimate from the validation run (proportions).
    sim_estimate: Optional[np.ndarray] = None

    @property
    def route(self) -> Route:
        return Route.FAILED if self.solution is None else self.solution.route


@dataclass(frozen=True)
class PipelineReport:
    per_country: dict
    route_counts: dict
    #: name -> Wasserstein distance from the original to the target solved,
    #: for every nearest-reachable entry (histogram data).
    nearest_reachable_wasserstein: dict
    mean_wasserstein: Optional[float]
    #: Nearest-reachable entries whose distance exceeds the warning threshold.
    flagged: tuple = field(default_factory=tuple)


def solve(dist: AgeDistribution, p_n="mid", *, seed: Optional[int] = None) -> Solution:
    """The one station, for any target: ``model2.solve`` (``p_n`` and
    ``seed`` as there) on ``dist``, or where it rejects ``dist`` on its
    nearest reachable target (route NEAREST_REACHABLE). A target solved as
    given is MODEL1 when every activation is exactly 1, as only a monotone
    one's are, and MODEL2 otherwise. Every route records the ``mae``
    against ``dist`` and the ``free_param_mode`` ("midpoint", "rand" with
    its ``seed``, or "explicit"); all but MODEL1 add the ``solver``
    ("closed_form", or "nearest_reachable" with the
    ``wasserstein_to_original`` it moved) and the smallest activation.
    InvalidEntry: ``dist`` is not an AgeDistribution."""
    if not isinstance(dist, AgeDistribution):
        raise InvalidEntry(f"expected an AgeDistribution, got {type(dist).__name__} "
                           "(build one with normalize())")

    route, diagnostics = Route.MODEL2, {"solver": "closed_form"}
    try:
        survival, activation = model2.solve(dist, p_n, seed=seed)
    except (ActivationTooSmall, DegenerateLastGroup):
        reachable = model2.nearest_reachable(dist)
        route, diagnostics = Route.NEAREST_REACHABLE, {
            "solver": "nearest_reachable", "wasserstein_to_original": wasserstein(reachable, dist)}
        survival, activation = model2.solve(reachable, p_n, seed=seed)
    analytic = model2.steady_state2(survival, activation, labels=dist.labels)
    # model2.solve has rejected every other string.
    mode = "explicit" if not isinstance(p_n, str) else "midpoint" if p_n == "mid" else "rand"
    free = {"free_param_mode": mode, **({"seed": check_seed(seed)} if mode == "rand" else {})}
    mae = mean_absolute_error(analytic, dist)
    if route is Route.MODEL2 and (activation.rates == 1.0).all():
        params = ModelParams(ModelKind.MODEL1, survival, activation, {"mae": mae, **free})
        return Solution(Route.MODEL1, params, analytic)
    diagnostics.update(min_activation=float(activation.rates.min()), **free, mae=mae)
    return Solution(route, ModelParams(ModelKind.MODEL2, survival, activation,
                                       diagnostics=diagnostics), analytic)


def _pair(index: int, entry) -> tuple:
    """Dataset entry ``index`` as a (name, distribution) pair with a str name."""
    try:
        name, dist = entry
    except (TypeError, ValueError):
        raise InvalidEntry(f"dataset entry {index} is not a (name, distribution) pair: "
                           f"{type(entry).__name__}") from None
    if not isinstance(name, str):
        raise InvalidEntry(f"dataset entry {index} has a name that is not a str: "
                           f"{type(name).__name__}")
    return name, dist


def run_dataset(dataset, sim_config: Optional[simulator.SimConfig] = None) -> PipelineReport:
    """Apply the cascade to every (name, distribution) entry.

    Every entry is solved first, then all solved entries are validated in
    one ``simulator.run_many`` batch; the report's solutions hold new
    parameter sets whose diagnostics carry their ``sim_mae``. Each entry's
    validation is bit for bit the run a dataset of that entry alone gets, so
    ``[(name, dist)]`` solves and validates one target. The report is sorted
    by name. Per-entry failures, including an entry that is not an
    AgeDistribution, are recorded with route FAILED and never abort the
    batch. A failed validation batch (such as the simulator's step guard
    raising ResidualCheckFailed, which names the member) records every
    solved entry as FAILED with its reason: a broken update rule is not
    specific to one entry. Nearest-reachable entries that moved their target
    by more than ``DEFAULT_WASSERSTEIN_WARN`` are flagged.

    Raises:
        EmptyDataset: no entries were supplied.
        InvalidEntry: an entry is not a (name, distribution) pair, or its
            name is not a str; the message names its index (checked before
            any solve).
        AgedistError: two entries share a name (checked before any solve).
    """
    entries = [_pair(index, entry) for index, entry in enumerate(dataset)]
    if not entries:
        raise EmptyDataset("no distributions to process")
    repeated = [name for name, count in Counter(name for name, _ in entries).items()
                if count > 1]
    if repeated:
        raise AgedistError(f"entry name(s) {repeated} appear more than once; "
                           "every entry needs its own name")

    solved, failures = {}, {}
    for name, dist in entries:
        try:
            solved[name] = solve(dist)
        except AgedistError as exc:
            logger.warning("%s: %s", name, exc)
            failures[name] = str(exc)
    try:
        runs = simulator.run_many([solution.analytic for solution in solved.values()],
                                  [solution.params for solution in solved.values()], sim_config)
    except AgedistError as exc:
        logger.warning("validation of %d entries failed: %s", len(solved), exc)
        failures.update(dict.fromkeys(solved, str(exc)))
        solved, runs = {}, []

    results = {name: CountryResult(failure_reason=reason) for name, reason in failures.items()}
    for (name, solution), validation in zip(solved.items(), runs):
        sim_mae = mean_absolute_error(validation.steady_estimate, solution.analytic.proportions)
        diagnostics = {**solution.params.diagnostics, "sim_mae": sim_mae}
        solution = replace(solution, params=replace(solution.params, diagnostics=diagnostics))
        results[name] = CountryResult(solution, sim_mae=sim_mae,
                                      sim_estimate=validation.steady_estimate)
    per_country = {name: results[name] for name in sorted(results)}
    route_counts = {route: sum(res.route is route for res in per_country.values())
                    for route in Route}
    distances = {name: res.solution.params.diagnostics["wasserstein_to_original"]
                 for name, res in per_country.items() if res.route is Route.NEAREST_REACHABLE}
    flagged = tuple(name for name, value in distances.items()
                    if value > DEFAULT_WASSERSTEIN_WARN)
    for name in flagged:
        logger.warning("%s: its nearest reachable target moved it by %.4g (threshold %.4g)",
                       name, distances[name], DEFAULT_WASSERSTEIN_WARN)
    mean_distance = float(np.mean(list(distances.values()))) if distances else None
    return PipelineReport(per_country, route_counts, distances, mean_distance, flagged)
