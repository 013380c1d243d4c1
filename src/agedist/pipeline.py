"""Model-selection cascade and dataset-level batch driver.

A single target goes through three closed forms: model 1 when it is
monotone non-increasing; otherwise model 2, which solves every target whose
groups stay within 1/ALPHA_MIN of each earlier group; for the rest, model 2
on the nearest target it reaches (``model2.nearest_reachable``). The paper
runs an activation-rate search and then a curve fit on those targets; both
stay available (``model2.optimize``, ``curvefit.fit``), but the cascade
calls neither: no model-2 steady state or curve fit is closer to the target
than the L1 projection, which the nearest reachable target comes within 1%
of. ``solve_model1`` and ``solve_model2`` return each station's
parameters, diagnostics and analytic steady state, for the cascade and the
command line alike. Every solved parameter set is validated with one
stochastic run against its own analytic steady state. ``run_dataset``
solves every entry first and then validates all of them in one
``simulator.run_many`` batch, which draws their shared uniform stream once.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from . import curvefit, model1, model2, simulator
from .distributions import (
    AgeDistribution,
    Classification,
    ModelKind,
    ModelParams,
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


@dataclass
class CountryResult:
    name: str
    route: Route
    params: Optional[ModelParams] = None
    sim_mae: Optional[float] = None
    failure_reason: Optional[str] = None
    #: Analytic steady state of the solved parameters (proportions).
    analytic: Optional[np.ndarray] = None
    #: Steady-state estimate from the validation run (proportions).
    sim_estimate: Optional[np.ndarray] = None


@dataclass
class PipelineReport:
    per_country: dict
    route_counts: dict
    #: name -> Wasserstein distance from the original to the target solved,
    #: for every nearest-reachable entry (histogram data).
    nearest_reachable_wasserstein: dict
    mean_wasserstein: Optional[float]
    #: Nearest-reachable entries whose distance exceeds the warning threshold.
    flagged: tuple = field(default_factory=tuple)


def select_and_solve(
    dist: AgeDistribution,
    sim_config: Optional[simulator.SimConfig] = None,
) -> tuple:
    """Route one target through the cascade; returns (params, route).

    The diagnostics are the station's (``solve_model1``, ``solve_model2``)
    plus the validation run's error against the analytic steady state
    (``sim_mae``). Raises InvalidEntry when ``dist`` is not an
    AgeDistribution.
    """
    params, route, analytic = _solve_one(dist)
    _validate([(params, analytic)], sim_config)
    return params, route


def solve_model1(dist: AgeDistribution, p_n="mid", *,
                 seed: Optional[int] = None) -> tuple:
    """Model-1 station: ``model1.solve`` (``p_n`` and ``seed`` as there);
    returns (params, analytic steady state).

    Diagnostics record the analytic mean absolute error against ``dist``
    and the ``free_param_mode``: "midpoint", "rand" (with its ``seed``) or
    "explicit".
    """
    survival = model1.solve(dist, p_n, seed=seed)
    analytic = model1.steady_state(survival, labels=dist.labels)
    # model1.solve has rejected every other string.
    mode = ("explicit" if not isinstance(p_n, str)
            else "midpoint" if p_n in ("mid", "midpoint") else "rand")
    diagnostics = {"mae": mean_absolute_error(analytic, dist), "free_param_mode": mode}
    if mode == "rand":
        diagnostics["seed"] = seed
    return ModelParams(ModelKind.MODEL1, survival, diagnostics=diagnostics), analytic


def solve_model2(dist: AgeDistribution) -> tuple:
    """Model-2 stations: ``model2.solve`` on ``dist`` or, where it rejects
    ``dist``, on ``model2.nearest_reachable(dist)``; returns (params,
    analytic steady state).

    Diagnostics record the ``solver`` ("closed_form" or
    "nearest_reachable"; the latter adds the Wasserstein distance from
    ``dist`` to the target it reproduces), the smallest activation rate, the
    free-parameter mode and the analytic mean absolute error against
    ``dist``.
    """
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
    params = ModelParams(ModelKind.MODEL2, survival, activation, diagnostics=diagnostics)
    return params, analytic


def _fitted_params(dist: AgeDistribution, fit: curvefit.CurveFitResult) -> tuple:
    """``agedist fit-curve``'s parameters: the model-1 closed form on the
    fitted surrogate; returns (params, analytic steady state).

    Diagnostics record the analytic mean absolute error against the
    surrogate, the fit's distance, residual and curve parameters, and the
    ``free_param_mode``.
    """
    survival = model1.solve(fit.fitted, "mid")
    analytic = model1.steady_state(survival, labels=dist.labels)
    diagnostics = {
        "mae": mean_absolute_error(analytic, fit.fitted),
        "wasserstein_to_original": fit.wasserstein_to_original,
        "residual_sse": fit.residual_sse,
        "plateau": fit.params.plateau,
        "decay_scale": fit.params.decay_scale,
        "decay_shape": fit.params.decay_shape,
        "breakpoint": fit.params.breakpoint,
        "free_param_mode": "midpoint",
    }
    return ModelParams(ModelKind.MODEL1_ON_FITTED, survival, diagnostics=diagnostics), analytic


def _solve_one(dist: AgeDistribution) -> tuple:
    """The solve-only cascade; returns (params, route, analytic steady
    state). A monotone target whose last group model 1 cannot hold goes to
    model 2."""
    if not isinstance(dist, AgeDistribution):
        raise InvalidEntry(
            f"expected an AgeDistribution, got {type(dist).__name__} "
            "(build one with normalize())"
        )

    if classify(dist) is Classification.MONOTONE_NON_INCREASING:
        try:
            params, analytic = solve_model1(dist)
            return params, Route.MODEL1, analytic
        except DegenerateLastGroup:
            pass
    params, analytic = solve_model2(dist)
    route = (Route.MODEL2 if params.diagnostics["solver"] == "closed_form"
             else Route.NEAREST_REACHABLE)
    return params, route, analytic


def _validate(solved, sim_config: Optional[simulator.SimConfig]) -> list:
    """Validate (params, analytic steady state) pairs in one simulator batch
    (``simulator.run_many``); records each run's error against its analytic
    steady state as ``sim_mae`` and returns the steady-state estimates."""
    runs = simulator.run_many([analytic for _, analytic in solved],
                              [params for params, _ in solved], sim_config)
    for (params, analytic), validation in zip(solved, runs):
        params.diagnostics["sim_mae"] = mean_absolute_error(
            validation.steady_estimate, analytic.proportions)
    return [validation.steady_estimate for validation in runs]


def run_dataset(
    dataset,
    sim_config: Optional[simulator.SimConfig] = None,
    warn_wasserstein: float = DEFAULT_WASSERSTEIN_WARN,
) -> PipelineReport:
    """Apply the cascade to every (name, distribution) entry.

    Every entry is solved first, then all solved entries are validated in
    one ``simulator.run_many`` batch; each entry's validation run is bit
    for bit the one ``select_and_solve`` makes. The report is sorted by
    name. Per-entry failures, including an entry that is not an
    AgeDistribution, are recorded with route FAILED and never abort the
    batch. A failed validation batch (such as the simulator's step guard
    raising ResidualCheckFailed, which names the member) records every
    solved entry as FAILED with its reason: a broken update rule is not
    specific to one entry.

    Raises:
        EmptyDataset: no entries were supplied.
    """
    entries = list(dataset)
    if not entries:
        raise EmptyDataset("no distributions to process")

    results = {}
    for name, dist in entries:
        try:
            results[name] = _solve_one(dist)
        except AgedistError as exc:
            logger.warning("%s: %s", name, exc)
            results[name] = CountryResult(
                name=name, route=Route.FAILED, failure_reason=str(exc)
            )
    solved = {name: value for name, value in results.items() if isinstance(value, tuple)}
    try:
        estimates = _validate(
            [(params, analytic) for params, _, analytic in solved.values()], sim_config)
    except AgedistError as exc:
        logger.warning("validation of %d entries failed: %s", len(solved), exc)
        for name in solved:
            results[name] = CountryResult(
                name=name, route=Route.FAILED, failure_reason=str(exc))
    else:
        for (name, (params, route, analytic)), estimate in zip(solved.items(), estimates):
            results[name] = CountryResult(
                name=name, route=route, params=params, sim_mae=params.diagnostics["sim_mae"],
                analytic=analytic.proportions, sim_estimate=estimate)

    per_country = {name: results[name] for name in sorted(results)}
    route_counts = {route: sum(res.route is route for res in per_country.values())
                    for route in Route}
    distances = {name: res.params.diagnostics["wasserstein_to_original"]
                 for name, res in per_country.items() if res.route is Route.NEAREST_REACHABLE}
    flagged = tuple(name for name, value in distances.items() if value > warn_wasserstein)
    for name in flagged:
        logger.warning("%s: its nearest reachable target moved it by %.4g (threshold %.4g)",
                       name, distances[name], warn_wasserstein)
    mean_distance = float(np.mean(list(distances.values()))) if distances else None
    return PipelineReport(per_country, route_counts, distances, mean_distance, flagged)
