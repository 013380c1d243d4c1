"""Model-selection cascade and dataset-level batch driver.

A single target goes through four stations: the model-1 closed form when it
is monotone non-increasing; otherwise the model-2 closed form, which solves
every target whose groups stay within 1/ALPHA_MIN of each earlier group;
for the rest, the activation-rate search; and when that fails to converge
within its budget, the plateau-decay curve fit followed by the closed-form
solver on the fitted surrogate. ``solve_model1``, ``solve_model2`` and
``solve_curve_fit`` return each station's parameters, diagnostics and
analytic steady state, for the cascade and the command line alike. Every
solved parameter set is validated with one stochastic run against its own
analytic steady state. ``run_dataset`` solves every entry first and then
validates all of them in one ``simulator.run_many`` batch, which draws the
uniform stream they share once instead of once per entry.
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
)
from .errors import (
    ActivationTooSmall,
    AgedistError,
    EmptyDataset,
    InvalidEntry,
    SearchNotConverged,
)

logger = logging.getLogger("agedist")

#: Curve fits with a Wasserstein distance above this are flagged (reported,
#: never rejected); the default sits at a typical dataset mean.
DEFAULT_WASSERSTEIN_WARN = 0.0055


class Route(Enum):
    MODEL1 = "model1"
    MODEL2 = "model2"
    CURVE_FIT = "curve_fit"
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
    #: name -> Wasserstein distance for every curve-fit entry (histogram data).
    curvefit_wasserstein: dict
    mean_wasserstein: Optional[float]
    #: Curve-fit entries whose distance exceeded the warning threshold.
    flagged: tuple = field(default_factory=tuple)


def select_and_solve(
    dist: AgeDistribution,
    de_config: Optional[model2.DEConfig] = None,
    sim_config: Optional[simulator.SimConfig] = None,
) -> tuple:
    """Route one target through the cascade; returns (params, route).

    Diagnostics carried on the result include the analytic mean absolute
    error against the route's target, the validation run's error against the
    analytic steady state (``sim_mae``), and route-specific entries (model-2
    solver, search iterations and best-error history, curve-fit distance,
    free-parameter provenance).

    Raises:
        InvalidEntry: ``dist`` is not an AgeDistribution.
        CurveFitFailed: the final fallback found no usable fit.
    """
    params, route, analytic = _solve_one(dist, de_config)
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


def solve_model2(
    dist: AgeDistribution, de_config: Optional[model2.DEConfig] = None
) -> tuple:
    """Model-2 stations of the cascade; returns (params, analytic steady
    state).

    The closed form (``model2.solve``) runs first; the search
    (``model2.optimize``) runs only for targets it rejects. Diagnostics
    record the ``solver`` ("closed_form" or "search"), the analytic mean
    absolute error against ``dist`` and the search seed; the closed form
    adds its smallest activation rate and the free-parameter mode, the
    search its iteration count and ``search_history``, the best error after
    initialisation and after each generation.

    Raises:
        SearchNotConverged: the closed form rejected the target and the
            search ended above its success threshold; it carries the
            search's history.
    """
    de_cfg = de_config if de_config is not None else model2.DEConfig()
    try:
        survival, activation = model2.solve(dist)
        diagnostics = {
            "solver": "closed_form",
            "min_activation": float(activation.rates.min()),
            "free_param_mode": "midpoint",
        }
    except ActivationTooSmall:
        history = []
        solution = model2.optimize(dist, de_cfg, history=history)
        if not solution.converged:
            raise SearchNotConverged(
                solution, de_cfg.success_threshold, history) from None
        survival, activation = solution.survival, solution.activation
        diagnostics = {
            "solver": "search",
            "iterations_used": solution.iterations_used,
            "search_history": history,
        }
    analytic = model2.steady_state2(survival, activation, labels=dist.labels)
    diagnostics["mae"] = mean_absolute_error(analytic, dist)
    diagnostics["seed"] = de_cfg.seed
    params = ModelParams(
        kind=ModelKind.MODEL2,
        survival=survival,
        activation=activation,
        diagnostics=diagnostics,
    )
    return params, analytic


def solve_curve_fit(dist: AgeDistribution) -> tuple:
    """Curve-fit station: ``curvefit.fit``, then the model-1 closed form on
    the fitted surrogate; returns (params, analytic steady state).

    Diagnostics record the analytic mean absolute error against the
    surrogate, the fit's distance, residual and curve parameters, and the
    ``free_param_mode``. Raises CurveFitFailed when no fit is usable.
    """
    return _fitted_params(dist, curvefit.fit(dist))


def _fitted_params(dist: AgeDistribution, fit: curvefit.CurveFitResult) -> tuple:
    """``solve_curve_fit`` on a fit already made."""
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


def _solve_one(dist: AgeDistribution, de_config: Optional[model2.DEConfig]) -> tuple:
    """The solve-only cascade; returns (params, route, analytic steady
    state)."""
    if not isinstance(dist, AgeDistribution):
        raise InvalidEntry(
            f"expected an AgeDistribution, got {type(dist).__name__} "
            "(build one with normalize())"
        )

    if classify(dist) is Classification.MONOTONE_NON_INCREASING:
        params, analytic = solve_model1(dist)
        route = Route.MODEL1
    else:
        try:
            params, analytic = solve_model2(dist, de_config)
            route = Route.MODEL2
        except SearchNotConverged as exc:
            params, analytic = solve_curve_fit(dist)
            params.diagnostics.update(
                model2_mae=exc.solution.mae,
                model2_iterations=exc.solution.iterations_used,
                model2_history=exc.history,
            )
            route = Route.CURVE_FIT
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
    de_config: Optional[model2.DEConfig] = None,
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
            results[name] = _solve_one(dist, de_config)
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
                name=name,
                route=route,
                params=params,
                sim_mae=params.diagnostics["sim_mae"],
                analytic=analytic.proportions,
                sim_estimate=estimate,
            )

    per_country = {name: results[name] for name in sorted(results)}
    route_counts = {route: 0 for route in Route}
    for res in per_country.values():
        route_counts[res.route] += 1

    distances = {
        name: res.params.diagnostics["wasserstein_to_original"]
        for name, res in per_country.items()
        if res.route is Route.CURVE_FIT
    }
    flagged = tuple(
        name for name, value in distances.items() if value > warn_wasserstein
    )
    for name in flagged:
        logger.warning(
            "%s: curve fit moved the distribution by %.4g (threshold %.4g)",
            name, distances[name], warn_wasserstein,
        )
    mean_distance = float(np.mean(list(distances.values()))) if distances else None

    return PipelineReport(
        per_country=per_country,
        route_counts=route_counts,
        curvefit_wasserstein=distances,
        mean_wasserstein=mean_distance,
        flagged=flagged,
    )
