import ast
import dataclasses
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agedist import SimConfig, curvefit, distributions, model1, model2, normalize, pipeline
from agedist.distributions import (
    ALPHA_MIN,
    MAX_LAST_SURVIVAL,
    AgeDistribution,
    Classification,
    ModelKind,
    classify,
    default_labels,
    mean_absolute_error,
    wasserstein,
)
from agedist.errors import (
    ActivationTooSmall,
    AgedistError,
    DegenerateLastGroup,
    EmptyDataset,
    FreeParamOutOfRange,
    InvalidEntry,
)
from agedist.model1 import steady_state
from agedist.model2 import nearest_reachable, steady_state2
from agedist.pipeline import Route, run_dataset

from oracles import reference_route, reference_solve_one


def flat_then_humped(first=5e-5):
    """Many flat groups with a late bump behind a near-empty first group.

    The default first group leaves the plateau (~0.06) over 1/ALPHA_MIN
    times larger, so no activation rates reproduce the shape: the closed
    form rejects it and solves its nearest reachable target instead. With
    ``first=0.060`` the model-2 closed form solves it exactly.
    """
    values = np.array(
        [first, 0.059, 0.058, 0.060, 0.062, 0.064, 0.066, 0.065, 0.060,
         0.058, 0.062, 0.064, 0.058, 0.050, 0.040, 0.032, 0.024, 0.016,
         0.009, 0.004, 0.002]
    )
    values = values / values.sum()
    return AgeDistribution(tuple(f"g{i}" for i in range(1, 22)), values)


MONO = AgeDistribution(("a", "b", "c"), [0.5, 0.3, 0.2])
HUMP = AgeDistribution(("a", "b", "c"), [0.3, 0.4, 0.3])
#: The second group is 1250 times the first, beyond 1/ALPHA_MIN: the closed
#: form rejects it and solves its nearest reachable target.
STEEP = AgeDistribution(("a", "b", "c"), [0.0004, 0.5, 0.4996])
#: A monotone target whose last group is 1e10 times the one before it:
#: beyond 1/(1 - MAX_LAST_SURVIVAL), so model 1 cannot hold it.
HUGE_LAST = normalize([1, 0.5, 1e-10, 1], "abcd")
#: The demo's new settlement: a first group of 0.3 against adults up to ~1200.
NEWTOWN = normalize(
    np.r_[0.3, 1000 * np.exp(-0.5 * ((np.arange(1, 10) - 4) / 2.5) ** 2) + 200],
    default_labels(10))
CLIFF = normalize([0.01, 500.0, 499.99], "abc")


def reproduces_nearest_reachable(params, dist):
    """The parameters' steady state is the nearest reachable target of
    ``dist`` to 1e-12 per group."""
    analytic = steady_state2(params.survival, params.activation)
    return np.abs(analytic.proportions - nearest_reachable(dist).proportions).max() < 1e-12


def alone(dist, sim_config):
    """``dist`` solved and validated as a one-entry dataset: (params, route)."""
    result = run_dataset([("entry", dist)], sim_config).per_country["entry"]
    return result.solution.params, result.route


class TestOneEntryDataset:
    def test_monotone_takes_closed_form(self, sim_config):
        params, route = alone(MONO, sim_config)
        assert route is Route.MODEL1
        assert params.kind is ModelKind.MODEL1
        assert params.diagnostics["mae"] < 1e-12
        assert params.diagnostics["sim_mae"] < 5e-3

    def test_hump_takes_the_closed_form(self, sim_config):
        params, route = alone(HUMP, sim_config)
        assert route is Route.MODEL2
        assert params.kind is ModelKind.MODEL2
        assert params.diagnostics["mae"] < 1e-12
        analytic = steady_state2(params.survival, params.activation)
        assert mean_absolute_error(analytic, HUMP) < 1e-12

    def test_stubborn_shape_takes_nearest_reachable(self, sim_config):
        dist = flat_then_humped()
        params, route = alone(dist, sim_config)
        assert route is Route.NEAREST_REACHABLE
        assert params.kind is ModelKind.MODEL2
        assert params.diagnostics["solver"] == "nearest_reachable"
        assert params.activation.rates.min() >= ALPHA_MIN
        assert params.diagnostics["wasserstein_to_original"] > 0
        assert reproduces_nearest_reachable(params, dist)

    def test_nearest_reachable_records_distance_not_search(self, sim_config):
        dist = flat_then_humped()
        params, route = alone(dist, sim_config)
        assert route is Route.NEAREST_REACHABLE
        assert params.diagnostics["wasserstein_to_original"] == wasserstein(
            nearest_reachable(dist), dist)
        for key in ("seed", "iterations_used", "search_history", "model2_history"):
            assert key not in params.diagnostics

    def test_flat_then_humped_takes_model2_closed_form(self, sim_config):
        dist = flat_then_humped(first=0.060)
        params, route = alone(dist, sim_config)
        assert route is Route.MODEL2
        assert params.diagnostics["solver"] == "closed_form"
        analytic = steady_state2(params.survival, params.activation)
        assert mean_absolute_error(analytic, dist) < 1e-12
        assert params.diagnostics["mae"] < 1e-12

    def test_route_follows_classification(self, sim_config):
        for dist in (MONO, HUMP):
            _, route = alone(dist, sim_config)
            monotone = classify(dist) is Classification.MONOTONE_NON_INCREASING
            assert (route is Route.MODEL1) == monotone

    def test_emitted_params_validate_against_route_target(self, sim_config):
        # The closed form: the analytic steady state lands on the original
        # up to rounding.
        for dist, route_expected in ((MONO, Route.MODEL1), (HUMP, Route.MODEL2)):
            params, route = alone(dist, sim_config)
            assert route is route_expected
            if params.kind is ModelKind.MODEL2:
                analytic = steady_state2(
                    params.survival, params.activation, labels=dist.labels
                )
            else:
                analytic = steady_state(params.survival, labels=dist.labels)
            assert mean_absolute_error(analytic, dist) < 1e-12

    def test_nearest_reachable_params_validate_against_original(self, sim_config):
        # The search's success threshold, which the curve fit it fell back
        # to never met, is met on the original target.
        dist = flat_then_humped()
        params, route = alone(dist, sim_config)
        assert route is Route.NEAREST_REACHABLE
        analytic = steady_state2(params.survival, params.activation, labels=dist.labels)
        assert params.diagnostics["mae"] == mean_absolute_error(analytic, dist) < 1e-4
        assert reproduces_nearest_reachable(params, dist)

    def test_huge_last_group_takes_nearest_reachable(self, sim_config):
        # Monotone, so model 1 is tried first; its last group is beyond
        # what any survival below MAX_LAST_SURVIVAL holds.
        with pytest.raises(DegenerateLastGroup):
            model1.solve(HUGE_LAST)
        params, route = alone(HUGE_LAST, sim_config)
        assert route is Route.NEAREST_REACHABLE
        assert params.kind is ModelKind.MODEL2
        assert params.diagnostics["mae"] < 1e-9
        assert reproduces_nearest_reachable(params, HUGE_LAST)

    def test_deterministic(self, sim_config):
        a, _ = alone(HUMP, sim_config)
        b, _ = alone(HUMP, sim_config)
        assert a is not None and a == b


class TestSolveModel1:
    @pytest.mark.parametrize("p_n, mode", [("mid", "midpoint"), (0.25, "explicit")])
    def test_free_param_mode(self, p_n, mode):
        solution = pipeline.solve(MONO, p_n)
        params, analytic = solution.params, solution.analytic
        assert params.kind is ModelKind.MODEL1
        assert params.diagnostics == {
            "mae": mean_absolute_error(analytic, MONO), "free_param_mode": mode}
        assert analytic == steady_state(params.survival, labels=MONO.labels)

    def test_random_free_param_records_seed(self):
        params = pipeline.solve(MONO, "rand", seed=11).params
        assert params.diagnostics["free_param_mode"] == "rand"
        assert params.diagnostics["seed"] == 11


class TestSolveModel2:
    def test_closed_form_diagnostics(self):
        solution = pipeline.solve(HUMP)
        params, analytic = solution.params, solution.analytic
        ratio = 0.3 / 0.4
        assert params.diagnostics == {
            "solver": "closed_form",
            "min_activation": ratio,
            "free_param_mode": "midpoint",
            "mae": mean_absolute_error(analytic, HUMP),
        }
        assert np.array_equal(params.activation.rates, [1.0, ratio, 1.0])

    def test_nearest_reachable_when_closed_form_rejects(self):
        solution = pipeline.solve(STEEP)
        params, analytic = solution.params, solution.analytic
        reachable = nearest_reachable(STEEP)
        survival, activation = model2.solve(reachable)
        assert params.kind is ModelKind.MODEL2
        assert params.survival == survival and params.activation == activation
        assert params.diagnostics == {
            "solver": "nearest_reachable",
            "wasserstein_to_original": wasserstein(reachable, STEEP),
            "min_activation": float(activation.rates.min()),
            "free_param_mode": "midpoint",
            "mae": mean_absolute_error(analytic, STEEP),
        }
        # Below the search's success threshold, against the original.
        assert params.diagnostics["mae"] < 1e-4
        assert np.abs(analytic.proportions - reachable.proportions).max() < 1e-12

    def test_degenerate_last_group_takes_nearest_reachable(self):
        with pytest.raises(DegenerateLastGroup):
            model2.solve(HUGE_LAST)
        solution = pipeline.solve(HUGE_LAST)
        params, analytic = solution.params, solution.analytic
        assert params.diagnostics["solver"] == "nearest_reachable"
        assert params.diagnostics["mae"] == mean_absolute_error(analytic, HUGE_LAST) < 1e-9

    @pytest.mark.parametrize("name", ["newtown", "cliff", "stubborn"])
    def test_no_worse_than_search_or_curve_fit(self, name):
        # The original method's tools on the same target, at their default
        # budgets; the curve fit's parameters reproduce its surrogate.
        dist = {"newtown": NEWTOWN, "cliff": CLIFF, "stubborn": flat_then_humped()}[name]
        params = pipeline.solve(dist).params
        assert params.diagnostics["solver"] == "nearest_reachable"
        assert params.diagnostics["mae"] <= model2.optimize(dist).mae
        assert params.diagnostics["mae"] <= mean_absolute_error(curvefit.fit(dist).fitted, dist)

    def test_closed_form_records_no_history(self):
        params = pipeline.solve(HUMP).params
        assert "search_history" not in params.diagnostics

    def test_cascade_entry_adds_only_the_validation_error(self, sim_config):
        params, route = alone(flat_then_humped(), sim_config)
        assert route is Route.NEAREST_REACHABLE
        station = pipeline.solve(flat_then_humped()).params
        assert list(params.diagnostics) == list(station.diagnostics) + ["sim_mae"]

    def test_the_cascade_never_searches_or_fits(self, sim_config, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the cascade called the search or the curve fit")

        monkeypatch.setattr(model2, "optimize", forbidden)
        monkeypatch.setattr(curvefit, "fit", forbidden)
        dataset = [("newtown", NEWTOWN), ("cliff", CLIFF),
                   ("stubborn", flat_then_humped()), ("huge", HUGE_LAST)]
        report = run_dataset(dataset, sim_config)
        assert report.route_counts[Route.NEAREST_REACHABLE] == 4
        for name, dist in dataset:
            assert reproduces_nearest_reachable(report.per_country[name].solution.params, dist)


def station_outcome(station, dist, p_n, seed):
    """What a station makes of ``dist``: its kind, route name, rates,
    analytic steady state and diagnostics in order, as bytes where they are
    floats; or the type and message of the typed error it raises."""
    try:
        route, params, analytic = station(dist, p_n, seed=seed)
    except AgedistError as exc:
        return type(exc), str(exc)
    return (params.kind, route, params.survival.probs.tobytes(),
            params.activation.rates.tobytes(), analytic.proportions.tobytes(), analytic.labels,
            list(params.diagnostics.items()))


def the_station(dist, p_n, *, seed):
    """``pipeline.solve``, with the route it set."""
    solution = pipeline.solve(dist, p_n, seed=seed)
    return solution.route.value, solution.params, solution.analytic


def the_reference(dist, p_n, *, seed):
    """The two-station reference, with the route read from its kind and solver."""
    params, analytic = reference_solve_one(dist, p_n, seed=seed)
    return reference_route(params), params, analytic


def one_station_target(shape, n, draw):
    """An n-group target: monotone (its last group free, up to 10 times
    the one before), a hump, a hump behind a first group below 1/1000 of the
    others (steep), or a monotone one whose last group is 1e10-1e250 times
    the one before (huge last)."""
    sizes = st.lists(st.floats(1e-3, 1e3), min_size=n - 1, max_size=n - 1)
    if shape in ("monotone", "huge_last"):
        head = sorted(draw(sizes), reverse=True)
        factor = (draw(st.floats(1e-3, 10.0)) if shape == "monotone"
                  else draw(st.floats(1e10, 1e250)))
        values = head + [head[-1] * factor]
    else:
        x = np.linspace(0.0, 1.0, n)
        centre, width = draw(st.floats(0.2, 0.8)), draw(st.floats(0.05, 0.5))
        values = np.exp(-(((x - centre) / width) ** 2)) + draw(st.floats(0.01, 0.5))
        if shape == "steep":
            values[0] = values[1:].min() * draw(st.floats(1e-9, 9e-4))
    return normalize(values, default_labels(n))


#: "mid", "rand" or an explicit value; the steep and huge-last targets admit
#: only values near MAX_LAST_SURVIVAL.
FREE_PARAMS = st.one_of(st.just("mid"), st.just("rand"), st.one_of(
    st.floats(0.0, 1.0), st.floats(0.999, MAX_LAST_SURVIVAL), st.just(MAX_LAST_SURVIVAL)))


#: Integer counts, so many ties; a monotone head with a last group up to
#: 1e10 times the one before it, around 1/(1 - MAX_LAST_SURVIVAL) = 1e9 among
#: them; a group within 1e-9 of 1/ALPHA_MIN times the one before it; and
#: one a few ulp above it.
_TIES = st.lists(st.integers(1, 4), min_size=3, max_size=12)
_HEADS = _TIES.map(lambda counts: sorted(counts, reverse=True))
ROUTE_COUNTS = st.one_of(
    _TIES,
    _HEADS,
    st.builds(lambda head, factor: head + [head[-1] * factor], _HEADS,
              st.one_of(st.floats(1.0, 1e10), st.floats(0.999e9, 1.001e9))),
    st.builds(lambda head, factor, tail: head + [head[-1] / ALPHA_MIN * factor] + tail,
              _HEADS, st.floats(1 - 1e-9, 1 + 1e-9), _TIES),
    st.builds(lambda head, ulps, tail: head + [head[-1] * (1 + ulps * 2.0**-52)] + tail,
              _HEADS, st.integers(1, 8), _TIES),
)


class TestOneStation:
    """``pipeline.solve`` against its two-station reference
    (``tests/oracles.py::reference_solve_one``)."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(shape=st.sampled_from(["monotone", "hump", "steep", "huge_last"]),
           n=st.integers(3, 60), p_n=FREE_PARAMS, seed=st.integers(0, 2**64 - 1),
           data=st.data())
    def test_matches_the_two_stations(self, shape, n, p_n, seed, data):
        dist = one_station_target(shape, n, data.draw)
        ours = station_outcome(the_station, dist, p_n, seed)
        if p_n == "mid" or shape == "monotone":
            assert ours == station_outcome(the_reference, dist, p_n, seed)
            return
        # The reference takes the midpoint on the model-2 routes, where the
        # station applies p_n: the same route, with p_n's last survival.
        midpoint = station_outcome(the_reference, dist, "mid", seed)
        if ours[0] is FreeParamOutOfRange:
            assert not isinstance(p_n, str)
            return
        assert ours[:2] == midpoint[:2]
        diagnostics = dict(ours[-1])
        assert diagnostics["free_param_mode"] == ("rand" if p_n == "rand" else "explicit")
        assert diagnostics.get("seed") == (seed if p_n == "rand" else None)
        if p_n != "rand":
            assert np.frombuffer(ours[2])[-1] == p_n

    def test_each_entry_calls_the_closed_form_alone(self, sim_config, monkeypatch):
        # The route is read from the rates, so no entry calls classify.
        calls = []
        for module, name in ((pipeline, "classify"), (model2, "_closed_form"), (model2, "solve")):
            def recorded(*args, _call=getattr(module, name),
                         _name=f"{module.__name__.split('.')[-1]}.{name}", **kwargs):
                calls.append(_name)
                return _call(*args, **kwargs)

            monkeypatch.setattr(module, name, recorded)
        run_dataset([("huge", HUGE_LAST), ("hump", HUMP), ("mono", MONO), ("steep", STEEP)],
                    sim_config)
        solve = ["model2.solve", "model2._closed_form"]
        assert calls == ([*solve, *solve]  # huge: nearest reachable
                         + solve * 2  # hump, mono
                         + ["model2.solve", *solve])  # steep

    @pytest.mark.parametrize("build, name, value", [
        (lambda: pipeline.solve(HUMP), "route", Route.MODEL1),
        (lambda: SimConfig(num_agents=500, num_steps=20), "burn_in", 400),
        (lambda: SimConfig(num_agents=500, num_steps=20), "num_agents", 0),
        (lambda: model2.DEConfig(), "population_size", 2),
        (lambda: pipeline.solve(MONO).params, "activation", None),
    ], ids=["Solution.route", "SimConfig.burn_in", "SimConfig.num_agents",
            "DEConfig.population_size", "ModelParams.activation"])
    def test_a_built_value_is_frozen(self, build, name, value):
        # Each assignment would get round a constructor check: burn_in 400 of
        # 20 steps would make simulator.run return all -0.0, num_agents 0
        # raise a stray ZeroDivisionError, population_size 2 make
        # model2.optimize never return, and activation None make
        # step_thresholds raise a stray AttributeError.
        built = build()
        before = getattr(built, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(built, name, value)
        assert getattr(built, name) is before

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(counts=ROUTE_COUNTS)
    def test_model1_is_a_monotone_target_the_closed_form_accepts(self, counts):
        dist = normalize(counts, default_labels(len(counts)))
        try:
            model2.solve(dist)
            accepted = True
        except (ActivationTooSmall, DegenerateLastGroup):
            accepted = False
        monotone = classify(dist) is Classification.MONOTONE_NON_INCREASING
        assert (pipeline.solve(dist).route is Route.MODEL1) == (monotone and accepted)


class TestRunDataset:
    def test_the_station_set_is_left_alone(self, sim_config, monkeypatch):
        # The report carries new sets with sim_mae; a solved set never changes.
        built = pipeline.solve(HUMP)
        before = dict(built.params.diagnostics)
        monkeypatch.setattr(pipeline, "solve", lambda dist: built)
        entry = run_dataset([("hump", HUMP)], sim_config).per_country["hump"]
        assert built.params.diagnostics == before and "sim_mae" not in before
        assert entry.solution.params.diagnostics == {**before, "sim_mae": entry.sim_mae}
        assert entry.solution.params.survival == built.params.survival
        assert entry.solution.analytic is built.analytic

    def test_reports_and_entries_compare_by_value(self, sim_config):
        # Entries hold their run's estimate array, compared by value.
        dataset = [("mono", MONO), ("hump", HUMP), ("stubborn", flat_then_humped())]
        report = run_dataset(dataset, sim_config)
        again = run_dataset(dataset, sim_config)
        other = run_dataset(dataset, dataclasses.replace(sim_config, seed=1))
        assert report == again and report != other
        for name, entry in report.per_country.items():
            assert entry == again.per_country[name] and entry != other.per_country[name]

    def test_three_route_composition(self, sim_config):
        dataset = [("mono", MONO), ("hump", HUMP), ("stubborn", flat_then_humped())]
        report = run_dataset(dataset, sim_config)
        assert report.route_counts == {
            Route.MODEL1: 1,
            Route.MODEL2: 1,
            Route.NEAREST_REACHABLE: 1,
            Route.FAILED: 0,
        }
        assert sum(report.route_counts.values()) == len(dataset)
        assert set(report.per_country) == {"mono", "hump", "stubborn"}
        assert list(report.per_country) == sorted(report.per_country)

    def test_empty_dataset_rejected(self, sim_config):
        with pytest.raises(EmptyDataset):
            run_dataset([], sim_config)

    def test_repeated_name_rejected_before_solving(self, sim_config, monkeypatch):
        solved = []
        solve = pipeline.solve
        monkeypatch.setattr(pipeline, "solve", lambda dist: solved.append(dist) or solve(dist))
        with pytest.raises(AgedistError, match="'A'"):
            run_dataset([("A", MONO), ("B", HUMP), ("A", HUMP)], sim_config)
        assert solved == []

    def test_nearest_reachable_distances_collected(self, sim_config, monkeypatch):
        dataset = [("stubborn", flat_then_humped()), ("steep", STEEP), ("mono", MONO)]
        report = run_dataset(dataset, sim_config)
        distances = report.nearest_reachable_wasserstein
        assert distances == {
            name: wasserstein(nearest_reachable(dist), dist)
            for name, dist in dataset[:2]}
        assert report.mean_wasserstein == np.mean(list(distances.values()))
        # Both move their targets by about 1e-4, well within the default
        # warning threshold; a tighter one flags them.
        assert report.flagged == ()
        monkeypatch.setattr(pipeline, "DEFAULT_WASSERSTEIN_WARN", 1e-5)
        tight = run_dataset(dataset, sim_config)
        assert tight.flagged == ("steep", "stubborn")

    def test_no_nearest_reachable_means_no_mean(self, sim_config):
        report = run_dataset([("mono", MONO)], sim_config)
        assert report.mean_wasserstein is None
        assert report.nearest_reachable_wasserstein == {}

    def test_huge_last_group_solved_beside_a_good_entry(self, sim_config):
        report = run_dataset([("huge", HUGE_LAST), ("mono", MONO)], sim_config)
        assert report.per_country["huge"].route is Route.NEAREST_REACHABLE
        assert report.per_country["mono"].route is Route.MODEL1
        assert report.route_counts[Route.FAILED] == 0

    def test_per_country_results_carry_validation_vectors(self, sim_config):
        report = run_dataset([("mono", MONO)], sim_config)
        res = report.per_country["mono"]
        assert res.solution.analytic.proportions.shape == (3,)
        assert res.sim_estimate.shape == (3,)
        assert res.sim_mae == res.solution.params.diagnostics["sim_mae"]

    def test_determinism_across_calls(self, sim_config):
        dataset = [("hump", HUMP), ("mono", MONO)]
        a = run_dataset(dataset, sim_config)
        b = run_dataset(dataset, sim_config)
        for name in a.per_country:
            assert a.per_country[name].solution.params == b.per_country[name].solution.params
            assert a.per_country[name].route == b.per_country[name].route

    def test_failed_residual_check_recorded_not_raised(self, sim_config, monkeypatch):
        # A zero tolerance fails every stationarity residual check. Set only
        # while the hump entry is solved, it fails that entry, which must be
        # recorded as failed while the batch carries on.
        solve = pipeline.solve

        def zero_tolerance_for_hump(dist):
            with monkeypatch.context() as patch:
                if dist is HUMP:
                    patch.setattr(distributions, "RESIDUAL_TOLERANCE", 0.0)
                return solve(dist)

        monkeypatch.setattr(pipeline, "solve", zero_tolerance_for_hump)
        report = run_dataset([("hump", HUMP), ("mono", MONO)], sim_config)
        assert report.per_country["hump"].route is Route.FAILED
        assert "stationarity residual" in report.per_country["hump"].failure_reason
        assert report.per_country["mono"].route is Route.MODEL1

    @pytest.mark.parametrize(
        "entry",
        [
            np.array([0.5, np.nan, 0.5]),
            np.array([0.6, -0.1, 0.5]),
            [0.5, 0.3, 0.2],
        ],
        ids=["nan-vector", "negative-entry", "plain-list"],
    )
    def test_entry_that_is_not_a_distribution_recorded_not_raised(
        self, sim_config, entry
    ):
        report = run_dataset([("bad", entry), ("mono", MONO)], sim_config)
        assert report.per_country["bad"].route is Route.FAILED
        assert "AgeDistribution" in report.per_country["bad"].failure_reason
        assert report.per_country["mono"].route is Route.MODEL1
        assert report.route_counts[Route.FAILED] == 1

    @pytest.mark.parametrize("entry", [MONO, ("x",), ("x", MONO, 1), None],
                             ids=["bare-distribution", "name-only", "triple", "none"])
    def test_entry_that_is_not_a_pair_raises_before_any_solve(self, monkeypatch, entry):
        monkeypatch.setattr(pipeline, "solve", None)
        with pytest.raises(InvalidEntry, match="entry 1 is not a"):
            run_dataset([("mono", MONO), entry])

    @pytest.mark.parametrize("name", [1, ["x"]], ids=["mixed-type", "unhashable"])
    def test_name_that_is_not_a_str_raises_before_any_solve(self, monkeypatch, name):
        def never(dist):
            raise AssertionError("an entry was solved")

        monkeypatch.setattr(pipeline, "solve", never)
        with pytest.raises(InvalidEntry, match="entry 1 has a name that is not a str"):
            run_dataset([("a", MONO), (name, MONO)])


def counts_or_distribution(counts):
    """``counts`` as a normalized distribution, or as the raw vector they
    are when ``normalize`` rejects them (a group underflows to zero)."""
    try:
        return normalize(counts, default_labels(len(counts)))
    except AgedistError:
        return counts


#: Positive counts spanning subnormals to near the largest double.
COUNTS = st.lists(st.floats(1e-320, 1e308), min_size=3, max_size=8)
#: Distributions from those counts or from ordinary ones; a huge last group
#: (up to 1e300 times the largest before it); a first group below 1/1000 of
#: the smallest adult one.
TARGETS = st.one_of(
    COUNTS,
    st.lists(st.floats(1, 1e3), min_size=3, max_size=8),
    st.builds(lambda counts, factor: counts + [min(max(counts) * factor, 1e308)],
              COUNTS, st.floats(1e9, 1e300)),
    st.builds(lambda counts, share: [min(counts) * share] + counts,
              COUNTS, st.floats(1e-12, 1e-3)),
).map(counts_or_distribution)
RAW_VECTORS = st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=5)
PAIRS = st.lists(st.tuples(st.text(max_size=4), st.one_of(TARGETS, RAW_VECTORS)),
                 max_size=5, unique_by=lambda pair: pair[0])
#: Entries that are not (str, anything) pairs, and "ab", which is one.
ODD_ENTRIES = st.one_of(
    st.tuples(st.one_of(st.integers(), st.floats(), st.none(), st.binary(max_size=2),
                        st.lists(st.integers(), max_size=2)), TARGETS),
    st.sampled_from([None, 7, "ab", "abc", ("only",), ("a", MONO, "extra")]),
    TARGETS,
)


class TestHostileEntries:
    """``run_dataset`` on arbitrary entries raises only typed errors, warns
    of nothing, and every entry it solves reproduces its route's target."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(PAIRS, st.sampled_from(["clean", "repeat", "odd"]), ODD_ENTRIES, st.integers(0, 5))
    def test_only_typed_errors_and_exact_routes(self, pairs, spoil, odd, where):
        dataset = list(pairs)
        if spoil == "repeat":
            dataset += pairs[:1]
        elif spoil == "odd":
            dataset.insert(where, odd)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                report = run_dataset(dataset, SimConfig(num_agents=200, num_steps=5))
            except AgedistError:
                report = None
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        if report is None:
            return
        # Every entry was a pair with a name of its own.
        targets = dict(dataset)
        assert set(report.per_country) == set(targets)
        for name, result in report.per_country.items():
            if result.route is Route.FAILED:
                assert result.solution is None and result.failure_reason
                continue
            params, target = result.solution.params, targets[name]
            if result.route is Route.NEAREST_REACHABLE:
                target = nearest_reachable(target)
            steady = distributions.stationary_distribution(params.survival, params.activation)
            assert np.abs(steady.proportions - target.proportions).max() <= 1e-12


def many_groups(shape, n):
    """An n-group target for each route: a random monotone one (model 1), a
    hump (model 2) and a Newtown-like hump behind a first group 1e-7 of the
    adults (nearest reachable)."""
    x = np.linspace(0.0, 1.0, n)
    if shape == "monotone":
        values = np.sort(np.random.default_rng(n).uniform(0.1, 1.0, n))[::-1]
    elif shape == "hump":
        values = np.exp(-(((x - 0.3) / 0.2) ** 2)) + 0.05
    else:
        values = np.exp(-(((x - 0.5) / 0.3) ** 2)) + 0.1
        values[0] = 1e-7
    return normalize(values, default_labels(n))


SHAPE_ROUTES = {"monotone": Route.MODEL1, "hump": Route.MODEL2,
                "newtown": Route.NEAREST_REACHABLE}


class TestManyGroups:
    @pytest.mark.parametrize("n", [1001, 5001])
    @pytest.mark.parametrize("shape", sorted(SHAPE_ROUTES))
    def test_round_trip(self, shape, n):
        dist = many_groups(shape, n)
        solution = pipeline.solve(dist)
        assert solution.route is SHAPE_ROUTES[shape]
        solved = dist if shape != "newtown" else nearest_reachable(dist)
        assert np.abs(solution.analytic.proportions - solved.proportions).max() <= 1e-12

    @pytest.mark.parametrize("shape", sorted(SHAPE_ROUTES))
    def test_solve_memory_is_linear(self, shape):
        # The dense stationarity system took 400 MB here; the residual check
        # and the solvers need a few (n,) vectors.
        dist = many_groups(shape, 5001)
        tracemalloc.start()
        try:
            pipeline.solve(dist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


@pytest.mark.parametrize("modules, forbidden", [
    # The cascade is closed forms and a validation run; the plateau-decay
    # curve fit belongs to the paper's search path (agedist fit-curve).
    (("distributions", "model1", "model2", "pipeline", "simulator"), {"curvefit"}),
    # Files are read and written in dataio and the command line alone.
    (("distributions", "model1", "model2", "curvefit", "parallel", "pipeline", "simulator"),
     {"dataio", "cli"}),
    # Only the engines know how their work is split over the CPUs.
    (tuple(path.stem for path in sorted(Path(pipeline.__file__).parent.glob("*.py"))
           if path.stem not in {"model2", "simulator", "parallel"}),
     {"parallel"}),
], ids=["curvefit", "dataio-cli", "parallel"])
def test_cascade_modules_import_no_search_code(modules, forbidden):
    src = Path(pipeline.__file__).parent
    offenders = []
    for module in modules:
        tree = ast.parse((src / f"{module}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            if any(name.split(".")[-1] in forbidden for name in names):
                offenders.append(module)
    assert not offenders, offenders
