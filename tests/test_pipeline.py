import numpy as np
import pytest

from agedist import SimConfig, curvefit, model1, model2, normalize, pipeline, simulator
from agedist.distributions import (
    ALPHA_MIN,
    AgeDistribution,
    Classification,
    ModelKind,
    classify,
    default_labels,
    mean_absolute_error,
    wasserstein,
)
from agedist.errors import (
    AgedistError,
    DegenerateLastGroup,
    EmptyDataset,
    InvalidEntry,
    ResidualCheckFailed,
)
from agedist.model1 import steady_state
from agedist.model2 import nearest_reachable, steady_state2
from agedist.pipeline import (
    Route,
    _fitted_params,
    run_dataset,
    select_and_solve,
    solve_model1,
    solve_model2,
)


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


@pytest.fixture
def sim_config():
    return SimConfig(seed=0)


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


class TestSelectAndSolve:
    def test_monotone_takes_closed_form(self, sim_config):
        params, route = select_and_solve(MONO, sim_config)
        assert route is Route.MODEL1
        assert params.kind is ModelKind.MODEL1
        assert params.diagnostics["mae"] < 1e-12
        assert params.diagnostics["sim_mae"] < 5e-3

    def test_hump_takes_search(self, sim_config):
        params, route = select_and_solve(HUMP, sim_config)
        assert route is Route.MODEL2
        assert params.kind is ModelKind.MODEL2
        assert params.diagnostics["mae"] < 1e-4
        analytic = steady_state2(params.survival, params.activation)
        assert mean_absolute_error(analytic, HUMP) < 1e-4

    def test_stubborn_shape_takes_nearest_reachable(self, sim_config):
        dist = flat_then_humped()
        params, route = select_and_solve(dist, sim_config)
        assert route is Route.NEAREST_REACHABLE
        assert params.kind is ModelKind.MODEL2
        assert params.diagnostics["solver"] == "nearest_reachable"
        assert params.activation.rates.min() >= ALPHA_MIN
        assert params.diagnostics["wasserstein_to_original"] > 0
        assert reproduces_nearest_reachable(params, dist)

    def test_nearest_reachable_records_distance_not_search(self, sim_config):
        dist = flat_then_humped()
        params, route = select_and_solve(dist, sim_config)
        assert route is Route.NEAREST_REACHABLE
        assert params.diagnostics["wasserstein_to_original"] == wasserstein(
            nearest_reachable(dist), dist)
        for key in ("seed", "iterations_used", "search_history", "model2_history"):
            assert key not in params.diagnostics

    def test_flat_then_humped_takes_model2_closed_form(self, sim_config):
        dist = flat_then_humped(first=0.060)
        params, route = select_and_solve(dist, sim_config)
        assert route is Route.MODEL2
        assert params.diagnostics["solver"] == "closed_form"
        analytic = steady_state2(params.survival, params.activation)
        assert mean_absolute_error(analytic, dist) < 1e-12
        assert params.diagnostics["mae"] < 1e-12

    def test_route_follows_classification(self, sim_config):
        for dist in (MONO, HUMP):
            _, route = select_and_solve(dist, sim_config)
            monotone = classify(dist) is Classification.MONOTONE_NON_INCREASING
            assert (route is Route.MODEL1) == monotone

    def test_emitted_params_validate_against_route_target(self, sim_config):
        # Closed form and converged search: analytic steady state must land
        # on the original within the success threshold.
        for dist, route_expected in ((MONO, Route.MODEL1), (HUMP, Route.MODEL2)):
            params, route = select_and_solve(dist, sim_config)
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
        params, route = select_and_solve(dist, sim_config)
        assert route is Route.NEAREST_REACHABLE
        analytic = steady_state2(params.survival, params.activation, labels=dist.labels)
        assert params.diagnostics["mae"] == mean_absolute_error(analytic, dist) < 1e-4
        assert reproduces_nearest_reachable(params, dist)

    def test_huge_last_group_takes_nearest_reachable(self, sim_config):
        # Monotone, so model 1 is tried first; its last group is beyond
        # what any survival below MAX_LAST_SURVIVAL holds.
        with pytest.raises(DegenerateLastGroup):
            model1.solve(HUGE_LAST)
        params, route = select_and_solve(HUGE_LAST, sim_config)
        assert route is Route.NEAREST_REACHABLE
        assert params.kind is ModelKind.MODEL2
        assert params.diagnostics["mae"] < 1e-9
        assert reproduces_nearest_reachable(params, HUGE_LAST)

    def test_deterministic(self, sim_config):
        a, _ = select_and_solve(HUMP, sim_config)
        b, _ = select_and_solve(HUMP, sim_config)
        assert a == b


class TestSolveModel1:
    @pytest.mark.parametrize("p_n, mode", [("mid", "midpoint"), (0.25, "explicit")])
    def test_free_param_mode(self, p_n, mode):
        params, analytic = solve_model1(MONO, p_n)
        assert params.kind is ModelKind.MODEL1
        assert params.diagnostics == {
            "mae": mean_absolute_error(analytic, MONO), "free_param_mode": mode}
        assert analytic == steady_state(params.survival, labels=MONO.labels)

    def test_random_free_param_records_seed(self):
        params, _ = solve_model1(MONO, "rand", seed=11)
        assert params.diagnostics["free_param_mode"] == "rand"
        assert params.diagnostics["seed"] == 11


class TestSolveCurveFit:
    def test_records_the_fit(self):
        dist = flat_then_humped()
        result = curvefit.fit(dist)
        params, analytic = _fitted_params(dist, result)
        assert params.kind is ModelKind.MODEL1_ON_FITTED
        assert analytic.labels == dist.labels
        assert params.diagnostics == {
            "mae": mean_absolute_error(analytic, result.fitted),
            "wasserstein_to_original": result.wasserstein_to_original,
            "residual_sse": result.residual_sse,
            "plateau": result.params.plateau,
            "decay_scale": result.params.decay_scale,
            "decay_shape": result.params.decay_shape,
            "breakpoint": result.params.breakpoint,
            "free_param_mode": "midpoint",
        }



class TestSolveModel2:
    def test_closed_form_diagnostics(self):
        params, analytic = solve_model2(HUMP)
        ratio = 0.3 / 0.4
        assert params.diagnostics == {
            "solver": "closed_form",
            "min_activation": ratio,
            "free_param_mode": "midpoint",
            "mae": mean_absolute_error(analytic, HUMP),
        }
        assert np.array_equal(params.activation.rates, [1.0, ratio, 1.0])

    def test_nearest_reachable_when_closed_form_rejects(self):
        params, analytic = solve_model2(STEEP)
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
        params, analytic = solve_model2(HUGE_LAST)
        assert params.diagnostics["solver"] == "nearest_reachable"
        assert params.diagnostics["mae"] == mean_absolute_error(analytic, HUGE_LAST) < 1e-9

    @pytest.mark.parametrize("name", ["newtown", "cliff", "stubborn"])
    def test_no_worse_than_search_or_curve_fit(self, name):
        # The original method's tools on the same target, at their default
        # budgets; the curve fit's parameters reproduce its surrogate.
        dist = {"newtown": NEWTOWN, "cliff": CLIFF, "stubborn": flat_then_humped()}[name]
        params, _ = solve_model2(dist)
        assert params.diagnostics["solver"] == "nearest_reachable"
        assert params.diagnostics["mae"] <= model2.optimize(dist).mae
        assert params.diagnostics["mae"] <= mean_absolute_error(curvefit.fit(dist).fitted, dist)

    def test_closed_form_records_no_history(self):
        params, _ = solve_model2(HUMP)
        assert "search_history" not in params.diagnostics

    def test_cascade_entry_adds_only_the_validation_error(self, sim_config):
        params, route = select_and_solve(flat_then_humped(), sim_config)
        assert route is Route.NEAREST_REACHABLE
        station, _ = solve_model2(flat_then_humped())
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
            assert reproduces_nearest_reachable(report.per_country[name].params, dist)


class TestRunDataset:
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
        solve_one = pipeline._solve_one
        monkeypatch.setattr(pipeline, "_solve_one",
                            lambda dist: solved.append(dist) or solve_one(dist))
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
        assert res.analytic.shape == (3,)
        assert res.sim_estimate.shape == (3,)
        assert res.sim_mae == res.params.diagnostics["sim_mae"]

    def test_determinism_across_calls(self, sim_config):
        dataset = [("hump", HUMP), ("mono", MONO)]
        a = run_dataset(dataset, sim_config)
        b = run_dataset(dataset, sim_config)
        for name in a.per_country:
            assert a.per_country[name].params == b.per_country[name].params
            assert a.per_country[name].route == b.per_country[name].route

    def test_failed_residual_check_recorded_not_raised(self, sim_config, monkeypatch):
        # A zero tolerance fails every stationarity residual check. Set only
        # while a model-2 steady state is computed, it fails the hump entry,
        # which must be recorded as failed while the batch carries on.
        checked = model2.steady_state2

        def zero_tolerance(*args, **kwargs):
            with monkeypatch.context() as patch:
                patch.setattr(model1, "RESIDUAL_TOLERANCE", 0.0)
                return checked(*args, **kwargs)

        monkeypatch.setattr(model2, "steady_state2", zero_tolerance)
        report = run_dataset([("hump", HUMP), ("mono", MONO)], sim_config)
        assert report.per_country["hump"].route is Route.FAILED
        assert "stationarity residual" in report.per_country["hump"].failure_reason
        assert report.per_country["mono"].route is Route.MODEL1

    def test_validation_runs_match_single_entries(self, sim_config):
        # One batch for the dataset gives every entry the validation run
        # that select_and_solve makes for it alone.
        dataset = [("hump", HUMP), ("mono", MONO), ("steep", STEEP),
                   ("stubborn", flat_then_humped()), ("huge", HUGE_LAST)]
        report = run_dataset(dataset, sim_config)
        for name, dist in dataset:
            params, route = select_and_solve(dist, sim_config)
            res = report.per_country[name]
            assert res.route is route
            assert res.sim_mae == params.diagnostics["sim_mae"]

    def test_broken_step_fails_every_validated_entry(self, sim_config, monkeypatch):
        # The simulator's step guard names the member; a broken update
        # rule is not specific to it, so every solved entry fails with the
        # guard's reason, and an entry that failed to solve keeps its own.
        def leaking(self, counts, rng):
            new_counts = counts.copy()
            new_counts[-1] -= 1
            return new_counts, 0

        monkeypatch.setattr(simulator._Batch, "step", leaking)
        report = run_dataset([("bad", [0.5, 0.3, 0.2]), ("hump", HUMP), ("mono", MONO)],
                             sim_config)
        assert report.route_counts[Route.FAILED] == 3
        assert "AgeDistribution" in report.per_country["bad"].failure_reason
        for name in ("hump", "mono"):
            result = report.per_country[name]
            assert result.params is None and result.sim_mae is None
            assert "an agent left the age groups" in result.failure_reason
            assert result.failure_reason.startswith("member ")
        with pytest.raises(ResidualCheckFailed, match="member 0: an agent left"):
            select_and_solve(MONO, sim_config)

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

    def test_select_and_solve_rejects_raw_vector(self, sim_config):
        with pytest.raises(InvalidEntry):
            select_and_solve([0.5, 0.3, 0.2], sim_config)
