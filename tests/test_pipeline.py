import numpy as np
import pytest

from agedist import AgeDistribution, DEConfig, SimConfig, model1, model2, simulator
from agedist.distributions import (
    Classification,
    ModelKind,
    classify,
    mean_absolute_error,
)
from agedist.errors import (
    EmptyDataset,
    InvalidEntry,
    ResidualCheckFailed,
    SearchNotConverged,
)
from agedist.model1 import steady_state
from agedist.model2 import steady_state2
from agedist.pipeline import (
    Route,
    run_dataset,
    select_and_solve,
    solve_curve_fit,
    solve_model1,
    solve_model2,
)


def flat_then_humped(first=5e-5):
    """Many flat groups with a late bump behind a near-empty first group.

    The default first group leaves the plateau (~0.06) over 1/ALPHA_MIN
    times larger, so no activation rates reproduce the shape: the closed
    form rejects it, the starved search fails, and the curve fit catches it.
    With ``first=0.060`` the model-2 closed form solves it exactly.
    """
    values = np.array(
        [first, 0.059, 0.058, 0.060, 0.062, 0.064, 0.066, 0.065, 0.060,
         0.058, 0.062, 0.064, 0.058, 0.050, 0.040, 0.032, 0.024, 0.016,
         0.009, 0.004, 0.002]
    )
    values = values / values.sum()
    return AgeDistribution(tuple(f"g{i}" for i in range(1, 22)), values)


@pytest.fixture
def configs():
    # A starved search budget keeps the suite quick and gives the curve-fit
    # route something to catch.
    return DEConfig(seed=0, max_iterations=60), SimConfig(seed=0)


MONO = AgeDistribution(("a", "b", "c"), [0.5, 0.3, 0.2])
HUMP = AgeDistribution(("a", "b", "c"), [0.3, 0.4, 0.3])
#: The second group is 1250 times the first, beyond 1/ALPHA_MIN: the closed
#: form rejects it, and the search gets within its threshold.
STEEP = AgeDistribution(("a", "b", "c"), [0.0004, 0.5, 0.4996])


class TestSelectAndSolve:
    def test_monotone_takes_closed_form(self, configs):
        params, route = select_and_solve(MONO, *configs)
        assert route is Route.MODEL1
        assert params.kind is ModelKind.MODEL1
        assert params.diagnostics["mae"] < 1e-12
        assert params.diagnostics["sim_mae"] < 5e-3

    def test_hump_takes_search(self, configs):
        params, route = select_and_solve(HUMP, *configs)
        assert route is Route.MODEL2
        assert params.kind is ModelKind.MODEL2
        assert params.diagnostics["mae"] < 1e-4
        analytic = steady_state2(params.survival, params.activation)
        assert mean_absolute_error(analytic, HUMP) < 1e-4

    def test_stubborn_shape_falls_back_to_curve_fit(self, configs):
        dist = flat_then_humped()
        params, route = select_and_solve(dist, *configs)
        assert route is Route.CURVE_FIT
        assert params.kind is ModelKind.MODEL1_ON_FITTED
        assert params.activation is None
        assert params.diagnostics["wasserstein_to_original"] > 0
        assert params.diagnostics["model2_iterations"] == 60

    def test_curve_fit_records_search_history(self, configs):
        params, route = select_and_solve(flat_then_humped(), *configs)
        assert route is Route.CURVE_FIT
        history = params.diagnostics["model2_history"]
        assert len(history) == params.diagnostics["model2_iterations"] + 1 == 61
        assert history[-1] == params.diagnostics["model2_mae"]
        assert all(a >= b for a, b in zip(history, history[1:]))

    def test_flat_then_humped_takes_model2_closed_form(self, configs):
        dist = flat_then_humped(first=0.060)
        params, route = select_and_solve(dist, *configs)
        assert route is Route.MODEL2
        assert params.diagnostics["solver"] == "closed_form"
        analytic = steady_state2(params.survival, params.activation)
        assert mean_absolute_error(analytic, dist) < 1e-12
        assert params.diagnostics["mae"] < 1e-12

    def test_route_follows_classification(self, configs):
        for dist in (MONO, HUMP):
            _, route = select_and_solve(dist, *configs)
            monotone = classify(dist) is Classification.MONOTONE_NON_INCREASING
            assert (route is Route.MODEL1) == monotone

    def test_emitted_params_validate_against_route_target(self, configs):
        # Closed form and converged search: analytic steady state must land
        # on the original within the success threshold.
        for dist, route_expected in ((MONO, Route.MODEL1), (HUMP, Route.MODEL2)):
            params, route = select_and_solve(dist, *configs)
            assert route is route_expected
            if params.kind is ModelKind.MODEL2:
                analytic = steady_state2(
                    params.survival, params.activation, labels=dist.labels
                )
            else:
                analytic = steady_state(params.survival, labels=dist.labels)
            assert mean_absolute_error(analytic, dist) < configs[0].success_threshold

    def test_curve_fit_params_validate_against_fitted_target(self, configs):
        from agedist.curvefit import fit

        dist = flat_then_humped()
        params, route = select_and_solve(dist, *configs)
        assert route is Route.CURVE_FIT
        analytic = steady_state(params.survival)
        fitted = fit(dist).fitted
        assert mean_absolute_error(analytic, fitted) < configs[0].success_threshold

    def test_deterministic(self, configs):
        a, _ = select_and_solve(HUMP, *configs)
        b, _ = select_and_solve(HUMP, *configs)
        assert a == b


class TestSolveModel1:
    @pytest.mark.parametrize("p_n, mode", [("mid", "midpoint"), ("midpoint", "midpoint"),
                                           (0.25, "explicit")])
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
        assert params == solve_model1(MONO, "random", seed=11)[0]


class TestSolveCurveFit:
    def test_records_the_fit(self):
        from agedist.curvefit import fit

        dist = flat_then_humped()
        result = fit(dist)
        params, analytic = solve_curve_fit(dist)
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

    def test_cascade_entry_adds_the_search_record(self, configs):
        params, route = select_and_solve(flat_then_humped(), *configs)
        assert route is Route.CURVE_FIT
        station, _ = solve_curve_fit(flat_then_humped())
        assert list(params.diagnostics) == list(station.diagnostics) + [
            "model2_mae", "model2_iterations", "model2_history", "sim_mae"]


class TestSolveModel2:
    def test_closed_form_diagnostics(self):
        params, analytic = solve_model2(HUMP, DEConfig(seed=4))
        ratio = 0.3 / 0.4
        assert params.diagnostics == {
            "solver": "closed_form",
            "min_activation": ratio,
            "free_param_mode": "midpoint",
            "mae": mean_absolute_error(analytic, HUMP),
            "seed": 4,
        }
        assert np.array_equal(params.activation.rates, [1.0, ratio, 1.0])

    def test_search_runs_when_closed_form_rejects(self):
        params, analytic = solve_model2(STEEP, DEConfig(seed=0))
        assert params.kind is ModelKind.MODEL2
        assert params.diagnostics["solver"] == "search"
        assert params.diagnostics["iterations_used"] > 0
        assert params.diagnostics["mae"] == mean_absolute_error(analytic, STEEP)
        assert params.diagnostics["mae"] < 1e-4

    def test_search_failure_is_typed(self):
        with pytest.raises(SearchNotConverged, match="did not converge") as info:
            solve_model2(flat_then_humped(), DEConfig(seed=0, max_iterations=5))
        assert info.value.solution.iterations_used == 5
        assert not info.value.solution.converged

    def test_search_records_its_history(self):
        config = DEConfig(seed=0)
        params, _ = solve_model2(STEEP, config)
        history = params.diagnostics["search_history"]
        expected = []
        solution = model2.optimize(STEEP, config, history=expected)
        assert history == expected
        assert len(history) == params.diagnostics["iterations_used"] + 1
        assert history[-1] == solution.mae < config.success_threshold
        assert all(a >= b for a, b in zip(history, history[1:]))

    def test_closed_form_records_no_history(self):
        params, _ = solve_model2(HUMP, DEConfig(seed=0))
        assert "search_history" not in params.diagnostics

    def test_search_failure_carries_history(self):
        with pytest.raises(SearchNotConverged) as info:
            solve_model2(flat_then_humped(), DEConfig(seed=0, max_iterations=5))
        history = info.value.history
        assert len(history) == 6
        assert history[-1] == info.value.solution.mae


class TestRunDataset:
    def test_three_route_composition(self, configs):
        dataset = [("mono", MONO), ("hump", HUMP), ("stubborn", flat_then_humped())]
        report = run_dataset(dataset, *configs)
        assert report.route_counts == {
            Route.MODEL1: 1,
            Route.MODEL2: 1,
            Route.CURVE_FIT: 1,
            Route.FAILED: 0,
        }
        assert sum(report.route_counts.values()) == len(dataset)
        assert set(report.per_country) == {"mono", "hump", "stubborn"}
        assert list(report.per_country) == sorted(report.per_country)

    def test_empty_dataset_rejected(self, configs):
        with pytest.raises(EmptyDataset):
            run_dataset([], *configs)

    def test_curve_fit_distances_collected(self, configs):
        report = run_dataset([("stubborn", flat_then_humped())], *configs)
        assert set(report.curvefit_wasserstein) == {"stubborn"}
        value = report.curvefit_wasserstein["stubborn"]
        assert report.mean_wasserstein == value
        # This synthetic shape distorts well past the warning threshold.
        assert report.flagged == ("stubborn",)

    def test_no_curve_fits_means_no_mean(self, configs):
        report = run_dataset([("mono", MONO)], *configs)
        assert report.mean_wasserstein is None
        assert report.curvefit_wasserstein == {}

    def test_per_country_results_carry_validation_vectors(self, configs):
        report = run_dataset([("mono", MONO)], *configs)
        res = report.per_country["mono"]
        assert res.analytic.shape == (3,)
        assert res.sim_estimate.shape == (3,)
        assert res.sim_mae == res.params.diagnostics["sim_mae"]

    def test_determinism_across_calls(self, configs):
        dataset = [("hump", HUMP), ("mono", MONO)]
        a = run_dataset(dataset, *configs)
        b = run_dataset(dataset, *configs)
        for name in a.per_country:
            assert a.per_country[name].params == b.per_country[name].params
            assert a.per_country[name].route == b.per_country[name].route

    def test_failed_residual_check_recorded_not_raised(self, configs, monkeypatch):
        # A zero tolerance fails every stationarity residual check. Set only
        # while a model-2 steady state is computed, it fails the hump entry,
        # which must be recorded as failed while the batch carries on.
        checked = model2.steady_state2

        def zero_tolerance(*args, **kwargs):
            with monkeypatch.context() as patch:
                patch.setattr(model1, "RESIDUAL_TOLERANCE", 0.0)
                return checked(*args, **kwargs)

        monkeypatch.setattr(model2, "steady_state2", zero_tolerance)
        report = run_dataset([("hump", HUMP), ("mono", MONO)], *configs)
        assert report.per_country["hump"].route is Route.FAILED
        assert "stationarity residual" in report.per_country["hump"].failure_reason
        assert report.per_country["mono"].route is Route.MODEL1

    def test_validation_runs_match_single_entries(self, configs):
        # One batch for the dataset gives every entry the validation run
        # that select_and_solve makes for it alone.
        dataset = [("hump", HUMP), ("mono", MONO), ("steep", STEEP),
                   ("stubborn", flat_then_humped())]
        report = run_dataset(dataset, *configs)
        for name, dist in dataset:
            params, route = select_and_solve(dist, *configs)
            res = report.per_country[name]
            assert res.route is route
            assert res.sim_mae == params.diagnostics["sim_mae"]

    def test_broken_step_fails_every_validated_entry(self, configs, monkeypatch):
        # The simulator's step guard names the member; a broken update
        # rule is not specific to it, so every solved entry fails with the
        # guard's reason, and an entry that failed to solve keeps its own.
        def leaking(self, counts, rng):
            new_counts = counts.copy()
            new_counts[-1] -= 1
            return new_counts, 0

        monkeypatch.setattr(simulator._Batch, "step", leaking)
        report = run_dataset([("bad", [0.5, 0.3, 0.2]), ("hump", HUMP), ("mono", MONO)],
                             *configs)
        assert report.route_counts[Route.FAILED] == 3
        assert "AgeDistribution" in report.per_country["bad"].failure_reason
        for name in ("hump", "mono"):
            result = report.per_country[name]
            assert result.params is None and result.sim_mae is None
            assert "an agent left the age groups" in result.failure_reason
            assert result.failure_reason.startswith("member ")
        with pytest.raises(ResidualCheckFailed, match="member 0: an agent left"):
            select_and_solve(MONO, *configs)

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
        self, configs, entry
    ):
        report = run_dataset([("bad", entry), ("mono", MONO)], *configs)
        assert report.per_country["bad"].route is Route.FAILED
        assert "AgeDistribution" in report.per_country["bad"].failure_reason
        assert report.per_country["mono"].route is Route.MODEL1
        assert report.route_counts[Route.FAILED] == 1

    def test_select_and_solve_rejects_raw_vector(self, configs):
        with pytest.raises(InvalidEntry):
            select_and_solve([0.5, 0.3, 0.2], *configs)
