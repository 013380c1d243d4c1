import numpy as np
import pytest

from agedist import AgeDistribution, DEConfig, SimConfig, optimize, simulator
from agedist.distributions import ModelKind, ModelParams
from agedist.errors import ResidualCheckFailed
from agedist.model1 import solve, steady_state
from agedist.model2 import steady_state2
from agedist.simulator import apportion, initialize, run, step, write_trajectory_csv

from oracles import reference_step

SURVIVAL = np.array([0.9, 0.8, 0.6, 0.5, 0.3])
ACTIVATION = np.array([1.0, 0.4, 0.7, 0.2, 0.5])


def model1_params(dist, pn="mid"):
    return ModelParams(kind=ModelKind.MODEL1, survival=solve(dist, pn))


@pytest.fixture
def pyramid():
    return AgeDistribution(("a", "b", "c"), [0.5, 0.3, 0.2])


class TestApportionment:
    def test_exact_split(self):
        assert apportion(np.array([0.5, 0.3, 0.2]), 10).tolist() == [5, 3, 2]

    def test_exact_split_large(self):
        assert apportion(np.array([0.5, 0.3, 0.2]), 10_000).tolist() == [
            5000, 3000, 2000,
        ]

    def test_largest_remainder_tie_goes_to_first_group(self):
        assert apportion(np.array([1, 1, 1]) / 3.0, 10).tolist() == [4, 3, 3]

    def test_total_always_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            raw = rng.uniform(0.01, 1.0, size=rng.integers(3, 12))
            counts = apportion(raw / raw.sum(), 9_973)
            assert counts.sum() == 9_973
            assert np.all(counts >= 0)


class TestStep:
    def test_deterministic_hand_trace(self):
        # p in {0,1} removes all randomness: group 1 and 2 advance wholesale,
        # group 3 dies wholesale and is replaced in group 1.
        state = np.repeat(np.arange(3), [5, 3, 2])
        new_state, deaths = step(
            state, np.array([1.0, 1.0, 0.0]), None, np.random.default_rng(0)
        )
        assert np.bincount(new_state, minlength=3).tolist() == [2, 5, 3]
        assert deaths == 2

    def test_population_conserved(self):
        state = np.repeat(np.arange(3), [5000, 3000, 2000])
        rng = np.random.default_rng(7)
        probs = np.array([0.6, 0.4, 0.4])
        for _ in range(20):
            state, _ = step(state, probs, None, rng)
            assert state.size == 10_000

    def test_all_ones_activation_matches_plain_draw_layout(self):
        # With rates of 1 every agent is active; outcomes differ only through
        # the extra activation draws consumed from the stream.
        state = np.repeat(np.arange(3), [5, 3, 2])
        new_state, deaths = step(
            state,
            np.array([1.0, 1.0, 0.0]),
            np.array([1.0, 1.0, 1.0]),
            np.random.default_rng(0),
        )
        assert np.bincount(new_state, minlength=3).tolist() == [2, 5, 3]
        assert deaths == 2


class TestMatchesReferenceStep:
    """The in-place update reproduces the allocating one bit for bit."""

    @pytest.mark.parametrize("activation", [None, ACTIVATION])
    def test_step(self, activation):
        state = np.repeat(np.arange(5), [400, 300, 150, 100, 50])
        ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
        expected = state
        for _ in range(30):
            state, deaths = step(state, SURVIVAL, activation, ours)
            expected, expected_deaths = reference_step(expected, SURVIVAL, activation, theirs)
            assert np.array_equal(state, expected) and deaths == expected_deaths
        # step leaves its input untouched.
        before = state.copy()
        step(state, SURVIVAL, activation, ours)
        assert np.array_equal(state, before)

    @pytest.mark.parametrize("activation", [None, ACTIVATION])
    def test_run(self, activation):
        kind = ModelKind.MODEL1 if activation is None else ModelKind.MODEL2
        params = ModelParams(kind=kind, survival=SURVIVAL, activation=activation)
        target = steady_state2(SURVIVAL, ACTIVATION if activation is not None else np.ones(5))
        config = SimConfig(num_agents=3000, num_steps=40, burn_in=20, seed=8,
                           record_trajectory=True)
        result = run(target, params, config)
        state, rng, deaths = initialize(target, config), np.random.default_rng(8), 0
        for row in result.trajectory:
            state, died = reference_step(state, SURVIVAL, activation, rng)
            deaths += died
            assert np.array_equal(row, np.bincount(state, minlength=5) / 3000)
        assert result.total_deaths == deaths


class TestRun:
    def test_estimate_converges_to_analytic(self, pyramid):
        params = model1_params(pyramid)
        analytic = steady_state(params.survival, labels=pyramid.labels)
        result = run(pyramid, params, SimConfig(seed=3))
        assert np.abs(result.steady_estimate - analytic.proportions).mean() < 5e-3

    def test_estimate_converges_for_activation_process(self):
        target = AgeDistribution(("a", "b", "c"), [0.3, 0.4, 0.3])
        sol = optimize(target, DEConfig(seed=0))
        params = ModelParams(
            kind=ModelKind.MODEL2, survival=sol.survival, activation=sol.activation
        )
        analytic = steady_state2(sol.survival, sol.activation)
        result = run(target, params, SimConfig(seed=9))
        assert np.abs(result.steady_estimate - analytic.proportions).mean() < 5e-3

    def test_same_seed_identical(self, pyramid):
        params = model1_params(pyramid)
        config = SimConfig(seed=42, record_trajectory=True)
        a = run(pyramid, params, config)
        b = run(pyramid, params, config)
        assert np.array_equal(a.steady_estimate, b.steady_estimate)
        assert np.array_equal(a.final_snapshot, b.final_snapshot)
        assert np.array_equal(a.trajectory, b.trajectory)
        assert a.total_deaths == b.total_deaths
        assert a.seed == b.seed

    def test_different_seeds_differ(self, pyramid):
        params = model1_params(pyramid)
        a = run(pyramid, params, SimConfig(seed=1))
        b = run(pyramid, params, SimConfig(seed=2))
        assert not np.array_equal(a.steady_estimate, b.steady_estimate)

    def test_trajectory_rows_are_distributions(self, pyramid):
        params = model1_params(pyramid)
        result = run(
            pyramid, params, SimConfig(num_steps=40, burn_in=10, seed=5,
                                       record_trajectory=True)
        )
        assert result.trajectory.shape == (40, 3)
        assert np.abs(result.trajectory.sum(axis=1) - 1.0).max() < 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_estimate_within_three_standard_errors(self, seed):
        # Per-run bound: three times the mean per-group binomial standard
        # error at one snapshot. Time-averaging reduces the true error
        # further, but successive steps are correlated, so the
        # single-snapshot bound is kept as the conservative yardstick.
        dist = AgeDistribution(
            ("a", "b", "c", "d", "e"), [0.35, 0.25, 0.2, 0.12, 0.08]
        )
        params = model1_params(dist)
        analytic = steady_state(params.survival).proportions
        result = run(dist, params, SimConfig(seed=seed))
        standard_errors = np.sqrt(analytic * (1.0 - analytic) / 10_000)
        bound = 3.0 * standard_errors.mean()
        mae = np.abs(result.steady_estimate - analytic).mean()
        assert mae < bound

    def test_uniform_start_still_converges(self, pyramid):
        params = model1_params(pyramid)
        result = run(
            pyramid, params, SimConfig(seed=4, uniform_start=True)
        )
        analytic = steady_state(params.survival)
        assert np.abs(result.steady_estimate - analytic.proportions).mean() < 5e-3

    def test_length_mismatch_rejected(self, pyramid):
        params = ModelParams(
            kind=ModelKind.MODEL1, survival=np.array([0.5, 0.4, 0.3, 0.2])
        )
        with pytest.raises(ValueError):
            run(pyramid, params, SimConfig(seed=0))

    def test_agent_beyond_last_group_raises_typed_error(self, pyramid, monkeypatch):
        def overshooting(state, *args):
            state[0] = state.max() + 1
            return 0

        monkeypatch.setattr(simulator, "_step_in_place", overshooting)
        with pytest.raises(ResidualCheckFailed, match="left the age groups"):
            run(pyramid, model1_params(pyramid), SimConfig(seed=0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(burn_in=350, num_steps=350)
        with pytest.raises(ValueError):
            SimConfig(num_agents=0)


class TestTrajectoryCsv:
    def test_round_trip_at_ten_significant_digits(self, tmp_path, pyramid):
        params = model1_params(pyramid)
        result = run(
            pyramid, params, SimConfig(num_steps=12, burn_in=2, seed=8,
                                       record_trajectory=True)
        )
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step," + ",".join(pyramid.labels)
        assert len(lines) == 13
        parsed = np.array(
            [[float(v) for v in line.split(",")[1:]] for line in lines[1:]]
        )
        assert np.abs(parsed - result.trajectory).max() < 1e-9

    def test_requires_recorded_trajectory(self, pyramid):
        params = model1_params(pyramid)
        result = run(pyramid, params, SimConfig(num_steps=5, burn_in=1, seed=0))
        with pytest.raises(ValueError):
            write_trajectory_csv(result, "unused.csv")
