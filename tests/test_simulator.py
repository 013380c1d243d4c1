import numpy as np
import pytest

from agedist import AgeDistribution, DEConfig, SimConfig, optimize, simulator
from agedist.distributions import ModelKind, ModelParams
from agedist.errors import ResidualCheckFailed
from agedist.model1 import solve, steady_state
from agedist.model2 import steady_state2
from agedist.simulator import apportion, initialize, run, step, write_trajectory_csv

from oracles import reference_single_draw_step, reference_step

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
        # With rates of 1 every agent is active and its one draw decides
        # survival exactly as in the plain process.
        state = np.repeat(np.arange(3), [5, 3, 2])
        new_state, deaths = step(
            state,
            np.array([1.0, 1.0, 0.0]),
            np.array([1.0, 1.0, 1.0]),
            np.random.default_rng(0),
        )
        assert np.bincount(new_state, minlength=3).tolist() == [2, 5, 3]
        assert deaths == 2

    def test_unit_activation_is_plain_step_bit_for_bit(self):
        rng = np.random.default_rng(11)
        survival = rng.uniform(0.05, 0.95, size=7)
        state = np.repeat(np.arange(7), [300, 250, 200, 100, 80, 50, 20])
        plain, activated = state, state
        ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(30):
            plain, plain_deaths = step(plain, survival, None, ours)
            activated, deaths = step(activated, survival, np.ones(7), theirs)
            assert np.array_equal(plain, activated) and plain_deaths == deaths
            assert type(deaths) is int


# The plain cases pin the kernel to the two-draw reference, which takes the
# same single draw per agent when there is no activation. The activated
# cases pin it to the single-draw reference: the two-draw layout has the
# same law (TestDrawLayoutsAgree) but a different stream.
REFERENCES = [
    pytest.param(None, reference_step, id="None"),
    pytest.param(ACTIVATION, reference_single_draw_step, id="activation1"),
]


class TestMatchesReferenceStep:
    """The in-place update reproduces the allocating one bit for bit."""

    @pytest.mark.parametrize("activation, reference", REFERENCES)
    def test_step(self, activation, reference):
        state = np.repeat(np.arange(5), [400, 300, 150, 100, 50])
        ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
        expected = state
        for _ in range(30):
            state, deaths = step(state, SURVIVAL, activation, ours)
            expected, expected_deaths = reference(expected, SURVIVAL, activation, theirs)
            assert np.array_equal(state, expected) and deaths == expected_deaths
        # step leaves its input untouched.
        before = state.copy()
        step(state, SURVIVAL, activation, ours)
        assert np.array_equal(state, before)

    @pytest.mark.parametrize("activation, reference", REFERENCES)
    def test_run(self, activation, reference):
        kind = ModelKind.MODEL1 if activation is None else ModelKind.MODEL2
        params = ModelParams(kind=kind, survival=SURVIVAL, activation=activation)
        target = steady_state2(SURVIVAL, ACTIVATION if activation is not None else np.ones(5))
        config = SimConfig(num_agents=3000, num_steps=40, burn_in=20, seed=8,
                           record_trajectory=True)
        result = run(target, params, config)
        state, rng, deaths = initialize(target, config), np.random.default_rng(8), 0
        for row in result.trajectory:
            state, died = reference(state, SURVIVAL, activation, rng)
            deaths += died
            assert np.array_equal(row, np.bincount(state, minlength=5) / 3000)
        assert result.total_deaths == deaths


def landing_probabilities(survival, activation):
    """Row i: probability that an agent of group i is in each group after
    one step (advance below alpha*p, die into group 0, stay otherwise), then
    the probability that it died."""
    p, a = np.asarray(survival), np.asarray(activation)
    n = p.size
    q = np.zeros((n, n + 1))
    for i in range(n):
        q[i, min(i + 1, n - 1)] += a[i] * p[i]
        q[i, 0] += a[i] * (1.0 - p[i])
        q[i, i] += 1.0 - a[i]
        q[i, n] = a[i] * (1.0 - p[i])
    return q


class TestDrawLayoutsAgree:
    """The single-draw kernel and the two-draw reference have the same law.

    Each tally after one step (a group count, or the deaths) is a sum over
    source groups of independent binomials, so its mean, variance and
    fourth central moment are exact. Sample means and variances over many
    seeds must sit within Z_BOUND standard errors of them.
    """

    #: Fixed before the first run. A normal tail beyond 4.5 has probability
    #: 6.8e-6, so the 24 comparisons below false-alarm with probability
    #: under 2e-4.
    Z_BOUND = 4.5
    SEEDS = 2000
    COUNTS = [400, 300, 150, 100, 50]

    def exact_moments(self):
        q = landing_probabilities(SURVIVAL, ACTIVATION)
        c = np.asarray(self.COUNTS, dtype=float)[:, None]
        spread = q * (1.0 - q)
        mean = (c * q).sum(axis=0)
        var = (c * spread).sum(axis=0)
        fourth = (c * spread * (1.0 - 6.0 * spread)).sum(axis=0) + 3.0 * var**2
        return mean, var, fourth

    @pytest.mark.parametrize("layout", [step, reference_step])
    def test_one_step_moments(self, layout):
        state = np.repeat(np.arange(5), self.COUNTS)
        samples = np.empty((self.SEEDS, 6))
        for seed in range(self.SEEDS):
            new_state, deaths = layout(state, SURVIVAL, ACTIVATION,
                                       np.random.default_rng(seed))
            samples[seed, :5] = np.bincount(new_state, minlength=5)
            samples[seed, 5] = deaths
        mean, var, fourth = self.exact_moments()
        s = self.SEEDS
        z_mean = (samples.mean(axis=0) - mean) / np.sqrt(var / s)
        var_of_var = fourth / s - var**2 * (s - 3) / (s * (s - 1))
        z_var = (samples.var(axis=0, ddof=1) - var) / np.sqrt(var_of_var)
        assert np.abs(z_mean).max() < self.Z_BOUND, z_mean
        assert np.abs(z_var).max() < self.Z_BOUND, z_var

    def test_model2_run_estimates_agree_across_seeds(self):
        params = ModelParams(kind=ModelKind.MODEL2, survival=SURVIVAL,
                             activation=ACTIVATION)
        target = steady_state2(SURVIVAL, ACTIVATION)
        seeds = range(16)
        kernel, two_draw = [], []
        for seed in seeds:
            config = SimConfig(num_agents=2000, num_steps=100, burn_in=20, seed=seed)
            kernel.append(run(target, params, config).steady_estimate)
            state, rng = initialize(target, config), np.random.default_rng(seed)
            total = np.zeros(5)
            for step_index in range(1, config.num_steps + 1):
                state, _ = reference_step(state, SURVIVAL, ACTIVATION, rng)
                if step_index > config.burn_in:
                    total += np.bincount(state, minlength=5) / config.num_agents
            two_draw.append(total / (config.num_steps - config.burn_in))
        kernel, two_draw = np.array(kernel), np.array(two_draw)
        standard_error = np.sqrt(
            (kernel.var(axis=0, ddof=1) + two_draw.var(axis=0, ddof=1)) / len(seeds)
        )
        z = (kernel.mean(axis=0) - two_draw.mean(axis=0)) / standard_error
        assert np.abs(z).max() < self.Z_BOUND, z
        for estimates in (kernel, two_draw):
            assert np.abs(estimates.mean(axis=0) - target.proportions).max() < 5e-3


class TestBlocking:
    @pytest.mark.parametrize("activation", [None, ACTIVATION])
    @pytest.mark.parametrize("block", [1, 7, 1000, 1500])
    def test_results_independent_of_block_size(self, block, activation, monkeypatch):
        kind = ModelKind.MODEL1 if activation is None else ModelKind.MODEL2
        params = ModelParams(kind=kind, survival=SURVIVAL, activation=activation)
        target = steady_state2(SURVIVAL, ACTIVATION if activation is not None else np.ones(5))
        config = SimConfig(num_agents=1500, num_steps=20, burn_in=5, seed=13,
                           record_trajectory=True)
        expected = run(target, params, config)
        monkeypatch.setattr(simulator, "BLOCK", block)
        result = run(target, params, config)
        assert np.array_equal(result.steady_estimate, expected.steady_estimate)
        assert np.array_equal(result.final_snapshot, expected.final_snapshot)
        assert np.array_equal(result.trajectory, expected.trajectory)
        assert result.total_deaths == expected.total_deaths
        assert type(result.total_deaths) is int


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
