import numpy as np
import pytest

from agedist import SimConfig, normalize, optimize, simulator
from agedist.distributions import AgeDistribution, ModelKind, ModelParams
from agedist.errors import NotNormalized, ResidualCheckFailed
from agedist.model1 import solve, steady_state
from agedist.model2 import DEConfig, steady_state2
from agedist.simulator import apportion, run, run_many, start_counts, write_trajectory_csv

from oracles import reference_single_draw_step, reference_sorted_run, reference_step

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


def recorded_counts(result, num_agents):
    """The group counts of every recorded step of a run."""
    counts = np.rint(result.trajectory * num_agents).astype(np.int64)
    assert np.array_equal(counts / num_agents, result.trajectory)
    return counts


def one_step(counts, params, seed=0):
    """One recorded step of ``run`` from the given group counts; returns
    (new counts, deaths)."""
    total = int(np.sum(counts))
    start = np.asarray(counts) / total
    config = SimConfig(num_agents=total, num_steps=1, burn_in=0, seed=seed,
                       record_trajectory=True)
    assert np.array_equal(start_counts(start, config), counts)
    result = run(start, params, config)
    return recorded_counts(result, total)[0], result.total_deaths


class TestStep:
    """One step of ``run`` on counts."""

    def test_deterministic_hand_trace(self):
        # p in {0,1} removes all randomness: group 1 and 2 advance wholesale,
        # group 3 dies wholesale and is replaced in group 1.
        params = ModelParams(kind=ModelKind.MODEL1, survival=np.array([1.0, 1.0, 0.0]))
        counts, deaths = one_step([5, 3, 2], params)
        assert counts.tolist() == [2, 5, 3]
        assert deaths == 2

    def test_population_conserved(self):
        params = ModelParams(kind=ModelKind.MODEL1, survival=np.array([0.6, 0.4, 0.4]))
        config = SimConfig(num_agents=10_000, num_steps=20, burn_in=0, seed=7,
                           record_trajectory=True)
        result = run(np.array([0.5, 0.3, 0.2]), params, config)
        counts = recorded_counts(result, 10_000)
        assert counts.shape == (20, 3)
        assert np.all(counts.sum(axis=1) == 10_000) and np.all(counts >= 0)

    def test_all_ones_activation_matches_plain_draw_layout(self):
        # With rates of 1 every agent is active and its one draw decides
        # survival exactly as in the plain process.
        params = ModelParams(kind=ModelKind.MODEL2, survival=np.array([1.0, 1.0, 0.0]),
                             activation=np.ones(3))
        counts, deaths = one_step([5, 3, 2], params)
        assert counts.tolist() == [2, 5, 3]
        assert deaths == 2

    def test_unit_activation_is_plain_step_bit_for_bit(self):
        # Step after step, from the counts each step left behind.
        survival = np.random.default_rng(11).uniform(0.05, 0.95, size=7)
        plain = ModelParams(kind=ModelKind.MODEL1, survival=survival)
        activated = ModelParams(kind=ModelKind.MODEL2, survival=survival,
                                activation=np.ones(7))
        counts = np.array([300, 250, 200, 100, 80, 50, 20])
        for seed in range(30):
            new_counts, plain_deaths = one_step(counts, plain, seed)
            activated_counts, deaths = one_step(counts, activated, seed)
            assert np.array_equal(new_counts, activated_counts) and plain_deaths == deaths
            assert type(deaths) is int
            counts = new_counts


# The plain cases pin the single-draw update to the two-draw reference,
# which takes the same single draw per agent when there is no activation.
# The activated cases pin run to the single-draw update itself: the
# two-draw layout has the same law (TestDrawLayoutsAgree) but a different
# stream.
REFERENCES = [
    pytest.param(None, reference_step, id="None"),
    pytest.param(ACTIVATION, reference_single_draw_step, id="activation1"),
]


class TestMatchesReferenceStep:
    """One step of run reproduces the reference updates on group-sorted
    agents, and run the sorted per-agent run, bit for bit."""

    @pytest.mark.parametrize("activation, reference", REFERENCES)
    def test_step(self, activation, reference):
        kind = ModelKind.MODEL1 if activation is None else ModelKind.MODEL2
        params = ModelParams(kind=kind, survival=SURVIVAL, activation=activation)
        state = np.repeat(np.arange(5), [400, 300, 150, 100, 50])
        for seed in range(30):
            expected, expected_deaths = reference(
                state, SURVIVAL, activation, np.random.default_rng(seed))
            single, deaths = reference_single_draw_step(
                state, SURVIVAL, activation, np.random.default_rng(seed))
            assert np.array_equal(single, expected) and deaths == expected_deaths
            counts, deaths = one_step(np.bincount(state, minlength=5), params, seed)
            assert np.array_equal(counts, np.bincount(expected, minlength=5))
            assert deaths == expected_deaths
            state = np.sort(expected)

    @pytest.mark.parametrize("activation", [None, ACTIVATION])
    def test_run(self, activation):
        # run draws in group order, so its reference re-sorts the agents
        # after every per-agent step.
        kind = ModelKind.MODEL1 if activation is None else ModelKind.MODEL2
        params = ModelParams(kind=kind, survival=SURVIVAL, activation=activation)
        target = steady_state2(SURVIVAL, ACTIVATION if activation is not None else np.ones(5))
        config = SimConfig(num_agents=3000, num_steps=40, burn_in=20, seed=8,
                           record_trajectory=True)
        assert_matches_sorted_run(target, params, config)


def assert_matches_sorted_run(target, params, config, result=None):
    """``run`` (or a given result of it) equals the sorted per-agent
    reference bit for bit; returns the result."""
    activation = None if params.activation is None else params.activation.rates
    if result is None:
        result = run(target, params, config)
    start = np.repeat(np.arange(len(params.survival)), start_counts(target, config))
    trajectory, estimate, deaths = reference_sorted_run(
        start, params.survival.probs, activation, config)
    if config.record_trajectory:
        assert np.array_equal(result.trajectory, trajectory)
    else:
        assert result.trajectory is None
    assert np.array_equal(result.final_snapshot, trajectory[-1])
    assert np.array_equal(result.steady_estimate, estimate)
    assert result.total_deaths == deaths and type(result.total_deaths) is int
    return result


class TestMatchesSortedRun:
    """Edge cases of the count kernel against the sorted per-agent run."""

    @pytest.mark.parametrize("activation", [None, ACTIVATION])
    def test_single_agent(self, activation):
        kind = ModelKind.MODEL1 if activation is None else ModelKind.MODEL2
        params = ModelParams(kind=kind, survival=SURVIVAL, activation=activation)
        config = SimConfig(num_agents=1, num_steps=60, burn_in=10, seed=2,
                           record_trajectory=True)
        result = assert_matches_sorted_run(np.full(5, 0.2), params, config)
        assert np.all(result.trajectory.sum(axis=1) == 1.0)

    @pytest.mark.parametrize("activation", [None, ACTIVATION])
    @pytest.mark.parametrize("block", [1, 2, 32_768])
    def test_fewer_agents_than_groups(self, activation, block, monkeypatch):
        # Three agents in seven groups: the first, middle and last groups
        # start empty, and empty groups keep moving as the agents age.
        monkeypatch.setattr(simulator, "BLOCK", block)
        survival = np.array([0.9, 0.8, 0.95, 0.7, 0.9, 0.6, 0.5])
        rates = None if activation is None else np.array([1.0, 0.4, 0.7, 0.2, 0.5, 0.9, 0.3])
        kind = ModelKind.MODEL1 if rates is None else ModelKind.MODEL2
        params = ModelParams(kind=kind, survival=survival, activation=rates)
        target = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0]) / 3.0
        config = SimConfig(num_agents=3, num_steps=80, burn_in=40, seed=6,
                           record_trajectory=True)
        assert start_counts(target, config).tolist() == [0, 1, 0, 1, 1, 0, 0]
        assert_matches_sorted_run(target, params, config)

    @pytest.mark.parametrize("activation", [None, ACTIVATION])
    @pytest.mark.parametrize("block", [1, 50, 100, 400, 700])
    def test_group_edge_on_chunk_edge(self, activation, block, monkeypatch):
        # The start counts 400/300/150/100/50 put every group edge on a
        # multiple of 50, and the first on 400 and the second on 700.
        monkeypatch.setattr(simulator, "BLOCK", block)
        kind = ModelKind.MODEL1 if activation is None else ModelKind.MODEL2
        params = ModelParams(kind=kind, survival=SURVIVAL, activation=activation)
        target = np.array([0.4, 0.3, 0.15, 0.1, 0.05])
        config = SimConfig(num_agents=1000, num_steps=12, burn_in=4, seed=21,
                           record_trajectory=True)
        assert np.array_equal(simulator.start_counts(target, config), [400, 300, 150, 100, 50])
        assert_matches_sorted_run(target, params, config)

    @pytest.mark.parametrize("activation", [None, ACTIVATION])
    def test_uniform_start(self, activation):
        kind = ModelKind.MODEL1 if activation is None else ModelKind.MODEL2
        params = ModelParams(kind=kind, survival=SURVIVAL, activation=activation)
        uniform = normalize(np.ones(5), ("a", "b", "c", "d", "e"))
        config = SimConfig(num_agents=997, num_steps=30, burn_in=10, seed=3,
                           record_trajectory=True)
        assert start_counts(uniform, config).tolist() == [200, 200, 199, 199, 199]
        result = assert_matches_sorted_run(uniform, params, config)
        assert result.labels == ("a", "b", "c", "d", "e")

    def test_unit_activation_is_plain_run(self):
        target = steady_state(SURVIVAL)
        config = SimConfig(num_agents=2500, num_steps=40, burn_in=20, seed=17,
                           record_trajectory=True)
        plain = assert_matches_sorted_run(
            target, ModelParams(kind=ModelKind.MODEL1, survival=SURVIVAL), config)
        activated = assert_matches_sorted_run(
            target, ModelParams(kind=ModelKind.MODEL2, survival=SURVIVAL,
                                activation=np.ones(5)), config)
        assert np.array_equal(plain.trajectory, activated.trajectory)
        assert np.array_equal(plain.steady_estimate, activated.steady_estimate)
        assert plain.total_deaths == activated.total_deaths

    @pytest.mark.parametrize("threshold", ["advance", "stay"])
    def test_uniform_on_a_threshold(self, threshold):
        # Ten agents, two a group: the first agent of group 2 takes the
        # third uniform of step 1, and its group's threshold is set to it.
        # At the advance threshold it dies (u < p fails); at the stay
        # threshold it stays (u >= alpha holds). Either way group 2 loses
        # it to a different group than under the strict or loose twin.
        seed = 4
        u = float(np.random.default_rng(seed).random(3)[2])
        survival, rates = SURVIVAL.copy(), ACTIVATION.copy()
        if threshold == "advance":
            survival[1], rates = u, None
        else:
            rates[1] = u
        kind = ModelKind.MODEL1 if rates is None else ModelKind.MODEL2
        params = ModelParams(kind=kind, survival=survival, activation=rates)
        config = SimConfig(num_agents=10, num_steps=3, burn_in=1, seed=seed,
                           record_trajectory=True)
        assert_matches_sorted_run(np.full(5, 0.2), params, config)


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

    @pytest.mark.parametrize("layout", [reference_single_draw_step, reference_step])
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
            state = np.repeat(np.arange(5), start_counts(target, config))
            rng = np.random.default_rng(seed)
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


def batch_members():
    """Plain and activated members with 3, 4, 5 and 7 groups, interleaved.
    The 7-group targets put three agents in groups 2, 4 and 5 of each
    three, leaving groups empty at the front, in the middle and at the end.
    Returns (targets, params)."""
    sparse = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0]) / 3.0
    survival7 = np.array([0.9, 0.8, 0.95, 0.7, 0.9, 0.6, 0.5])
    rates7 = np.array([1.0, 0.4, 0.7, 0.2, 0.5, 0.9, 0.3])
    rates3 = np.array([0.6, 1.0, 0.8])
    members = [
        (steady_state2(SURVIVAL, ACTIVATION), SURVIVAL, ACTIVATION),
        (steady_state(SURVIVAL), SURVIVAL, None),
        (sparse, survival7, None),
        (steady_state2(SURVIVAL[:3], rates3), SURVIVAL[:3], rates3),
        (sparse, survival7, rates7),
        (np.full(4, 0.25), SURVIVAL[1:], None),
    ]
    targets = [target for target, _, _ in members]
    params = [ModelParams(kind=ModelKind.MODEL1 if rates is None else ModelKind.MODEL2,
                          survival=survival, activation=rates)
              for _, survival, rates in members]
    return targets, params


def assert_batch_matches_own_runs(targets, params, config):
    """Every member of ``run_many`` equals its own ``run`` and the sorted
    per-agent reference bit for bit."""
    results = run_many(targets, params, config)
    assert len(results) == len(targets)
    for target, member, result in zip(targets, params, results):
        own = run(target, member, config)
        assert result.labels == own.labels
        assert np.array_equal(result.steady_estimate, own.steady_estimate)
        assert np.array_equal(result.final_snapshot, own.final_snapshot)
        if config.record_trajectory:
            assert np.array_equal(result.trajectory, own.trajectory)
        assert result.total_deaths == own.total_deaths
        assert result.seed == own.seed
        assert_matches_sorted_run(target, member, config, result)
    return results


class TestRunMany:
    """A batch reads one shared stream; each member's results are bit for
    bit those of its own run."""

    @pytest.mark.parametrize("block", [1, 7, 500, 1000, "agents", 32_768])
    @pytest.mark.parametrize("num_agents", [3, 1500])
    def test_members_match_their_own_runs(self, num_agents, block, monkeypatch):
        # Three agents: several members share a tile (block 7 packs two,
        # block 500 all six). 1500 agents: one member a tile, in chunks of
        # 1, 7, 500 (a divisor) or 1000 (not a divisor), or the whole
        # population.
        monkeypatch.setattr(simulator, "BLOCK", num_agents if block == "agents" else block)
        config = SimConfig(num_agents=num_agents, num_steps=8, burn_in=3, seed=19,
                           record_trajectory=True)
        assert_batch_matches_own_runs(*batch_members(), config)

    @pytest.mark.parametrize("block", [7, 32_768])
    def test_uniform_start_without_trajectory(self, block, monkeypatch):
        monkeypatch.setattr(simulator, "BLOCK", block)
        config = SimConfig(num_agents=40, num_steps=30, burn_in=10, seed=5)
        targets, params = batch_members()
        uniform = [np.full(len(target), 1.0 / len(target)) for target in targets]
        results = assert_batch_matches_own_runs(uniform, params, config)
        assert all(result.trajectory is None for result in results)

    def test_batch_of_one(self):
        targets, params = batch_members()
        config = SimConfig(num_agents=700, num_steps=20, burn_in=5, seed=3,
                           record_trajectory=True)
        [result] = run_many(targets[4:5], params[4:5], config)
        assert_matches_sorted_run(targets[4], params[4], config, result)

    def test_members_are_independent_of_their_batch(self):
        # Dropping, repeating or reordering members changes no member.
        targets, params = batch_members()
        config = SimConfig(num_agents=500, num_steps=15, burn_in=5, seed=11)
        whole = run_many(targets, params, config)
        order = [5, 0, 0, 3]
        part = run_many([targets[i] for i in order], [params[i] for i in order], config)
        for i, result in zip(order, part):
            assert np.array_equal(result.steady_estimate, whole[i].steady_estimate)
            assert result.total_deaths == whole[i].total_deaths

    def test_empty_and_mismatched_batches(self):
        assert run_many([], [], SimConfig()) == []
        targets, params = batch_members()
        with pytest.raises(ValueError, match="targets for"):
            run_many(targets, params[:-1], SimConfig())
        with pytest.raises(ValueError, match="member 1: params have 3 groups, target has 5"):
            run_many(targets[:2], [params[0], params[3]], SimConfig())

    def test_step_guard_checks_every_member(self, monkeypatch):
        # Plain members are laid out first: in the flat counts of
        # [activated, plain, activated] the plain member 1 comes first and
        # member 2 last. The guard must catch a leak in either and name the
        # member by its index in the batch.
        targets, params = batch_members()
        targets, params = [targets[i] for i in (0, 1, 3)], [params[i] for i in (0, 1, 3)]
        stepped = simulator._Batch.step

        def leaking(member_slot, negative):
            def broken_step(self, counts, rng):
                new_counts, deaths = stepped(self, counts, rng)
                start = self.offsets[member_slot]
                if negative:
                    # The member's tally stays whole, but a group holds -1.
                    new_counts[start] += new_counts[start + 1] + 1
                    new_counts[start + 1] = -1
                else:
                    new_counts[self.offsets[member_slot + 1] - 1] -= 1
                return new_counts, deaths
            return broken_step

        config = SimConfig(num_agents=300, num_steps=10, burn_in=2, seed=1)
        for slot, member in ((0, 1), (2, 2)):
            for negative in (False, True):
                monkeypatch.setattr(simulator._Batch, "step", leaking(slot, negative))
                with pytest.raises(ResidualCheckFailed,
                                   match=f"member {member}: an agent left the age groups"):
                    run_many(targets, params, config)


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
        result = run(normalize(np.ones(3), pyramid.labels), params, SimConfig(seed=4))
        analytic = steady_state(params.survival)
        assert np.abs(result.steady_estimate - analytic.proportions).mean() < 5e-3

    def test_length_mismatch_rejected(self, pyramid):
        params = ModelParams(
            kind=ModelKind.MODEL1, survival=np.array([0.5, 0.4, 0.3, 0.2])
        )
        with pytest.raises(ValueError):
            run(pyramid, params, SimConfig(seed=0))

    def test_agent_beyond_last_group_raises_typed_error(self, pyramid, monkeypatch):
        def short_tally(self, counts, rng):
            # One agent stepped past the last group and left the tally.
            new_counts = counts.copy()
            new_counts[-1] -= 1
            return new_counts, 0

        def negative_count(self, counts, rng):
            # The tally is whole, but a group holds minus one agent.
            new_counts = counts.copy()
            new_counts[1] += new_counts[2] + 1
            new_counts[2] = -1
            return new_counts, 0

        for kernel in (short_tally, negative_count):
            monkeypatch.setattr(simulator._Batch, "step", kernel)
            with pytest.raises(ResidualCheckFailed, match="member 0: an agent left the age groups"):
                run(pyramid, model1_params(pyramid), SimConfig(seed=0))

    def test_unnormalized_target_rejected_before_any_draw(self, monkeypatch):
        # Raw counts would start the run with their sum times num_agents
        # agents and fail after step 1, blaming the update rule.
        def no_step(*args):
            raise AssertionError("stepped an unnormalized target")

        monkeypatch.setattr(simulator._Batch, "step", no_step)
        params = ModelParams(kind=ModelKind.MODEL1, survival=np.full(5, 0.5))
        config = SimConfig(num_agents=1000, num_steps=5, burn_in=1)
        for target in (np.ones(5), np.full(5, 0.2 + 1e-11)):
            with pytest.raises(NotNormalized, match="sum to"):
                run(target, params, config)
            # One bad member stops the whole batch before any draw.
            with pytest.raises(NotNormalized):
                run_many([np.full(5, 0.2), target], [params, params], config)

    def test_raw_target_gets_default_labels(self):
        params = ModelParams(kind=ModelKind.MODEL1, survival=np.full(4, 0.5))
        result = run(np.full(4, 0.25), params, SimConfig(num_steps=3, burn_in=1))
        assert result.labels == ("g1", "g2", "g3", "g4")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(burn_in=350, num_steps=350)
        with pytest.raises(ValueError):
            SimConfig(num_agents=0)
        # A float or a bool would only fail later, untyped, inside run.
        for bad in ({"num_agents": 1e4}, {"num_agents": True},
                    {"num_steps": 350.0}, {"burn_in": 300.0}):
            with pytest.raises(ValueError, match="must be an integer"):
                SimConfig(**bad)
        # A seed fails the same way: a float or a string would fail inside
        # default_rng, and a bool would be written out as true.
        for bad in (1.5, "3", True, None):
            with pytest.raises(ValueError, match="seed must be an integer"):
                SimConfig(seed=bad)
        with pytest.raises(ValueError, match="unsigned 64-bit"):
            SimConfig(seed=-1)
        # A string would record a trajectory because it is truthy.
        for bad in ("no", 1, None):
            with pytest.raises(ValueError, match="record_trajectory must be a bool"):
                SimConfig(record_trajectory=bad)
        assert SimConfig(record_trajectory=np.bool_(True)).record_trajectory
        config = SimConfig(num_agents=np.int64(40), num_steps=np.int32(6), burn_in=2,
                           seed=np.uint64(2**64 - 1))
        assert run(np.full(4, 0.25), ModelParams(kind=ModelKind.MODEL1, survival=np.full(4, 0.5)),
                   config).total_deaths > 0

    def test_default_burn_in_keeps_the_final_seventh(self):
        assert SimConfig().burn_in == 300
        assert SimConfig(num_steps=100).burn_in == 86
        assert SimConfig(num_steps=6).burn_in == 5
        assert SimConfig(num_steps=1).burn_in == 0

    def test_explicit_burn_in_kept_and_validated(self):
        assert SimConfig(num_steps=100, burn_in=10).burn_in == 10
        assert SimConfig(burn_in=0).burn_in == 0
        with pytest.raises(ValueError, match="0 <= burn_in < num_steps"):
            SimConfig(num_steps=100, burn_in=100)
        with pytest.raises(ValueError, match="0 <= burn_in < num_steps"):
            SimConfig(burn_in=-1)
        with pytest.raises(ValueError, match="burn_in must be an integer"):
            SimConfig(burn_in=1.5)


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
