import math
from collections import Counter

import numpy as np
import pytest
import scipy.stats

from agedist import SimConfig, normalize, optimize
from agedist.dataio import write_trajectory_csv
from agedist.distributions import (
    AgeDistribution, ModelKind, ModelParams, stationary_distribution)
from agedist.model1 import solve, steady_state
from agedist.model2 import DEConfig, steady_state2
from agedist.simulator import apportion, run, run_many, start_counts

from oracles import (
    count_transition_matrix, one_step_count_law, reference_single_draw_step, reference_step,
    stationarity_system)

SURVIVAL = np.array([0.9, 0.8, 0.6, 0.5, 0.3])
ACTIVATION = np.array([1.0, 0.4, 0.7, 0.2, 0.5])


def model1_params(dist, pn="mid"):
    return ModelParams(kind=ModelKind.MODEL1, survival=solve(dist, pn))


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


#: The plain and the activated three-group sets of the small-chain checks.
SMALL_CHAINS = [
    pytest.param([0.6, 0.5, 0.3], None, id="plain"),
    pytest.param([0.7, 0.5, 0.4], [0.6, 0.8, 0.5], id="activated"),
]


def small_chain_params(survival, activation):
    kind = ModelKind.MODEL1 if activation is None else ModelKind.MODEL2
    return ModelParams(kind=kind, survival=survival, activation=activation)


def final_counts(target, params, num_agents, num_steps, seeds):
    """The group counts after ``num_steps`` steps from ``target``, a row
    for each seed in ``range(seeds)``, each seed a run of its own."""
    return np.array([
        np.rint(run(target, params, SimConfig(num_agents=num_agents, num_steps=num_steps,
                                              burn_in=0, seed=seed)).final_snapshot * num_agents)
        for seed in range(seeds)]).astype(int)


def assert_fits_law(law, counts, false_alarm):
    """Chi-square test of ``counts``, a row of counts a run, against
    ``law`` ({counts: probability}), with false-alarm chance ``false_alarm``."""
    seen = Counter(map(tuple, counts.tolist()))
    assert set(seen) <= set(law), (seen, law)
    expected = np.array(list(law.values())) * len(counts)
    observed = np.array([seen[outcome] for outcome in law])
    statistic = float(((observed - expected) ** 2 / expected).sum())
    bound = scipy.stats.chi2.isf(false_alarm, len(law) - 1)
    assert statistic < bound, (statistic, bound, seen, law)


class TestOneStepLaw:
    """One step of three agents, one a group, against the exact law of the
    next counts (``one_step_count_law``), by a chi-square statistic over
    independent seeds. Each seed is a run (or a batch) of its own: the
    members of one batch may share their draws."""

    #: Fixed before the first run: a chi-square tail of 1e-6 a set, so the
    #: two sets false-alarm with probability 2e-6. 2000 seeds put at least
    #: 50 expected runs in every outcome (the rarest has probability 0.025).
    FALSE_ALARM = 1e-6
    SEEDS = 2000

    @pytest.mark.parametrize("survival, activation", SMALL_CHAINS)
    def test_matches_exact_law(self, survival, activation):
        params = small_chain_params(survival, activation)
        target = np.full(3, 1 / 3)
        assert start_counts(target, SimConfig(num_agents=3)).tolist() == [1, 1, 1]
        law = one_step_count_law([1, 1, 1], survival, activation)
        assert_fits_law(law, final_counts(target, params, 3, 1, self.SEEDS), self.FALSE_ALARM)

    def test_every_batch_member_matches_exact_law(self):
        # Plain and activated members, interleaved, from one agent a group
        # and from (2, 1, 0). Members of one batch may share draws, but each
        # member's counts over independent seeds are a sample of its own
        # law: four sets at FALSE_ALARM each, 4e-6 in all. The rarest
        # outcome has probability 0.025, so 50 expected runs.
        plain, activated = (chain.values for chain in SMALL_CHAINS)
        members = [(plain, [1, 1, 1]), (activated, [2, 1, 0]),
                   (plain, [2, 1, 0]), (activated, [1, 1, 1])]
        targets = [np.array(start) / 3 for _, start in members]
        params = [small_chain_params(*chain) for chain, _ in members]
        counts = np.empty((self.SEEDS, len(members), 3), dtype=int)
        for seed in range(self.SEEDS):
            config = SimConfig(num_agents=3, num_steps=1, burn_in=0, seed=seed)
            results = run_many(targets, params, config)
            counts[seed] = np.rint([result.final_snapshot * 3 for result in results])
        for k, ((survival, activation), start) in enumerate(members):
            assert start_counts(targets[k], SimConfig(num_agents=3)).tolist() == start
            law = one_step_count_law(start, survival, activation)
            assert min(law.values()) >= 0.025
            assert_fits_law(law, counts[:, k], self.FALSE_ALARM)


class TestMultiStepLaw:
    """Four steps of three agents, one a group, against the exact law of the
    counts then: the row of (1, 1, 1) in the fourth power of the transition
    matrix of the count chain's 10 states (``count_transition_matrix``). A
    chi-square statistic over independent seeds, as in TestOneStepLaw."""

    #: Fixed before the first run, as in TestOneStepLaw: a chi-square tail
    #: of 1e-6 a set, over 2000 seeds, with at least 5 expected runs in
    #: every outcome (the rarest have probability 0.0098 and 0.0125).
    FALSE_ALARM = 1e-6
    SEEDS = 2000
    STEPS = 4

    @pytest.mark.parametrize("survival, activation", SMALL_CHAINS)
    def test_matches_exact_law(self, survival, activation):
        states, matrix = count_transition_matrix(3, survival, activation)
        row = np.linalg.matrix_power(matrix, self.STEPS)[states.index((1, 1, 1))]
        law = dict(zip(states, row))
        assert len(law) == 10 and min(law.values()) * self.SEEDS >= 5
        counts = final_counts(np.full(3, 1 / 3), small_chain_params(survival, activation),
                              3, self.STEPS, self.SEEDS)
        assert_fits_law(law, counts, self.FALSE_ALARM)

    @pytest.mark.parametrize("survival, activation", SMALL_CHAINS)
    def test_count_chain_mixes_to_a_multinomial(self, survival, activation):
        # The agents move independently, so from every start the counts
        # tend to Multinomial(3, pi), pi the stationary distribution.
        states, matrix = count_transition_matrix(3, survival, activation)
        assert np.allclose(matrix.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        pi = stationary_distribution(survival, activation).proportions
        multinomial = [math.factorial(3) / math.prod(map(math.factorial, state))
                       * np.prod(pi ** np.array(state)) for state in states]
        assert np.allclose(np.linalg.matrix_power(matrix, 60), multinomial, rtol=0, atol=1e-12)


class TestMixedStepMoments:
    """Agent slots are independent copies of one n-state chain, so once
    mixed one step's counts are Multinomial(N, pi): group i's count has
    mean N pi_i and variance N pi_i (1 - pi_i), its proportion variance
    pi_i (1 - pi_i) / N. Checked by z-statistics over independent seeds,
    after enough steps that the exact moments (from each agent's law, a
    power of the expected-update matrix) are within 1e-4 of the mixed
    ones."""

    #: Fixed before the first run: |z| below 5 for each group's mean and
    #: variance, a two-sided normal tail of 5.7e-7 each (12 statistics).
    Z_BOUND = 5.0
    AGENTS = 50
    STEPS = 15
    SEEDS = 1000

    @pytest.mark.parametrize("survival, activation", SMALL_CHAINS)
    def test_one_step_counts_are_multinomial(self, survival, activation):
        n, agents, seeds = 3, self.AGENTS, self.SEEDS
        alpha = np.ones(n) if activation is None else np.asarray(activation)
        pi = stationary_distribution(survival, activation).proportions
        mean, variance = agents * pi, agents * pi * (1 - pi)
        # Column g of the expected-update matrix is the next group's law
        # for an agent of group g; one column per agent after STEPS steps.
        start = start_counts(pi, SimConfig(num_agents=agents))
        update = stationarity_system(survival, alpha) + np.eye(n)
        laws = np.repeat(np.linalg.matrix_power(update, self.STEPS), start, axis=1)
        assert np.allclose(laws.sum(axis=1), mean, rtol=1e-4, atol=0)
        assert np.allclose((laws * (1 - laws)).sum(axis=1), variance, rtol=1e-4, atol=0)

        counts = final_counts(pi, small_chain_params(survival, activation),
                              agents, self.STEPS, seeds)
        z_mean = (counts.mean(axis=0) - mean) / np.sqrt(variance / seeds)
        # The sample variance's variance, from the binomial fourth moment.
        fourth = variance * (1 + 3 * (agents - 2) * pi * (1 - pi))
        spread = np.sqrt(fourth / seeds - variance**2 * (seeds - 3) / (seeds * (seeds - 1)))
        z_variance = (counts.var(axis=0, ddof=1) - variance) / spread
        assert np.abs(z_mean).max() < self.Z_BOUND, z_mean
        assert np.abs(z_variance).max() < self.Z_BOUND, z_variance


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


class TestRunMany:
    """A batch's contract: typed errors for a bad batch, and seeded runs
    that repeat bit for bit. Each member's law is checked in
    TestOneStepLaw."""

    def test_same_seed_identical(self):
        targets, params = batch_members()
        config = SimConfig(num_agents=500, num_steps=15, burn_in=5, seed=11,
                           record_trajectory=True)
        first, second = run_many(targets, params, config), run_many(targets, params, config)
        assert len(first) == len(second) == len(targets)
        for a, b in zip(first, second):
            assert a.labels == b.labels
            assert np.array_equal(a.steady_estimate, b.steady_estimate)
            assert np.array_equal(a.final_snapshot, b.final_snapshot)
            assert np.array_equal(a.trajectory, b.trajectory)
            assert a.total_deaths == b.total_deaths
            assert a.seed == b.seed == 11

    def test_different_seeds_differ(self):
        targets, params = batch_members()
        a, b = (run_many(targets, params, SimConfig(num_agents=500, num_steps=15, burn_in=5,
                                                    seed=seed))
                for seed in (1, 2))
        for one, other in zip(a, b):
            assert not np.array_equal(one.steady_estimate, other.steady_estimate)

    def test_empty_and_mismatched_batches(self):
        assert run_many([], [], SimConfig()) == []
        targets, params = batch_members()
        with pytest.raises(ValueError, match="targets for"):
            run_many(targets, params[:-1], SimConfig())
        with pytest.raises(ValueError, match="member 1: params have 3 groups, target has 5"):
            run_many(targets[:2], [params[0], params[3]], SimConfig())


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
        assert a == b

    def test_different_seeds_differ(self, pyramid):
        params = model1_params(pyramid)
        a = run(pyramid, params, SimConfig(seed=1))
        b = run(pyramid, params, SimConfig(seed=2))
        assert not np.array_equal(a.steady_estimate, b.steady_estimate)
        assert a != b

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
