"""Today's simulator engine, pinned case by case: the single-draw kernel
on group-sorted agents (bit for bit against ``reference_sorted_run``), the
tiles and group segments it counts on, ``BLOCK``-sized chunks and their
thread shares, a batch's one shared stream (also as the pipeline's
validation batch reads it), and the step guards, reached by patching
``_Batch``. The laws these cases serve are tested without them in
``test_simulator.py``; this file goes when the engine goes."""

import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from agedist import SimConfig, normalize, parallel, simulator
from agedist.cli import main
from agedist.distributions import ALPHA_MIN, ModelKind, ModelParams
from agedist.errors import NotNormalized, ResidualCheckFailed
from agedist.model1 import steady_state
from agedist.model2 import steady_state2
from agedist.pipeline import Route, run_dataset
from agedist.simulator import run, run_many, start_counts

from oracles import reference_single_draw_step, reference_sorted_run, reference_step
from test_pipeline import HUGE_LAST, HUMP, MONO, STEEP, flat_then_humped
from test_simulator import ACTIVATION, SURVIVAL, batch_members, model1_params, one_step


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
    if result is None:
        result = run(target, params, config)
    start = np.repeat(np.arange(len(params.survival)), start_counts(target, config))
    trajectory, estimate, deaths = reference_sorted_run(
        start, params.survival.probs, params.activation.rates, config)
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


@st.composite
def plain_runs(draw):
    """A survival vector, a start target of its length (empty groups
    allowed), activation rates of its length and a config, whose 1 to
    40,000 agents reach both counting paths. Returns (survival, target,
    rates, config)."""
    n = draw(st.integers(3, 8))
    survival = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    survival[-1] = draw(st.floats(0.0, 0.999))
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    assume(weights.sum() > 0)
    rates = draw(st.lists(st.floats(ALPHA_MIN, 1.0), min_size=n, max_size=n))
    steps = draw(st.integers(1, 6))
    config = SimConfig(num_agents=draw(st.integers(1, 300) | st.integers(13_000, 40_000)),
                       num_steps=steps, burn_in=draw(st.integers(0, steps - 1)),
                       seed=draw(st.integers(0, 2**64 - 1)))
    return survival, weights / weights.sum(), rates, config


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

    @given(plain_runs())
    @settings(max_examples=60, deadline=None)
    def test_plain_members_step_as_unit_activation(self, case):
        # A plain set and its twin with every activation rate 1 give the
        # same results bit for bit, alone and side by side in one batch
        # with an activated member.
        survival, target, rates, config = case
        plain = ModelParams(kind=ModelKind.MODEL1, survival=survival)
        unit = ModelParams(kind=ModelKind.MODEL2, survival=survival,
                           activation=np.ones(len(survival)))
        activated = ModelParams(kind=ModelKind.MODEL2, survival=survival, activation=rates)
        expected = run(target, plain, config)
        alone = run(target, unit, config)
        _, *batch = run_many([target] * 3, [activated, unit, plain], config)
        for result in (alone, *batch):
            assert np.array_equal(result.steady_estimate, expected.steady_estimate)
            assert np.array_equal(result.final_snapshot, expected.final_snapshot)
            assert result.total_deaths == expected.total_deaths

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


def share_threads():
    """Names of the share runner's worker threads that are alive."""
    return [thread.name for thread in threading.enumerate()
            if thread.name.startswith("agedist-share")]


def recording_shares(monkeypatch):
    """Wrap ``_Batch._count`` so that every share records its index and
    the thread it ran on."""
    seen = []
    count = simulator._Batch._count

    def recording(self, k, *args):
        seen.append((k, threading.get_ident()))
        return count(self, k, *args)

    monkeypatch.setattr(simulator._Batch, "_count", recording)
    return seen


class TestChunkShares:
    """A step's chunks are counted in shares, one per CPU; results do not
    depend on the share count."""

    @pytest.mark.parametrize("block", [7, 500, 1000])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_results_independent_of_share_count(self, cpus, block, monkeypatch):
        targets, params = batch_members()
        # numpy integers: SimConfig stores them as Python ints, which is
        # what PCG64.advance takes for the stream offsets.
        config = SimConfig(num_agents=np.int64(1500), num_steps=8, burn_in=3,
                           seed=np.uint64(19), record_trajectory=True)
        serial = run_many(targets, params, config)
        monkeypatch.setattr(simulator, "BLOCK", block)
        monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
        chunks = -(-1500 // block)
        assert len(parallel.shares(chunks)) == min(cpus, chunks)
        seen = recording_shares(monkeypatch)
        results = assert_batch_matches_own_runs(targets, params, config)
        assert {k for k, _ in seen} == set(range(min(cpus, chunks)))
        for got, want in zip(results, serial):
            assert np.array_equal(got.steady_estimate, want.steady_estimate)
            assert np.array_equal(got.final_snapshot, want.final_snapshot)
            assert np.array_equal(got.trajectory, want.trajectory)
            assert got.total_deaths == want.total_deaths


class TestThreadHygiene:
    @pytest.fixture(autouse=True)
    def two_shares(self, monkeypatch):
        monkeypatch.setattr(simulator, "BLOCK", 500)
        monkeypatch.setattr(parallel, "cpu_count", lambda: 2)

    def test_no_worker_outlives_the_run(self, monkeypatch):
        seen = recording_shares(monkeypatch)
        targets, params = batch_members()
        config = SimConfig(num_agents=1500, num_steps=6, burn_in=2, seed=4)
        run_many(targets, params, config)
        # Share 1 ran on a second thread, which ended with the call.
        assert {k for k, _ in seen} == {0, 1}
        assert len({ident for _, ident in seen}) == 2
        assert (0, threading.get_ident()) in seen
        assert share_threads() == []
        run(targets[0], params[0], config)
        assert share_threads() == []

    def test_worker_failure_surfaces_unchanged(self, monkeypatch):
        failure = RuntimeError("share 1 failed")
        count = simulator._Batch._count

        def failing(self, k, *args):
            if k == 1:
                raise failure
            return count(self, k, *args)

        monkeypatch.setattr(simulator._Batch, "_count", failing)
        targets, params = batch_members()
        with pytest.raises(RuntimeError) as raised:
            run_many(targets, params, SimConfig(num_agents=1500, num_steps=6, burn_in=2))
        assert raised.value is failure
        assert share_threads() == []

    def test_one_chunk_starts_no_thread(self, monkeypatch):
        def no_thread(self):
            raise AssertionError("started a thread for a one-chunk batch")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        seen = recording_shares(monkeypatch)
        targets, params = batch_members()
        config = SimConfig(num_agents=500, num_steps=6, burn_in=2, seed=4,
                           record_trajectory=True)
        assert_batch_matches_own_runs(targets, params, config)
        assert set(seen) == {(0, threading.get_ident())}


def path_calls(monkeypatch):
    """Count the calls that mark each counting path: ``np.less`` compares a
    tile's chunk with its repeated thresholds, ``np.count_nonzero`` counts
    the hits of one group segment."""
    calls = Counter()
    for name in ("less", "count_nonzero"):
        def recording(*args, name=name, call=getattr(np, name), **kwargs):
            calls[name] += 1
            return call(*args, **kwargs)
        monkeypatch.setattr(np, name, recording)
    return calls


class TestCountingPaths:
    """The kernel's edge cases and the batch and share tests again, once
    with every member packed into tiles and once with every member counted
    by segment, whatever its width."""

    @pytest.fixture(autouse=True, params=["tiles", "segments"])
    def counting(self, request, monkeypatch):
        monkeypatch.setattr(simulator, "by_segment",
                            lambda num_agents, groups: request.param == "segments")

    # Each assignment collects an existing test, with its parameters, once
    # per path.
    test_single_agent = TestMatchesSortedRun.test_single_agent
    test_fewer_agents_than_groups = TestMatchesSortedRun.test_fewer_agents_than_groups
    test_group_edge_on_chunk_edge = TestMatchesSortedRun.test_group_edge_on_chunk_edge
    test_uniform_on_a_threshold = TestMatchesSortedRun.test_uniform_on_a_threshold
    test_results_independent_of_block_size = TestBlocking.test_results_independent_of_block_size
    test_members_match_their_own_runs = TestRunMany.test_members_match_their_own_runs
    test_uniform_start_without_trajectory = TestRunMany.test_uniform_start_without_trajectory
    test_results_independent_of_share_count = \
        TestChunkShares.test_results_independent_of_share_count


class TestSegments:
    """Wide members, counted by segment under the width rule (``BLOCK``
    patched to 64), against the sorted per-agent run on 1 to 3 CPUs."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("activation", [None, ACTIVATION])
    @pytest.mark.parametrize("counts", [
        pytest.param([63, 64, 65], id="groups-of-block-1-block-block+1"),
        pytest.param([10, 300, 10], id="a-group-over-five-chunks"),
        pytest.param([30, 0, 50, 0, 60], id="empty-groups-inside-chunks"),
        pytest.param([64, 128, 64], id="group-edges-on-chunk-edges"),
    ])
    def test_matches_sorted_run(self, counts, activation, cpus, monkeypatch):
        monkeypatch.setattr(simulator, "BLOCK", 64)
        monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
        n, total = len(counts), sum(counts)
        rates = None if activation is None else activation[:n]
        params = ModelParams(kind=ModelKind.MODEL1 if rates is None else ModelKind.MODEL2,
                             survival=SURVIVAL[:n], activation=rates)
        target = np.array(counts) / total
        config = SimConfig(num_agents=total, num_steps=12, burn_in=4, seed=23,
                           record_trajectory=True)
        assert start_counts(target, config).tolist() == counts
        assert simulator.by_segment(total, n)
        calls = path_calls(monkeypatch)
        result = run(target, params, config)
        assert set(calls) == {"count_nonzero"}
        assert_matches_sorted_run(target, params, config, result)


class TestPathChoice:
    """A member is counted by segment when its groups average at least a
    fifth of a chunk of agents, and packed into tiles otherwise."""

    def test_narrow_batch_packs_tiles(self, monkeypatch):
        targets, params = batch_members()
        calls = path_calls(monkeypatch)
        run_many(targets, params, SimConfig(num_agents=10_000, num_steps=3, burn_in=1))
        assert set(calls) == {"less"}

    @pytest.mark.parametrize("num_agents, path",
                             [(137_625, "less"), (137_626, "count_nonzero")])
    def test_crossover_width(self, num_agents, path, monkeypatch):
        # 21 groups average a fifth of a 32,768-uniform chunk from 137,626
        # agents up.
        survival = np.append(np.full(20, 0.95), 0.5)
        params = ModelParams(kind=ModelKind.MODEL1, survival=survival)
        calls = path_calls(monkeypatch)
        run(steady_state(survival), params,
            SimConfig(num_agents=num_agents, num_steps=2, burn_in=1))
        assert set(calls) == {path}

    def test_mixed_batch_counts_on_both_paths(self, monkeypatch):
        # At 40,000 agents the 3-, 4- and 5-group members are wide and the
        # 7-group members narrow.
        targets, params = batch_members()
        config = SimConfig(num_agents=40_000, num_steps=3, burn_in=1, seed=9,
                           record_trajectory=True)
        assert [simulator.by_segment(40_000, len(t)) for t in targets] == [
            True, True, False, True, False, True]
        calls = path_calls(monkeypatch)
        results = run_many(targets, params, config)
        assert set(calls) == {"less", "count_nonzero"}
        for target, member, result in zip(targets, params, results):
            assert_matches_sorted_run(target, member, config, result)


class TestRun:
    """The step guard and the up-front target check, reached by patching
    ``_Batch.step``."""

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
        # agents and fail after step 1, blaming the update rule. A negative
        # proportion in a sum of 1 would have its count dropped by the
        # clipped chunk ranges, and the run would go on.
        def no_step(*args):
            raise AssertionError("stepped an unnormalized target")

        monkeypatch.setattr(simulator._Batch, "step", no_step)
        params = ModelParams(kind=ModelKind.MODEL1, survival=np.full(5, 0.5))
        config = SimConfig(num_agents=1000, num_steps=5, burn_in=1)
        for target, message in ((np.ones(5), "sum to"), (np.full(5, 0.2 + 1e-11), "sum to"),
                                ([1.5, -0.5, 0.0, 0.0, 0.0], "negative proportion, -0.5")):
            with pytest.raises(NotNormalized, match=message):
                run(target, params, config)
            # One bad member stops the whole batch before any draw.
            with pytest.raises(NotNormalized, match=message):
                run_many([np.full(5, 0.2), target], [params, params], config)


class TestRunDataset:
    """The validation batch as today's engine runs it: one shared stream,
    and a step broken by patching ``_Batch.step``."""

    def test_validation_runs_match_single_entries(self, sim_config):
        # One batch for the dataset gives every entry the validation run
        # that a dataset of that entry alone gets.
        dataset = [("hump", HUMP), ("mono", MONO), ("steep", STEEP),
                   ("stubborn", flat_then_humped()), ("huge", HUGE_LAST)]
        report = run_dataset(dataset, sim_config)
        for name, dist in dataset:
            single = run_dataset([(name, dist)], sim_config).per_country[name]
            res = report.per_country[name]
            assert res.route is single.route
            assert res.sim_mae == single.solution.params.diagnostics["sim_mae"]

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
            assert result.solution is None and result.sim_mae is None
            assert "an agent left the age groups" in result.failure_reason
            assert result.failure_reason.startswith("member ")


class TestPipeline:
    """``agedist pipeline`` writes the same files whatever the CPU count."""

    def test_output_tree_independent_of_cpu_count(self, dataset, tmp_path, monkeypatch):
        # 600 agents in chunks of 250 are three chunks: one share on one
        # CPU, two on two.
        monkeypatch.setattr(simulator, "BLOCK", 250)
        seen = recording_shares(monkeypatch)
        trees = []
        for cpus in (1, 2):
            monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
            seen.clear()
            out_dir = tmp_path / f"cpus-{cpus}"
            assert main([
                "pipeline", "--input", str(dataset), "--out-dir", str(out_dir),
                "--agents", "600", "--steps", "30",
            ]) == 0
            assert {k for k, _ in seen} == set(range(cpus))
            trees.append({path.relative_to(out_dir).as_posix(): path.read_bytes()
                          for path in out_dir.rglob("*") if path.is_file()})
        assert "summary.json" in trees[0]
        assert trees[0] == trees[1]
