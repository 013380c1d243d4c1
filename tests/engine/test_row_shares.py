"""Today's search engine, pinned case by case: a generation split into
row shares on worker threads, the shares' thread behaviour, and the stream
position a share keeps. The law (the search equals ``reference_optimize``
bit for bit) and the tiles are tested in ``test_model2.py``; this file
goes when the row shares go."""

import os
import sys
import threading

import numpy as np
import pytest

from agedist import model2, optimize, parallel
from agedist.model2 import DEConfig, default_bounds, mae_objective

from oracles import reference_mae_objective, reference_optimize
from test_model2 import coarse_error, hump_target, scoring_log


class TestObjective:
    """One objective instance scores on several threads at once, as the
    row shares score."""

    def test_threads_share_one_instance(self):
        # No state of its own: each thread scores in its own scratch.
        target = hump_target(21)
        evaluate = mae_objective(target)
        theirs = reference_mae_objective(target.proportions)
        bounds = default_bounds(21)
        batches = [np.random.default_rng(seed).uniform(bounds[:, 0], bounds[:, 1], size=(60, 42))
                   for seed in range(6)]
        results = [[] for _ in batches]

        def work(i):
            scratch = np.empty((60, 42))
            for _ in range(20):
                results[i].append(evaluate(batches[i], scratch))

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(batches))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for batch, got in zip(batches, results):
            want = theirs(batch)
            assert len(got) == 20 and all(np.array_equal(g, want) for g in got)


def scorer_threads(monkeypatch):
    """Wrap the built-in objective so that every share's scorer records the
    thread it runs on and the rows it scores."""
    seen = []
    make = model2.mae_objective

    def recording(target):
        evaluate = make(target)

        def score(candidates, scratch=None):
            seen.append((threading.get_ident(), len(candidates)))
            return evaluate(candidates, scratch)

        return score

    monkeypatch.setattr(model2, "mae_objective", recording)
    return seen


SHARE_CASES = [
    (21, DEConfig(seed=0, max_iterations=25)),
    (21, DEConfig(seed=7, max_iterations=20)),
    (101, DEConfig(seed=1, max_iterations=3)),
    (101, DEConfig(seed=2, max_iterations=2)),
    (21, DEConfig(seed=6, population_size=11, max_iterations=40)),
    (101, DEConfig(seed=3, population_size=9, max_iterations=30)),
]
SHARE_IDS = ["n21", "n21-seed7", "n101", "n101-seed2",
             "n21-own-population", "n101-own-population"]


class TestRowShares:
    """A generation split into row shares gives the serial result bit for
    bit, whatever the share count."""

    @pytest.mark.parametrize("count", [1, 2, 3])
    @pytest.mark.parametrize("n, config", SHARE_CASES, ids=SHARE_IDS)
    def test_bitwise_equal_to_reference(self, split, n, config, count):
        split(count)
        target = hump_target(n)
        sol = optimize(target, config)
        probs, rates, mae, iterations = reference_optimize(target.proportions, config)
        assert np.array_equal(sol.survival.probs, probs)
        assert np.array_equal(sol.activation.rates, rates)
        assert (sol.mae, sol.iterations_used) == (mae, iterations)

    @pytest.mark.parametrize("n, config", SHARE_CASES[4:], ids=SHARE_IDS[4:])
    def test_one_row_per_share(self, split, monkeypatch, n, config):
        # Only small populations: a share per row means a thread per row.
        # More threads than CPUs, switching as often as the interpreter
        # allows, so that a share reading a row another share writes shows.
        split(config.population_size)
        seen = scorer_threads(monkeypatch)
        target = hump_target(n)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sol = optimize(target, config)
        finally:
            sys.setswitchinterval(interval)
        probs, rates, mae, iterations = reference_optimize(target.proportions, config)
        assert np.array_equal(sol.survival.probs, probs)
        assert np.array_equal(sol.activation.rates, rates)
        assert (sol.mae, sol.iterations_used) == (mae, iterations)
        assert {rows for _, rows in seen} == {1}
        assert len(seen) == config.population_size * (iterations + 1)

    @pytest.mark.parametrize("count", [2, 3, 11])
    def test_hooks_unchanged(self, split, monkeypatch, count):
        split(count)
        target = hump_target(21)
        config = DEConfig(seed=9, population_size=11, max_iterations=40)
        calls, theirs = [], []

        def make(t):
            score = coarse_error(target)

            def hook(candidates, scratch=None):
                calls.append((threading.get_ident(), candidates.shape))
                return score(candidates, scratch)

            return hook

        monkeypatch.setattr(model2, "mae_objective", make)
        sol = optimize(target, config)
        ours = list(sol.history)
        probs, rates, mae, iterations = reference_optimize(
            target.proportions, config, objective=coarse_error(target), history=theirs)
        assert ours == theirs
        assert np.array_equal(sol.survival.probs, probs)
        assert (sol.mae, sol.iterations_used) == (mae, iterations)
        # Each share scores its own rows, once for the initial population
        # and once per generation; the calling thread takes a share.
        assert len(calls) == count * (iterations + 1)
        assert sum(rows for _, (rows, _) in calls) == 11 * (iterations + 1)
        assert {columns for _, (_, columns) in calls} == {42}
        assert threading.get_ident() in {ident for ident, _ in calls}

    def test_history_bitwise_equal_across_share_counts(self, split):
        target = hump_target(101)
        config = DEConfig(seed=4, max_iterations=4)
        histories = []
        for count in (1, 2, 3):
            split(count)
            histories.append(optimize(target, config).history)
        assert histories[0] == histories[1] == histories[2]
        assert len(histories[0]) == 5

    def test_calling_thread_takes_a_share(self, split, monkeypatch):
        split(3)
        # One tile a share, then four of 52-53 rows.
        for tile_rows, tiles in ((None, 3), (64, 12)):
            with monkeypatch.context() as patch:
                if tile_rows:
                    patch.setattr(model2, "TILE_ENTRIES", 42 * tile_rows)
                generations = scoring_log(patch)
                optimize(hump_target(21), DEConfig(seed=0, max_iterations=4))
            assert len(generations) == 5
            threads = set()
            for calls in generations:
                # Every row once; each share's 210 rows on one thread, the
                # first share's on the calling thread.
                assert len(calls) == tiles
                scorer = {}
                for ident, rows, _ in calls:
                    for row in rows:
                        assert scorer.setdefault(row, ident) == ident
                assert sorted(scorer) == list(range(630))
                assert sum(len(rows) for _, rows, _ in calls) == 630
                owners = [{scorer[row] for row in range(a, a + 210)} for a in (0, 210, 420)]
                assert all(len(owner) == 1 for owner in owners)
                assert owners[0] == {threading.get_ident()}
                threads |= set.union(*owners)
            assert len(threads) == 3

    def test_no_worker_outlives_the_search(self, split):
        split(3)
        before = threading.active_count()
        optimize(hump_target(21), DEConfig(seed=0, max_iterations=4))
        assert threading.active_count() == before

    def test_worker_error_reaches_the_caller(self, split, monkeypatch):
        split(2)
        caller = threading.get_ident()
        make = model2.mae_objective

        def failing(target):
            evaluate = make(target)

            def score(candidates, scratch=None):
                if threading.get_ident() != caller:
                    raise MemoryError("worker share failed")
                return evaluate(candidates, scratch)

            return score

        monkeypatch.setattr(model2, "mae_objective", failing)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="worker share failed"):
            optimize(hump_target(21), DEConfig(seed=0, max_iterations=4))
        assert threading.active_count() == before

    def test_concurrent_searches_equal_serial_ones(self, split):
        split(2)
        jobs = [(hump_target(101), DEConfig(seed=1, max_iterations=3)),
                (hump_target(41), DEConfig(seed=5, max_iterations=6))]
        serial = [optimize(target, config) for target, config in jobs]
        results = [None, None]

        def solve(i):
            results[i] = optimize(*jobs[i])

        threads = [threading.Thread(target=solve, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
            assert not thread.is_alive()
        for got, want in zip(results, serial):
            assert np.array_equal(got.survival.probs, want.survival.probs)
            assert np.array_equal(got.activation.rates, want.activation.rates)
            assert (got.mae, got.iterations_used) == (want.mae, want.iterations_used)

    def test_at_most_one_share_per_tile(self, monkeypatch):
        monkeypatch.setattr(parallel, "cpu_count", lambda: 64)
        # The cascade's 21-group search: 630 rows x 42 entries, one tile.
        assert parallel.shares(630, model2.TILE_ENTRIES // 42) == [slice(0, 630)]
        # A 42-group one: 1260 rows in one tile of up to 1309.
        assert parallel.shares(1260, model2.TILE_ENTRIES // 84) == [slice(0, 1260)]
        height = model2.TILE_ENTRIES // 202
        assert len(parallel.shares(3030, height)) == -(-3030 // height) == 6

    @pytest.mark.parametrize("cpus", [1, 2, 3, 6, 8, 64])
    def test_shares_cover_the_rows_in_order(self, monkeypatch, cpus):
        monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
        height = model2.TILE_ENTRIES // 202
        shares = parallel.shares(3030, height)
        assert len(shares) == min(cpus, 6)
        assert shares[0].start == 0 and shares[-1].stop == 3030
        assert all(a.stop == b.start for a, b in zip(shares, shares[1:]))
        sizes = [s.stop - s.start for s in shares]
        # At least one tile of the generation cut whole (505 rows) each.
        tile = min(t.stop - t.start for t in model2._tiles(slice(0, 3030), height))
        assert max(sizes) - min(sizes) <= 1 and min(sizes) >= tile

    def test_two_cpus_cut_the_fine_grid_as_before(self, monkeypatch):
        # 3030 x 202 rows: two shares of three 505-row tiles each.
        monkeypatch.setattr(parallel, "cpu_count", lambda: 2)
        height = model2.TILE_ENTRIES // 202
        shares = parallel.shares(3030, height)
        assert shares == [slice(0, 1515), slice(1515, 3030)]
        assert [[tile.stop - tile.start for tile in model2._tiles(rows, height)]
                for rows in shares] == [[505] * 3] * 2

    def test_cpu_count_follows_affinity(self):
        if hasattr(os, "sched_getaffinity"):
            assert parallel.cpu_count() == len(os.sched_getaffinity(0))
        assert parallel.cpu_count() >= 1


class TestBufferedRandomHalf:
    """A bounded integer draw takes 32 bits and buffers the other half of
    its 64-bit output. With an odd population, every other generation's
    forced components leave one buffered, and the next generation's row
    pairs take an even count, so it is still there after them. Skipping the
    crossover uniforms must keep it for the forced components, as drawing
    them would."""

    N = 11
    CONFIG = DEConfig(seed=8, population_size=15, max_iterations=30)

    @pytest.mark.parametrize("count", [1, 2, 3, 15], ids=["1", "2", "3", "row-each"])
    def test_bitwise_equal_to_reference(self, split, monkeypatch, count):
        split(count)
        buffered = []
        pairs = model2._distinct_pairs

        def recording(rng, m):
            drawn = pairs(rng, m)
            buffered.append(rng.bit_generator.state["has_uint32"])
            return drawn

        monkeypatch.setattr(model2, "_distinct_pairs", recording)
        target = hump_target(self.N)
        sol = optimize(target, self.CONFIG)
        probs, rates, mae, iterations = reference_optimize(target.proportions, self.CONFIG)
        assert np.array_equal(sol.survival.probs, probs)
        assert np.array_equal(sol.activation.rates, rates)
        assert (sol.mae, sol.iterations_used) == (mae, iterations)
        assert len(buffered) == iterations == self.CONFIG.max_iterations
        assert buffered == [g % 2 for g in range(iterations)]
