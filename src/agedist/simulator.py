"""Stochastic forward simulation of both ageing processes.

Used to check that solved parameters really do pull a finite population onto
the intended stationary profile. Agents of a group are alike, so a run
carries only the group counts. Each step takes the agents as sorted by group
and draws one uniform per agent, in that order, from the run's single seeded
generator: an agent of group i advances one group below ``alpha_i p_i`` (the
last group keeps its survivors), dies between ``alpha_i p_i`` and
``alpha_i``, and stays inactive above (``alpha = 1`` in the plain process),
the thresholds that ``distributions.step_thresholds`` gives. Every death is
replaced by a fresh agent in group 1, so the population size never changes.
The counts are, bit for bit, those of the per-agent single-draw update on
the group-sorted agents, sorted again after every step
(``reference_sorted_run`` in ``tests/oracles.py``). A run starts from the
distribution it is given: a uniform one starts from equal shares.

``run_many`` simulates a batch of parameter sets under one config. Runs of
one config read the same uniform stream whatever their counts, so the batch
draws it once and every member counts its own groups against it; each
member's results are bit for bit those of its own ``run``, which is a batch
of one. The uniforms are drawn in chunks of ``BLOCK``, counted one group
segment at a time for a member whose groups average at least ``BLOCK / 5``
agents (``by_segment``) and in tiles for narrower ones, and a step's chunks
are split over the CPUs as ``parallel`` states. Results do not depend on
the chunk size, the tile size, the counting path or the CPU count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import parallel
from .distributions import (
    SUM_TOLERANCE, ModelParams, _Value, check_integer, check_seed, default_labels, proportions_of,
    step_thresholds)
from .errors import NotNormalized, ResidualCheckFailed

#: Uniforms per chunk of a step, and agents per tile of batch members: a
#: tile's uniforms, repeated thresholds and flags (about 0.5 MB) fit in a
#: per-core L2 cache. Chunks are the units a step's work is split in over
#: the CPUs, so runs of at most this many agents use one thread. Results do
#: not depend on it.
BLOCK = 32_768


@dataclass(frozen=True)
class SimConfig:
    """Run settings, frozen once checked; integer fields are stored as Python
    ints, so that no numpy dtype a caller passes sets the run's arithmetic."""

    num_agents: int = 10_000
    num_steps: int = 350
    seed: int = 0
    #: Steps discarded before time-averaging the steady-state estimate;
    #: None keeps all but the final seventh of the steps (300 of 350).
    burn_in: Optional[int] = None
    record_trajectory: bool = False

    def __post_init__(self):
        if not isinstance(self.record_trajectory, (bool, np.bool_)):
            raise ValueError(f"record_trajectory must be a bool, not {self.record_trajectory!r}")
        object.__setattr__(self, "num_agents", check_integer("num_agents", self.num_agents))
        object.__setattr__(self, "num_steps", check_integer("num_steps", self.num_steps))
        if self.num_agents < 1 or self.num_steps < 1:
            raise ValueError("num_agents and num_steps must be positive")
        if self.burn_in is None:
            object.__setattr__(self, "burn_in", self.num_steps - max(1, self.num_steps // 7))
        object.__setattr__(self, "burn_in", check_integer("burn_in", self.burn_in))
        if not 0 <= self.burn_in < self.num_steps:
            raise ValueError("burn_in must satisfy 0 <= burn_in < num_steps")
        object.__setattr__(self, "seed", check_seed(self.seed))


@dataclass(frozen=True, eq=False)
class SimResult(_Value):
    """Measured outputs of one run, equal to another with equal fields.

    The measured vectors are plain, writable proportion arrays, compared by
    value, rather than AgeDistribution values: a small group can stay empty
    for a whole run, which a validated distribution may not represent.
    """

    labels: tuple
    steady_estimate: np.ndarray
    final_snapshot: np.ndarray
    trajectory: Optional[np.ndarray]
    total_deaths: int
    seed: int


def apportion(proportions, total: int) -> np.ndarray:
    """Largest-remainder rounding of ``proportions * total`` to integers.

    Remainder seats go to the largest fractional parts; equal fractions are
    broken by group order, so the result is deterministic.
    """
    props = proportions_of(proportions)
    quotas = props * total
    counts = np.floor(quotas).astype(np.int64)
    missing = total - int(counts.sum())
    if missing > 0:
        order = np.argsort(-(quotas - counts), kind="stable")
        counts[order[:missing]] += 1
    return counts


def start_counts(target, config: SimConfig) -> np.ndarray:
    """Group counts at step 0: the start distribution ``target``
    apportioned to ``config.num_agents``. A target whose proportions do not
    sum to 1, or include a negative one, raises NotNormalized."""
    props = proportions_of(target)
    total = float(props.sum())
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise NotNormalized(f"target proportions sum to {total!r}, not 1")
    if props.min() < 0:
        raise NotNormalized(f"target has a negative proportion, {float(props.min())!r}")
    return apportion(props, config.num_agents)


def run(target, params: ModelParams, config: Optional[SimConfig] = None) -> SimResult:
    """Simulate ``config.num_steps`` steps of one parameter set from the
    start distribution ``target`` and estimate its steady state:
    ``run_many`` on a batch of one."""
    return run_many([target], [params], config)[0]


def run_many(targets, params, config: Optional[SimConfig] = None) -> list:
    """Simulate every (target, parameter set) pair under one config; returns
    one SimResult per pair, in order.

    Each member starts at its target, apportioned by ``start_counts``, and
    takes its labels from it. The state is the group counts. Each step
    draws one uniform per agent, once for the whole batch, from the
    config's seeded generator, and every member reads that same stream in
    its own group order. So each member's results are, bit for bit, those
    of its own ``run``, and its counts those of the per-agent single-draw
    update on its group-sorted agents sorted again after every step. The
    estimate is the time-average of the per-step group proportions over the
    steps after ``burn_in``; the final snapshot is also reported.
    Deterministic for a given seed, and bit for bit the same whatever the
    CPU count.

    Raises:
        ValueError: a parameter set and its target differ in group count.
        NotNormalized: a target is negative somewhere or does not sum to 1.
        ResidualCheckFailed: a step left a member without exactly
            ``num_agents`` agents, or with a negative count; the message
            names the member by its index in the batch.
    """
    cfg = config if config is not None else SimConfig()
    targets, params = list(targets), list(params)
    if len(targets) != len(params):
        raise ValueError(f"{len(targets)} targets for {len(params)} parameter sets")
    members = [_member(index, target, member, cfg)
               for index, (target, member) in enumerate(zip(targets, params))]
    if not members:
        return []
    # Tiled members before wide ones (by_segment), in each those that never stay first.
    order = sorted(range(len(members)), key=lambda i: (
        by_segment(cfg.num_agents, members[i][1].size), (members[i][2] < 1).any()))
    starts, advance_below, stay_from, labels = zip(*(members[i] for i in order))
    batch = _Batch(advance_below, stay_from, cfg.num_agents)
    first, offsets = batch.first, batch.offsets

    rng = np.random.default_rng(cfg.seed)
    counts = np.concatenate(starts)
    trajectory = np.empty((cfg.num_steps, counts.size)) if cfg.record_trajectory else None
    accumulator = np.zeros(counts.size)
    total_deaths = np.zeros(len(order), dtype=np.int64)
    with parallel.runner(len(batch.shares)) as batch.run:
        for step_index in range(1, cfg.num_steps + 1):
            counts, deaths = batch.step(counts, rng)
            total_deaths += deaths
            tallies = np.add.reduceat(counts, first)
            broken = (tallies != cfg.num_agents) | (np.minimum.reduceat(counts, first) < 0)
            if broken.any():
                k = min(np.flatnonzero(broken), key=lambda k: order[k])
                raise ResidualCheckFailed(
                    f"member {order[k]}: an agent left the age groups: the step's tally "
                    f"holds {tallies[k]} of {cfg.num_agents} agents in counts "
                    f"{counts[offsets[k]:offsets[k + 1]].tolist()}; update rule broken")
            snapshot = counts / cfg.num_agents
            if trajectory is not None:
                trajectory[step_index - 1] = snapshot
            if step_index > cfg.burn_in:
                accumulator += snapshot

    estimate = accumulator / (cfg.num_steps - cfg.burn_in)
    results = [None] * len(order)
    for k, index in enumerate(order):
        part = slice(offsets[k], offsets[k + 1])
        results[index] = SimResult(
            labels=labels[k],
            steady_estimate=estimate[part],
            final_snapshot=snapshot[part],
            trajectory=trajectory[:, part] if trajectory is not None else None,
            total_deaths=int(total_deaths[k]),
            seed=cfg.seed,
        )
    return results


def by_segment(num_agents: int, groups: int) -> bool:
    """Whether a member is counted one group segment at a time: its groups
    average at least ``BLOCK / 5`` agents. On batches of 83 21-group members
    the measured crossover lies between 100,000 agents (4,762 a group;
    faster on one CPU, slower on two) and 150,000 (faster on both)."""
    return 5 * num_agents >= groups * BLOCK


def _member(index: int, target, params: ModelParams, config: SimConfig) -> tuple:
    """A batch member's start counts, advance and stay thresholds
    (``distributions.step_thresholds``), and labels."""
    n = proportions_of(target).size
    if len(params.survival) != n:
        raise ValueError(
            f"member {index}: params have {len(params.survival)} groups, target has {n}")
    labels = tuple(target.labels) if hasattr(target, "labels") else default_labels(n)
    return (start_counts(target, config), *step_thresholds(params), labels)


class _Batch:
    """The members' group counts side by side in one flat vector, and the
    step that counts them all against one shared stream.

    A step draws the uniforms once, in chunks of ``min(num_agents, BLOCK)``.
    Narrow members come first, packed into tiles of at most ``BLOCK``
    agents: per chunk and tile, their thresholds (from ``_member``) are
    repeated over their own uniforms, compared with the chunk by
    broadcasting and counted per group with one ``np.add.reduceat``. Wide
    members (``by_segment``) come last: each non-empty (chunk, group)
    segment is compared once with its group's thresholds. No uniform
    reaches 1, so a tile or segment whose stay thresholds are all 1 (every
    plain member's) skips the stay pass. Each of the step's chunk
    ``shares`` has its own scratch, generator and integer tallies, which
    ``step`` sums; it hands the shares to ``run``, which ``run_many`` sets
    to their ``parallel.runner``.
    """

    def __init__(self, advance_below, stay_from, num_agents: int):
        sizes = [below.size for below in advance_below]
        self.offsets = np.concatenate(([0], np.cumsum(sizes)))
        self.first, self.last = self.offsets[:-1], self.offsets[1:] - 1
        self.num_agents = num_agents
        owner = np.repeat(np.arange(len(sizes)), sizes)
        self.base = owner * self.num_agents
        flat_below, flat_stay = np.concatenate(advance_below), np.concatenate(stay_from)
        width = min(self.num_agents, BLOCK)
        per_tile = max(1, BLOCK // width)
        tiled = sum(not by_segment(self.num_agents, size) for size in sizes)
        # Per tile: its groups, its member count, and its thresholds.
        self.tiles = []
        for a in range(0, tiled, per_tile):
            b = min(a + per_tile, tiled)
            part = slice(int(self.offsets[a]), int(self.offsets[b]))
            stay = flat_stay[part]
            self.tiles.append((part, b - a, flat_below[part], stay if (stay < 1).any() else None))
        self.wide = slice(int(self.offsets[tiled]), None)
        self.wide_below, self.wide_stay = flat_below[self.wide], flat_stay[self.wide]
        self.chunk_starts = np.arange(0, self.num_agents, width)[:, None]
        self.chunk_sizes = np.minimum(width, self.num_agents - self.chunk_starts)
        # Where each group's row starts in its tile's flat flags, per chunk.
        self.row_starts = np.where(owner < tiled, owner % per_tile, 0) * self.chunk_sizes
        self.shares = parallel.shares(len(self.chunk_starts))
        # Per share: the uniforms before its first chunk (every chunk but
        # the last is full width), its uniform row and flags, and the
        # generator that ``parallel.position`` jumps ahead to its chunks.
        self.skips = [share.start * width for share in self.shares]
        self.scratch = [(np.empty(width), np.empty(per_tile * width + 1, dtype=bool))
                        for _ in self.shares]
        self.streams = [np.random.Generator(np.random.PCG64(0)) for _ in self.shares]

    def step(self, counts, rng) -> tuple:
        """One step of every member; returns (new counts, deaths per member).

        Each member takes its agents as sorted by group and the chunk's
        uniforms in order; a group's own uniforms below ``alpha_i p_i``
        count as advances, those from ``alpha_i`` up as stays, the rest as
        deaths, which refill the member's group 1."""
        ends = np.cumsum(counts) - self.base
        # Row k: each group's uniforms within chunk k (an empty group shares
        # the next start), then its start in the tile's flat flags.
        lower = np.clip(ends - counts - self.chunk_starts, 0, self.chunk_sizes)
        sizes = np.clip(ends - self.chunk_starts, 0, self.chunk_sizes) - lower
        lower += self.row_starts
        tallies = np.zeros((len(self.shares), 2, counts.size), dtype=np.int64)
        parallel.position(rng, self.streams, self.skips, self.num_agents)
        self.run(lambda k: self._count(k, sizes, lower, tallies[k]))
        advanced, stayed = tallies.sum(axis=0)
        new_counts = stayed
        new_counts[1:] += advanced[:-1]
        # A member's last group holds its survivors and feeds no other member.
        last = self.last
        new_counts[self.first[1:]] -= advanced[last[:-1]]
        new_counts[last] += advanced[last]
        deaths = self.num_agents - np.add.reduceat(new_counts, self.first)
        new_counts[self.first] += deaths
        return new_counts, deaths

    def _count(self, k, sizes, lower, tally) -> None:
        """Count share k's chunks, drawn from its generator, into
        ``tally``: its advances, then its stays."""
        advanced, stayed = tally
        uniforms, flag_buffer = self.scratch[k]
        share = self.shares[k]
        # The wide members' non-empty (chunk, group) segments, in chunk order.
        counts = sizes[share, self.wide]
        chunk, group = np.nonzero(counts)
        begin = lower[share, self.wide][chunk, group]
        segments = list(zip(begin.tolist(), (begin + counts[chunk, group]).tolist(),
                            self.wide_below[group].tolist(), self.wide_stay[group].tolist()))
        ends = np.searchsorted(chunk, np.arange(1, share.stop - share.start + 1)).tolist()
        advances, stays = [], []
        for size, cuts, starts, end in zip(self.chunk_sizes[share, 0].tolist(),
                                           sizes[share], lower[share], ends):
            # One row, broadcast over the tile's members.
            u = uniforms[:size]
            self.streams[k].random(out=u)
            for part, rows, advance_below, stay_from in self.tiles:
                # A False sentinel closes the tile's last group and gives
                # trailing empty groups a valid start; np.minimum zeroes
                # every empty group, whose reduceat entry is a single flag
                # of the next group.
                flags = flag_buffer[:rows * size + 1]
                flags[-1] = False
                grid = flags[:-1].reshape(rows, size)
                cut, start = cuts[part], starts[part]
                np.less(u, np.repeat(advance_below, cut).reshape(rows, size), out=grid)
                advanced[part] += np.minimum(
                    np.add.reduceat(flags, start, dtype=np.int32), cut)
                if stay_from is not None:
                    np.greater_equal(
                        u, np.repeat(stay_from, cut).reshape(rows, size), out=grid)
                    stayed[part] += np.minimum(
                        np.add.reduceat(flags, start, dtype=np.int32), cut)
            # The chunk's segments, after those already counted; no uniform
            # reaches a stay threshold of 1.
            for low, high, below, stay in segments[len(advances):end]:
                segment = u[low:high]
                advances.append(np.count_nonzero(segment < below))
                stays.append(np.count_nonzero(segment >= stay) if stay < 1 else 0)
        np.add.at(tally[:, self.wide], (slice(None), group), [advances, stays])
