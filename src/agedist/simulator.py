"""Stochastic forward simulation of both ageing processes.

Used to check that solved parameters really do pull a finite population onto
the intended stationary profile. Agents of a group are alike, so a run
carries only the group counts. Each step takes the agents as sorted by group
and draws one uniform per agent, in that order, from the run's single seeded
generator: an agent of group i advances one group below ``alpha_i p_i`` (the
last group keeps its survivors), dies between ``alpha_i p_i`` and
``alpha_i``, and stays inactive above (``alpha = 1`` in the plain process).
Every death is replaced by a fresh agent in group 1, so the population size
never changes. The counts are, bit for bit, those of the per-agent
single-draw update on the group-sorted agents, sorted again after every
step (``reference_sorted_run`` in ``tests/oracles.py``). A run starts from
the distribution it is given: a uniform one starts from equal shares.

``run_many`` simulates a batch of parameter sets under one config. Runs of
one config read the same uniform stream whatever their counts, so the batch
draws it once and every member counts its own groups against it; each
member's results are bit for bit those of its own ``run``, which is a batch
of one. The uniforms are drawn in chunks of ``BLOCK``; results do not depend
on it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataio import write_csv
from .distributions import SUM_TOLERANCE, ModelParams, default_labels, proportions_of
from .errors import NotNormalized, ResidualCheckFailed

#: Uniforms per chunk of a step, and agents per tile of batch members: a
#: tile's uniforms, repeated thresholds and flags (about 0.5 MB) fit in a
#: per-core L2 cache. Results do not depend on it.
BLOCK = 32_768


@dataclass
class SimConfig:
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
        for name in ("num_agents", "num_steps", "burn_in", "seed"):
            value = getattr(self, name)
            if name == "burn_in" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if self.num_agents < 1 or self.num_steps < 1:
            raise ValueError("num_agents and num_steps must be positive")
        if self.burn_in is None:
            self.burn_in = self.num_steps - max(1, self.num_steps // 7)
        if not 0 <= self.burn_in < self.num_steps:
            raise ValueError("burn_in must satisfy 0 <= burn_in < num_steps")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass
class SimResult:
    """Measured outputs of one run.

    The measured vectors are plain proportion arrays rather than
    AgeDistribution values: a small group can legitimately stay empty for a
    whole run, which a validated distribution may not represent.
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
    sum to 1 raises NotNormalized."""
    props = proportions_of(target)
    total = float(props.sum())
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise NotNormalized(f"target proportions sum to {total!r}, not 1")
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
    Deterministic for a given seed.

    Raises:
        ValueError: a parameter set and its target differ in group count.
        NotNormalized: a target's proportions do not sum to 1.
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
    # Plain members first, so that tiles of plain members skip the stay pass.
    order = sorted(range(len(members)), key=lambda i: members[i][2] is not None)
    starts, advance_below, stay_from, labels = zip(*(members[i] for i in order))
    batch = _Batch(advance_below, stay_from, cfg.num_agents)
    first, offsets = batch.first, batch.offsets

    rng = np.random.default_rng(cfg.seed)
    counts = np.concatenate(starts)
    trajectory = np.empty((cfg.num_steps, counts.size)) if cfg.record_trajectory else None
    accumulator = np.zeros(counts.size)
    total_deaths = np.zeros(len(order), dtype=np.int64)
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


def _member(index: int, target, params: ModelParams, config: SimConfig) -> tuple:
    """A batch member's start counts, advance and stay thresholds, and
    labels: advance below ``alpha * p``, stay from ``alpha`` up; a plain
    member advances below ``p`` and has no stay threshold."""
    n = proportions_of(target).size
    survival = params.survival.probs
    if survival.size != n:
        raise ValueError(
            f"member {index}: params have {survival.size} groups, target has {n}")
    rates = params.activation.rates if params.activation is not None else None
    advance_below = survival if rates is None else rates * survival
    labels = tuple(target.labels) if hasattr(target, "labels") else default_labels(n)
    return start_counts(target, config), advance_below, rates, labels


class _Batch:
    """The members' group counts side by side in one flat vector, and the
    step that counts them all against one shared stream.

    A step draws the uniforms once, in chunks of ``min(num_agents, BLOCK)``.
    Members are packed into tiles of at most ``BLOCK`` agents (one member a
    tile when a chunk is full width). Per chunk and tile, the members'
    thresholds (from ``_member``) are repeated over their own uniforms into
    one (members, chunk) row set, compared with the chunk by broadcasting
    and counted per group with one ``np.add.reduceat``.
    """

    def __init__(self, advance_below, stay_from, num_agents: int):
        sizes = [below.size for below in advance_below]
        self.offsets = np.concatenate(([0], np.cumsum(sizes)))
        self.first, self.last = self.offsets[:-1], self.offsets[1:] - 1
        self.num_agents = num_agents
        owner = np.repeat(np.arange(len(sizes)), sizes)
        self.base = owner * num_agents
        flat_below = np.concatenate(advance_below)
        # A plain member never stays: no uniform reaches 1.
        flat_stay = np.concatenate([
            np.ones(below.size) if stay is None else stay
            for below, stay in zip(advance_below, stay_from)])
        width = min(num_agents, BLOCK)
        per_tile = max(1, BLOCK // width)
        # Per tile: its groups, its member count, and its thresholds; a tile
        # of plain members skips the stay pass.
        self.tiles = []
        for a in range(0, len(sizes), per_tile):
            b = min(a + per_tile, len(sizes))
            part = slice(int(self.offsets[a]), int(self.offsets[b]))
            activated = any(stay is not None for stay in stay_from[a:b])
            self.tiles.append((part, b - a, flat_below[part],
                               flat_stay[part] if activated else None))
        self.chunk_starts = np.arange(0, num_agents, width)[:, None]
        self.chunk_sizes = np.minimum(width, num_agents - self.chunk_starts)
        # Where each group's row starts in its tile's flat flags, per chunk.
        self.row_starts = (owner % per_tile) * self.chunk_sizes
        self.uniforms = np.empty((1, width))
        self.flags = np.empty(per_tile * width + 1, dtype=bool)

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
        advanced, stayed = np.zeros((2, counts.size), dtype=np.int64)
        for size, cuts, starts in zip(self.chunk_sizes[:, 0].tolist(), sizes, lower):
            # One row, broadcast over the tile's members.
            u = self.uniforms[:, :size]
            rng.random(out=u)
            for part, rows, advance_below, stay_from in self.tiles:
                # A False sentinel closes the tile's last group and gives
                # trailing empty groups a valid start; np.minimum zeroes
                # every empty group, whose reduceat entry is a single flag
                # of the next group.
                flags = self.flags[:rows * size + 1]
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
        new_counts = stayed
        new_counts[1:] += advanced[:-1]
        # A member's last group holds its survivors and feeds no other member.
        last = self.last
        new_counts[self.first[1:]] -= advanced[last[:-1]]
        new_counts[last] += advanced[last]
        deaths = self.num_agents - np.add.reduceat(new_counts, self.first)
        new_counts[self.first] += deaths
        return new_counts, deaths


def write_trajectory_csv(result: SimResult, path) -> None:
    """One row per step: step index, then per-group proportions to 10
    significant digits."""
    if result.trajectory is None:
        raise ValueError("run was executed without record_trajectory")
    write_csv(path, ["step", *result.labels],
              ([i, *row] for i, row in enumerate(result.trajectory, start=1)))
