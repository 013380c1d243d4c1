"""Stochastic forward simulation of both ageing processes.

Used to check that solved parameters really do pull a finite population onto
the intended stationary profile. Agents of a group are alike, so a run
carries only the group counts. Each step takes the agents as sorted by group
and draws one uniform per agent, in that order, from the run's single seeded
generator: an agent of group i advances one group below ``alpha_i p_i`` (the
last group keeps its survivors), dies between ``alpha_i p_i`` and
``alpha_i``, and stays inactive above (``alpha = 1`` in the plain process).
Every death is replaced by a fresh agent in group 1, so the population size
never changes. The counts are, bit for bit, those of the per-agent ``step``
on the group-sorted agents, sorted again after every step. The uniforms are
drawn in chunks of ``BLOCK``; results do not depend on it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import SUM_TOLERANCE, ModelParams, default_labels, proportions_of
from .errors import NotNormalized, ResidualCheckFailed

#: Uniforms per chunk of a step: a chunk's uniforms, repeated thresholds and
#: flags (about 0.5 MB) fit in a per-core L2 cache. Results do not depend on it.
BLOCK = 32_768


@dataclass
class SimConfig:
    num_agents: int = 10_000
    num_steps: int = 350
    seed: int = 0
    #: Steps discarded before time-averaging the steady-state estimate.
    burn_in: int = 300
    record_trajectory: bool = False
    #: Start from a uniform assignment instead of the target (convergence
    #: studies); the default starts at a rounding of the target itself.
    uniform_start: bool = False

    def __post_init__(self):
        for name in ("num_agents", "num_steps", "burn_in"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if self.num_agents < 1 or self.num_steps < 1:
            raise ValueError("num_agents and num_steps must be positive")
        if not 0 <= self.burn_in < self.num_steps:
            raise ValueError("burn_in must satisfy 0 <= burn_in < num_steps")
        if not 0 <= int(self.seed) < 2**64:
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
    """Group counts at step 0: the target, or equal shares with
    ``uniform_start``, apportioned to ``config.num_agents``. A target whose
    proportions do not sum to 1 raises NotNormalized."""
    props = proportions_of(target)
    total = float(props.sum())
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise NotNormalized(f"target proportions sum to {total!r}, not 1")
    n = props.size
    start = np.full(n, 1.0 / n) if config.uniform_start else props
    return apportion(start, config.num_agents)


def initialize(target, config: SimConfig) -> np.ndarray:
    """Per-agent group indices at step 0, sorted by group."""
    counts = start_counts(target, config)
    return np.repeat(np.arange(counts.size), counts)


def step(state, survival, activation, rng) -> tuple:
    """One synchronous per-agent update; returns (new state, deaths).

    Each agent takes one uniform ``u`` from ``rng``, in agent order. An
    agent of group i advances when ``u < alpha_i p_i`` (the last group
    keeps it), dies when ``alpha_i p_i <= u < alpha_i`` and is replaced in
    the first group, and otherwise stays inactive where it is; ``alpha``
    is 1 when ``activation`` is None (the plain process), so a plain agent
    always advances or dies. ``run`` steps counts instead, with the same
    draws as this update on group-sorted agents.
    """
    advance_below, stay_from = _thresholds(survival, activation)
    u = rng.random(state.size)
    advances = u < advance_below[state]
    kept = advances if stay_from is None else advances | (u >= stay_from[state])
    new_state = np.where(kept, np.minimum(state + advances, advance_below.size - 1), 0)
    return new_state, int(state.size - np.count_nonzero(kept))


def _thresholds(survival, activation) -> tuple:
    """Per-group uniform thresholds of the single-draw rule: advance below
    ``alpha * p``, stay from ``alpha`` up. The stay threshold is None for
    the plain process, whose advance threshold is ``p`` itself."""
    probs = np.asarray(survival, dtype=float)
    if activation is None:
        return probs, None
    rates = np.asarray(activation, dtype=float)
    return rates * probs, rates


def _count_step(counts, thresholds, rng, buffers) -> tuple:
    """One step on group counts; returns (new counts, deaths). Uniforms
    are drawn in group order, in chunks as wide as ``buffers`` (a float row,
    and a flag row one longer); a group's own uniforms below ``alpha_i p_i``
    count as advances, those from ``alpha_i`` up as stays, the rest as
    deaths, which refill group 1."""
    advance_below, stay_from = thresholds
    uniforms, flags = buffers
    n = counts.size
    edges = np.zeros(n + 1, dtype=np.int64)
    np.add.accumulate(counts, out=edges[1:])
    total = int(edges[-1])
    # Row k: group edges within chunk k. cut[:-1] starts each group's
    # uniforms (an empty group shares the next start), cut[-1] is the width.
    cuts = edges - np.arange(0, total, uniforms.size)[:, None]
    np.minimum(np.maximum(cuts, 0, out=cuts), uniforms.size, out=cuts)
    advanced, stayed = np.zeros((2, n), dtype=np.int64)
    for cut, sizes in zip(cuts, cuts[:, 1:] - cuts[:, :-1]):
        size = int(cut[-1])
        u, below = uniforms[:size], flags[:size + 1]
        rng.random(out=u)
        # A False sentinel closes the last group and gives trailing empty
        # groups a valid start; np.minimum zeroes every empty group, whose
        # reduceat entry is a single flag of the next group.
        below[size] = False
        np.less(u, np.repeat(advance_below, sizes), out=below[:size])
        advanced += np.minimum(np.add.reduceat(below, cut[:-1], dtype=np.int32), sizes)
        if stay_from is not None:
            np.greater_equal(u, np.repeat(stay_from, sizes), out=below[:size])
            stayed += np.minimum(np.add.reduceat(below, cut[:-1], dtype=np.int32), sizes)
    new_counts = stayed
    new_counts[1:] += advanced[:-1]
    new_counts[-1] += advanced[-1]  # the last group holds its survivors
    deaths = total - int(new_counts.sum())
    new_counts[0] += deaths
    return new_counts, deaths


def run(target, params: ModelParams, config: Optional[SimConfig] = None) -> SimResult:
    """Simulate ``config.num_steps`` steps and estimate the steady state.

    The state is the group counts. Each step draws one uniform per agent in
    group order, so the counts equal, bit for bit, those of ``step`` on the
    group-sorted agents sorted again after every step. ``BLOCK`` sizes only
    the chunks the uniforms are drawn in. The estimate is the time-average
    of the per-step group proportions over the steps after ``burn_in``; the
    final snapshot is also reported. Deterministic for a given seed.
    """
    cfg = config if config is not None else SimConfig()
    n = proportions_of(target).size
    survival = params.survival.probs
    if survival.size != n:
        raise ValueError(f"params have {survival.size} groups, target has {n}")
    activation = params.activation.rates if params.activation is not None else None

    rng = np.random.default_rng(cfg.seed)
    counts = start_counts(target, cfg)
    trajectory = np.empty((cfg.num_steps, n)) if cfg.record_trajectory else None
    accumulator = np.zeros(n)
    total_deaths = 0

    thresholds = _thresholds(survival, activation)
    width = min(cfg.num_agents, BLOCK)
    buffers = np.empty(width), np.empty(width + 1, dtype=bool)
    for step_index in range(1, cfg.num_steps + 1):
        counts, deaths = _count_step(counts, thresholds, rng, buffers)
        total_deaths += deaths
        tally = int(counts.sum())
        if tally != cfg.num_agents or counts.min() < 0:
            raise ResidualCheckFailed(
                f"an agent left the age groups: the step's tally holds {tally} of "
                f"{cfg.num_agents} agents in counts {counts.tolist()}; update rule broken")
        snapshot = counts / cfg.num_agents
        if trajectory is not None:
            trajectory[step_index - 1] = snapshot
        if step_index > cfg.burn_in:
            accumulator += snapshot

    labels = tuple(target.labels) if hasattr(target, "labels") else default_labels(n)
    return SimResult(
        labels=labels,
        steady_estimate=accumulator / (cfg.num_steps - cfg.burn_in),
        final_snapshot=snapshot,
        trajectory=trajectory,
        total_deaths=total_deaths,
        seed=cfg.seed,
    )


def write_trajectory_csv(result: SimResult, path) -> None:
    """One row per step: step index, then per-group proportions to 10
    significant digits."""
    if result.trajectory is None:
        raise ValueError("run was executed without record_trajectory")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("step," + ",".join(result.labels) + "\n")
        for i, row in enumerate(result.trajectory, start=1):
            fh.write(str(i) + "," + ",".join(f"{v:.10g}" for v in row) + "\n")
