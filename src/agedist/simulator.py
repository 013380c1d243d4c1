"""Stochastic agent-based forward simulation of both ageing processes.

Used to check that solved parameters really do pull a finite population onto
the intended stationary profile. Agents carry only their group index and are
updated synchronously against the start-of-step state. Each step takes one
uniform per agent, in agent order, from the run's single seeded generator:
an agent of group i advances one group below ``alpha_i p_i`` (the last group
keeps its survivors), dies between ``alpha_i p_i`` and ``alpha_i``, and stays
inactive above. Every death is replaced by a fresh agent in group 1, so the
population size never changes. The plain process is ``alpha = 1``: an agent
survives below ``p_i`` and dies above it.

Agents are stepped in blocks of ``BLOCK``, so a block's scratch and state
stay in cache; each agent still uses one uniform in agent order, so results
are bitwise independent of the block size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import ModelParams, proportions_of
from .errors import ResidualCheckFailed

#: Agents per block of the step kernel: a block's state and scratch (about
#: 0.8 MB) fit in a per-core L2 cache. Results do not depend on it.
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


def initialize(target, config: SimConfig) -> np.ndarray:
    """Per-agent group indices at step 0."""
    n = len(proportions_of(target))
    if config.uniform_start:
        start = np.full(n, 1.0 / n)
    else:
        start = target
    counts = apportion(start, config.num_agents)
    return np.repeat(np.arange(n), counts)


def step(state, survival, activation, rng) -> tuple:
    """One synchronous update; returns (new state, deaths this step).

    Each agent takes one uniform ``u`` from ``rng``, in agent order. An
    agent of group i advances when ``u < alpha_i p_i`` (the last group
    keeps it), dies when ``alpha_i p_i <= u < alpha_i`` and is replaced in
    the first group, and otherwise stays inactive where it is; ``alpha``
    is 1 when ``activation`` is None (the plain process), so a plain agent
    always advances or dies. Agents are updated in blocks of ``BLOCK``; the
    result does not depend on the block size.
    """
    new_state = state.copy()
    thresholds = _thresholds(survival, activation)
    deaths = _step_in_place(new_state, thresholds, rng, _step_buffers(state.size),
                            np.zeros(thresholds[0].size, dtype=np.int64))
    return new_state, deaths


def _thresholds(survival, activation) -> tuple:
    """Per-group uniform thresholds of the single-draw rule: advance below
    ``alpha * p``, die below ``alpha``. The death threshold is None for the
    plain process, whose advance threshold is ``p`` itself."""
    probs = np.asarray(survival, dtype=float)
    if activation is None:
        return probs, None
    rates = np.asarray(activation, dtype=float)
    return rates * probs, rates


def _step_buffers(size: int) -> tuple:
    """Per-block scratch for one step: two float rows and two masks, as wide
    as ``BLOCK`` or the population, whichever is smaller."""
    width = min(size, BLOCK)
    return np.empty((2, width)), np.empty((2, width), dtype=bool)


def _step_in_place(state, thresholds, rng, buffers, counts) -> int:
    """``step`` applied to ``state`` itself, block by block, with every
    per-agent temporary written into ``buffers`` (from ``_step_buffers``,
    whose width sets the block size); adds the new group counts into
    ``counts`` and returns the deaths. A run reuses one set of buffers for
    all its steps."""
    advance_below, die_below = thresholds
    (uniforms, gathered), (survivals, keeps) = buffers
    n = advance_below.size
    deaths = 0
    for start in range(0, state.size, uniforms.size):
        block = state[start:start + uniforms.size]
        size = block.size
        u, g, survived = uniforms[:size], gathered[:size], survivals[:size]
        rng.random(out=u)
        # Group numbers index the per-group thresholds and are always in
        # range; mode="clip" only spares np.take a temporary copy of its output.
        np.take(advance_below, block, out=g, mode="clip")
        np.less(u, g, out=survived)  # active and survived
        if die_below is None:
            kept = survived  # every plain agent is active: survive or die
        else:
            kept = keeps[:size]
            np.take(die_below, block, out=g, mode="clip")
            np.greater_equal(u, g, out=kept)  # inactive this step
            kept |= survived
        block += survived
        np.minimum(block, n - 1, out=block)  # the last group holds its survivors
        block *= kept  # the dead are replaced in the first group
        deaths += size - int(np.count_nonzero(kept))
        # An agent beyond the last group falls outside the first n bins and
        # leaves the tally short, which ``run`` checks.
        counts += np.bincount(block, minlength=n)[:n]
    return deaths


def run(target, params: ModelParams, config: Optional[SimConfig] = None) -> SimResult:
    """Simulate ``config.num_steps`` steps and estimate the steady state.

    The estimate is the time-average of the per-step group proportions over
    the steps after ``burn_in``; the final snapshot is also reported.
    Deterministic for a given seed.
    """
    cfg = config if config is not None else SimConfig()
    props = proportions_of(target)
    n = props.size
    survival = params.survival.probs
    if survival.size != n:
        raise ValueError(f"params have {survival.size} groups, target has {n}")
    activation = params.activation.rates if params.activation is not None else None

    rng = np.random.default_rng(cfg.seed)
    state = initialize(target, cfg)
    trajectory = (
        np.empty((cfg.num_steps, n)) if cfg.record_trajectory else None
    )
    accumulator = np.zeros(n)
    total_deaths = 0
    snapshot = np.bincount(state, minlength=n) / cfg.num_agents

    thresholds = _thresholds(survival, activation)
    buffers = _step_buffers(cfg.num_agents)
    counts = np.empty(n, dtype=np.int64)
    for step_index in range(1, cfg.num_steps + 1):
        counts.fill(0)
        total_deaths += _step_in_place(state, thresholds, rng, buffers, counts)
        tally = int(counts.sum())
        if tally != cfg.num_agents:
            raise ResidualCheckFailed(
                f"an agent left the age groups: the step's tally holds {tally} "
                f"of {cfg.num_agents} agents; update rule broken"
            )
        snapshot = counts / cfg.num_agents
        if trajectory is not None:
            trajectory[step_index - 1] = snapshot
        if step_index > cfg.burn_in:
            accumulator += snapshot

    labels = tuple(target.labels) if hasattr(target, "labels") else tuple(
        f"g{i}" for i in range(1, n + 1)
    )
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
