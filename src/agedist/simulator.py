"""Stochastic agent-based forward simulation of both ageing processes.

Used to check that solved parameters really do pull a finite population onto
the intended stationary profile. Agents carry only their group index; each
step draws activation (when activation rates are present) and survival for
every agent from the run's single seeded generator, synchronously against
the start-of-step state. Survivors advance one group (the last group keeps
its survivors) and every death is replaced by a fresh agent in group 1, so
the population size never changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import ModelParams, proportions_of
from .errors import ResidualCheckFailed


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

    Draw order per step: one uniform per agent for activation (skipped when
    ``activation`` is None, the plain process), then one per agent for
    survival. Inactive agents are untouched.
    """
    new_state = state.copy()
    deaths = _step_in_place(new_state, survival, activation, rng,
                            _step_buffers(state.size))
    return new_state, deaths


def _step_buffers(size: int) -> tuple:
    """Per-agent scratch for one step: two float rows and three masks."""
    return np.empty((2, size)), np.empty((3, size), dtype=bool)


def _step_in_place(state, survival, activation, rng, buffers) -> int:
    """``step`` applied to ``state`` itself, with every per-agent
    temporary written into ``buffers`` (from ``_step_buffers``); returns
    the deaths. A run reuses one set of buffers for all its steps."""
    (uniforms, gathered), (active, advance, died) = buffers
    probs = np.asarray(survival, dtype=float)
    n = probs.size
    # Agents' group numbers index the per-group rates and are always in
    # range; mode="clip" only spares np.take a temporary copy of its output.
    if activation is not None:
        rng.random(out=uniforms)
        np.take(np.asarray(activation, dtype=float), state, out=gathered, mode="clip")
        np.less(uniforms, gathered, out=active)
    rng.random(out=uniforms)
    np.take(probs, state, out=gathered, mode="clip")
    np.less(uniforms, gathered, out=advance)  # survivors, for now
    np.logical_not(advance, out=died)
    if activation is not None:
        died &= active
        advance &= active
    # Every mask reads the start-of-step state; ``active`` is free again.
    np.less(state, n - 1, out=active)
    advance &= active
    state += advance
    state[died] = 0  # replacements enter the first group
    return int(died.sum())


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

    buffers = _step_buffers(cfg.num_agents)
    for step_index in range(1, cfg.num_steps + 1):
        total_deaths += _step_in_place(state, survival, activation, rng, buffers)
        counts = np.bincount(state, minlength=n)
        if counts.size != n:
            raise ResidualCheckFailed("an agent left the age groups; update rule broken")
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
