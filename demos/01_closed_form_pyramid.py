#!/usr/bin/env python3
"""Closed-form route: a population pyramid solved exactly.

A monotone non-increasing age distribution can be generated exactly by the
plain ageing process. The last group's survival probability is free inside a
feasibility interval; any choice in the interval yields the same steady
state, with the second-to-last probability compensating.
"""

import numpy as np

from agedist import SimConfig, normalize
from agedist.distributions import ModelKind, ModelParams, mean_absolute_error
from agedist.model1 import solve, steady_state
from agedist.model2 import feasibility
from agedist.simulator import run

# An Egypt-style expansive pyramid on 5-year groups (counts in thousands).
counts = [13170, 11667, 10159, 9068, 8537, 8180, 7857, 7277, 6516, 5534,
          4454, 3497, 2704, 1923, 1270, 771, 408, 173, 52, 10, 1]
labels = [f"{5*i}-{5*i+4}" for i in range(20)] + ["100+"]
target = normalize(counts, labels)

print(f"target: {len(target)} groups, monotone pyramid")

interval = feasibility(target)
print(f"free-parameter interval for the last group: "
      f"[{interval.lower:.6f}, {interval.upper:.6f}]")

# Any feasible choice reproduces the target exactly.
for pn in (interval.midpoint, 0.1, 0.9):
    survival = solve(target, pn)
    recovered = steady_state(survival, labels=target.labels)
    err = np.abs(recovered.proportions - target.proportions).max()
    print(f"  p_last={pn:.4f}: worst steady-state error {err:.2e}, "
          f"compensating p={survival.probs[-2]:.4f}")

survival = solve(target, "mid")
print("\nsurvival probabilities (first five groups):",
      np.round(survival.probs[:5], 4))

# Validate with a finite population.
params = ModelParams(kind=ModelKind.MODEL1, survival=survival)
result = run(target, params, SimConfig(num_agents=10_000, num_steps=350, seed=0))
sim_err = mean_absolute_error(result.steady_estimate, target.proportions)
print(f"10,000 agents, 350 steps: simulated-vs-target MAE {sim_err:.2e} "
      f"({result.total_deaths} deaths, all replaced in the first group)")
