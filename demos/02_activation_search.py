#!/usr/bin/env python3
"""Search route: a humped age distribution needs activation rates.

When group sizes rise before they fall, no survival vector alone can hold
the shape in steady state. Letting each group participate in the ageing
draw only with probability alpha_i adds the required freedom; suitable
(survival, activation) pairs are found by differential evolution. The
model-2 closed form at the end picks one pair directly, with no search.
"""

import numpy as np

from agedist import DEConfig, SimConfig, model2, optimize
from agedist.distributions import (
    AgeDistribution,
    Classification,
    ModelKind,
    ModelParams,
    classify,
    mean_absolute_error,
)
from agedist.model2 import steady_state2
from agedist.simulator import run

# A working-age hump: groups rise into the 20-30 band, then decay.
values = np.array([0.10, 0.12, 0.145, 0.15, 0.135, 0.115, 0.09, 0.07,
                   0.045, 0.02, 0.01])
target = AgeDistribution(tuple(f"g{i}" for i in range(1, 12)), values / values.sum())

print("classification:", classify(target).value)
assert classify(target) is Classification.NON_MONOTONE

solution = optimize(target, DEConfig(seed=1))
history = solution.history
print(f"search: converged={solution.converged} after "
      f"{solution.iterations_used} generations, mae={solution.mae:.2e}")
marks = [0, 5, 10, 20, 40, len(history) - 1]
print("  best-error trace:",
      ", ".join(f"gen {g}: {history[g]:.1e}" for g in marks if g < len(history)))

print("\n group   proportion   survival   activation")
for label, prop, p, a in zip(target.labels, target.proportions,
                             solution.survival.probs, solution.activation.rates):
    print(f"  {label:>4}   {prop:10.4f}   {p:8.4f}   {a:10.4f}")

analytic = steady_state2(solution.survival, solution.activation,
                         labels=target.labels)
print(f"\nanalytic steady state matches target to "
      f"{np.abs(analytic.proportions - target.proportions).max():.2e} per group")

params = ModelParams(kind=ModelKind.MODEL2, survival=solution.survival,
                     activation=solution.activation)
result = run(target, params, SimConfig(seed=2))
print(f"simulated 10,000 agents for 350 steps: MAE vs target "
      f"{mean_absolute_error(result.steady_estimate, target.proportions):.2e}")

# The closed form: hold the active mass m_i = alpha_i N_i at the running
# minimum of the target, keep every other group fully active.
survival, activation = model2.solve(target)
exact = steady_state2(survival, activation, labels=target.labels)
print(f"\nclosed form: activation {np.round(activation.rates, 3)}, matches "
      f"target to {np.abs(exact.proportions - target.proportions).max():.1e}")
