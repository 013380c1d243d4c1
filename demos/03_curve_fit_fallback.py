#!/usr/bin/env python3
"""The original method's fallback: fit a compliant curve, then solve in
closed form.

The paper replaces a target that neither process reproduces with the
nearest member of a plateau-then-decay family, judged by the Wasserstein
distance, and hands that surrogate to the closed-form solver. The distance
tells you how much shape was sacrificed. ``agedist fit-curve`` runs it;
the cascade no longer does. The model-2 closed form reproduces this
ageing-society target exactly, and a target beyond its reach is solved on
its nearest reachable target (``model2.nearest_reachable``), which moves it
far less than any curve fit. The end of this script shows the cascade's
answer.
"""

import numpy as np

from agedist import fit, pipeline
from agedist.distributions import AgeDistribution, classify, mean_absolute_error, wasserstein
from agedist.model1 import solve, steady_state

# Flat through mid-life with gentle waves, then a decaying tail.
values = np.array([0.058, 0.060, 0.057, 0.059, 0.061, 0.063, 0.066, 0.064,
                   0.061, 0.058, 0.061, 0.063, 0.058, 0.050, 0.041, 0.033,
                   0.025, 0.016, 0.009, 0.0045, 0.0025])
labels = [f"{5*i}-{5*i+4}" for i in range(20)] + ["100+"]
target = AgeDistribution(tuple(labels), values / values.sum())
print("classification:", classify(target).value)

result = fit(target)
print(f"\nbest breakpoint k={result.params.breakpoint}: plateau "
      f"{result.params.plateau:.4f}, decay scale {result.params.decay_scale:.4f}, "
      f"decay shape {result.params.decay_shape:.4f}")
print(f"Wasserstein distance to the original: "
      f"{result.wasserstein_to_original:.4f}")

print("\n  k    sse        wasserstein")
for k, sse, distance in result.per_k_table:
    tag = "  <- selected" if k == result.params.breakpoint else ""
    print(f"  {k:>2}   {sse:.2e}   {distance:.4f}{tag}")

# The surrogate is monotone by construction, so the closed form applies.
survival = solve(result.fitted, "mid")
recovered = steady_state(survival, labels=target.labels)
print(f"\nclosed-form solve on the fitted surrogate: steady state matches it "
      f"to {mean_absolute_error(recovered, result.fitted):.2e}")
print(f"surrogate vs original, per group: worst "
      f"{np.abs(result.fitted.proportions - target.proportions).max():.4f}")
print(f"sanity: wasserstein(surrogate, original) = "
      f"{wasserstein(result.fitted, target):.4f}")

# The cascade's answer for the same target: the model-2 closed form.
params, analytic = pipeline._solve_one(target)
print(f"\ncascade: {params.diagnostics['solver']} model 2, steady state matches "
      f"the original to {params.diagnostics['mae']:.2e}")
