#!/usr/bin/env python3
"""Whole-dataset cascade: classify, solve, validate, summarise.

Builds a small synthetic country file, runs the cascade on every entry
(model-1 closed form, model-2 closed form, activation-rate search, curve fit)
and prints the report. The same flow is available from the command
line as ``agedist pipeline --input data.csv --out-dir out``.
"""

from pathlib import Path

import numpy as np

from agedist import DEConfig, SimConfig
from agedist.dataio import ingest_csv
from agedist.pipeline import run_dataset

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

rng = np.random.default_rng(0)
csv_path = OUT / "synthetic_countries.csv"

with open(csv_path, "w", encoding="utf-8") as fh:
    fh.write("country,age_group,population\n")
    # Pyramids: geometric decay with varied steepness.
    for i, rate in enumerate((0.75, 0.85, 0.92)):
        counts = 1000 * rate ** np.arange(12)
        for g, c in enumerate(counts):
            fh.write(f"Pyramid-{i},g{g},{c:.1f}\n")
    # Humps: rise then fall.
    for i, peak in enumerate((3, 4)):
        x = np.arange(10)
        counts = 1000 * np.exp(-0.5 * ((x - peak) / 2.5) ** 2) + 200
        for g, c in enumerate(counts):
            fh.write(f"Hump-{i},g{g},{c:.1f}\n")
    # A flat, wavy ageing-society shape: too stiff for the search under a
    # modest budget, but the model-2 closed form solves it exactly.
    flat = np.r_[1000.0 + 60.0 * np.sin(np.arange(12) * 2.2),
                 1000 * 0.7 ** np.arange(1, 9)]
    for g, c in enumerate(flat):
        fh.write(f"Flatland,g{g},{c:.1f}\n")
    # A new settlement with almost no births yet: its adults outnumber the
    # youngest group by more than 1/ALPHA_MIN, which no activation rates can
    # hold. The search falls short, so the cascade falls back to curve fitting.
    x = np.arange(1, 10)
    newtown = np.r_[0.3, 1000 * np.exp(-0.5 * ((x - 4) / 2.5) ** 2) + 200]
    for g, c in enumerate(newtown):
        fh.write(f"Newtown,g{g},{c:.1f}\n")

entries = ingest_csv(csv_path)
print(f"ingested {len(entries)} countries from {csv_path.name}")

# A tighter search budget than the 250-generation default keeps the batch
# quick; the search only runs for targets the closed form rejects.
report = run_dataset(
    entries,
    DEConfig(seed=0, max_iterations=150),
    SimConfig(num_agents=10_000, num_steps=350, seed=0),
)

print("\nroutes taken:")
for name, res in report.per_country.items():
    extras = ""
    diagnostics = res.params.diagnostics
    if diagnostics.get("solver") == "closed_form":
        extras = (f"  (closed form, mae {diagnostics['mae']:.1e}, "
                  f"smallest activation {diagnostics['min_activation']:.3f})")
    elif diagnostics.get("solver") == "search":
        extras = (f"  (search mae {diagnostics['mae']:.1e}, "
                  f"{diagnostics['iterations_used']} generations)")
    elif res.route.value == "curve_fit":
        extras = (f"  (search stopped at mae {diagnostics['model2_mae']:.1e}; "
                  f"moved by wasserstein "
                  f"{diagnostics['wasserstein_to_original']:.4f})")
    print(f"  {name:>10}: {res.route.value:>9}, validation-run mae "
          f"{res.sim_mae:.1e}{extras}")

counts = {route.value: count for route, count in report.route_counts.items()}
print(f"\nsummary: {counts}")
if report.mean_wasserstein is not None:
    print(f"mean curve-fit wasserstein: {report.mean_wasserstein:.4f}")
if report.flagged:
    print(f"flagged fits (beyond the warning threshold): {list(report.flagged)}")
