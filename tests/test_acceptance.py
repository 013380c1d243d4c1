"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass. Criterion 7 needs the country dataset and is skipped (waived) unless
AGEDIST_WPP_CSV points at it.
"""

import os
import time

import numpy as np
import pytest

from agedist import SimConfig, classify, fit, normalize, optimize
from agedist.cli import main
from agedist.curvefit import CurveParams, curve_values
from agedist.distributions import AgeDistribution, Classification, ModelKind, ModelParams
from agedist.model1 import solve, steady_state
from agedist.model2 import feasibility
from agedist.model2 import DEConfig, steady_state2
from agedist.simulator import run


def report(number: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def random_monotone(rng, n):
    counts = np.sort(rng.integers(1, 10_000, size=n))[::-1].astype(float)
    return normalize(counts, [f"g{i}" for i in range(n)])


def test_criterion_1_closed_form_exactness():
    """1000 random monotone targets round-trip through solve/steady_state
    to 1e-12 per group, in under a second."""
    rng = np.random.default_rng(20_240_101)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 26))
        dist = random_monotone(rng, n)
        interval = feasibility(dist)
        pn = rng.uniform(interval.lower, interval.upper)
        recovered = steady_state(solve(dist, pn), labels=dist.labels)
        worst = max(worst, float(np.abs(recovered.proportions - dist.proportions).max()))
    elapsed = time.perf_counter() - started
    report(
        1,
        f"1000 round trips exact (worst={worst:.2e}, {elapsed:.2f}s)",
        worst < 1e-12 and elapsed < 1.0,
    )


def test_criterion_2_hand_witness():
    """The hand-built witness reproduces [0.3, 0.4, 0.3] and balances the
    first group to 1e-12."""
    probs = np.array([0.8, 0.4, 0.2])
    rates = np.array([1.0, 0.6, 0.4])
    target = np.array([0.3, 0.4, 0.3])
    result = steady_state2(probs, rates).proportions
    err = float(np.abs(result - target).max())
    inflow = rates[0] * probs[0] * result[0]
    outflow = float(np.sum(rates[1:] * (1.0 - probs[1:]) * result[1:]))
    residual = abs(inflow - outflow)
    report(
        2,
        f"witness steady state (err={err:.2e}, balance residual={residual:.2e})",
        err < 1e-12 and residual < 1e-12,
    )


def _random_feasible_hump(seed: int) -> AgeDistribution:
    """A non-monotone target that the activation process can reach exactly,
    built by sampling valid rates and evaluating the steady state."""
    rng = np.random.default_rng(77_000 + seed)
    while True:
        n = int(rng.integers(3, 11))
        probs = rng.uniform(0.3, 0.95, n)
        rates = rng.uniform(0.2, 1.0, n)
        target = steady_state2(probs, rates)
        if (
            len(target) == n
            and classify(target) is Classification.NON_MONOTONE
            and target.proportions.min() > 0.01
        ):
            return target


def test_criterion_3_search_convergence():
    """At least 18 of 20 random feasible hump targets reach MAE < 1e-4
    within 250 generations, in under two minutes."""
    started = time.perf_counter()
    converged = 0
    worst = 0.0
    for seed in range(20):
        target = _random_feasible_hump(seed)
        solution = optimize(target, DEConfig(seed=seed))
        worst = max(worst, solution.mae)
        if solution.converged and solution.iterations_used <= 250:
            converged += 1
    elapsed = time.perf_counter() - started
    report(
        3,
        f"search converged on {converged}/20 targets "
        f"(worst mae={worst:.2e}, {elapsed:.1f}s)",
        converged >= 18 and elapsed < 120.0,
    )


def test_criterion_4_simulation_validation():
    """20 seeded 10,000-agent, 350-step runs land within 0.005 MAE of the
    analytic steady state."""
    dist = normalize(
        [2200, 1900, 1700, 1400, 1100, 800, 500, 250],
        [f"g{i}" for i in range(8)],
    )
    survival = solve(dist, "mid")
    params = ModelParams(kind=ModelKind.MODEL1, survival=survival)
    analytic = steady_state(survival, labels=dist.labels).proportions
    started = time.perf_counter()
    errors = []
    for seed in range(20):
        result = run(dist, params, SimConfig(seed=seed))
        errors.append(float(np.abs(result.steady_estimate - analytic).mean()))
    elapsed = time.perf_counter() - started
    report(
        4,
        f"20 runs within 0.005 of analytic (worst={max(errors):.2e}, "
        f"{elapsed:.1f}s)",
        max(errors) < 0.005,
    )


def test_criterion_5_curve_recovery():
    """Data generated from the plateau-decay family is recovered: the
    selected breakpoint is 3 and the fitted distribution matches to 1e-6."""
    generator = CurveParams(0.1, 0.05, 2.0, 3)
    values = curve_values(generator, 8)
    dist = AgeDistribution(
        tuple(f"g{i}" for i in range(1, 9)), values / values.sum()
    )
    result = fit(dist)
    report(
        5,
        f"curve recovery (k={result.params.breakpoint}, "
        f"wasserstein={result.wasserstein_to_original:.2e})",
        result.params.breakpoint == 3 and result.wasserstein_to_original < 1e-6,
    )


def test_criterion_6_conservation_and_determinism(tmp_path):
    """Agent counts are conserved at every step; repeated runs (library and
    CLI) with one seed are bit-identical."""
    dist = AgeDistribution(("a", "b", "c", "d"), [0.4, 0.3, 0.2, 0.1])
    survival = solve(dist, "mid")
    params = ModelParams(kind=ModelKind.MODEL1, survival=survival)

    # The recorded trajectory holds every step's counts over 10,000 agents.
    recorded = run(dist, params, SimConfig(num_agents=10_000, num_steps=100, seed=123,
                                           record_trajectory=True)).trajectory
    counts = np.rint(recorded * 10_000)
    conserved = (recorded.shape == (100, 4) and np.array_equal(counts / 10_000, recorded)
                 and np.all(counts.sum(axis=1) == 10_000) and np.all(counts >= 0))

    a = run(dist, params, SimConfig(seed=9, record_trajectory=True))
    b = run(dist, params, SimConfig(seed=9, record_trajectory=True))
    library_identical = (
        np.array_equal(a.steady_estimate, b.steady_estimate)
        and np.array_equal(a.final_snapshot, b.final_snapshot)
        and np.array_equal(a.trajectory, b.trajectory)
        and a.total_deaths == b.total_deaths
    )

    csv = tmp_path / "data.csv"
    with open(csv, "w", encoding="utf-8") as fh:
        fh.write("country,age_group,population\n")
        for label, count in zip("abcd", [400, 300, 200, 100]):
            fh.write(f"X,{label},{count}\n")
    files = []
    for name in ("s1.json", "s2.json"):
        out = tmp_path / name
        code = main([
            "solve", "--input", str(csv), "--country", "X",
            "--pn", "rand", "--seed", "17", "--out", str(out),
        ])
        assert code == 0
        files.append(out.read_bytes())
    cli_identical = files[0] == files[1]

    report(
        6,
        f"conservation (100 steps) and determinism "
        f"(library={library_identical}, cli={cli_identical})",
        conserved and library_identical and cli_identical,
    )


WPP_ENV = "AGEDIST_WPP_CSV"


@pytest.mark.skipif(
    WPP_ENV not in os.environ,
    reason=f"country dataset not available; set {WPP_ENV} to enable "
    "(criterion waived, 1-6 constitute acceptance)",
)
def test_criterion_7_country_dataset():
    """Data-dependent checks on the 2019 country dataset: 57 of 201
    monotone classifications; UK curve-fit distance within a factor of two
    of 0.0027 under unit spacing. Search/curve-fit route totals are
    reported by the pipeline, not asserted here."""
    from agedist.dataio import ingest_csv

    entries = ingest_csv(os.environ[WPP_ENV])
    monotone = sum(
        1
        for _, dist in entries
        if classify(dist) is Classification.MONOTONE_NON_INCREASING
    )
    total = len(entries)

    uk = dict(entries).get("United Kingdom")
    uk_ok = True
    uk_distance = float("nan")
    if uk is not None:
        uk_distance = fit(uk).wasserstein_to_original
        uk_ok = 0.0027 / 2 <= uk_distance <= 0.0027 * 2

    report(
        7,
        f"dataset classification {monotone}/{total} monotone, "
        f"UK curve-fit distance {uk_distance:.4g}",
        monotone == 57 and total == 201 and uk_ok,
    )
