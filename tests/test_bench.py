"""Smoke gates for the benchmark: a short traced ``wpp-cascade`` pass, a
full-length untraced one and short traced ``fine-grid-solve`` and
``population-scale`` passes must run and pass every output check."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_bench(tmp_path, workload, *args):
    """Run ``bench/run.py`` on a copy of the benchmark and the program, so
    that what it writes under bench/out/ lands in the temporary directory
    rather than in the source tree; returns its last output line, parsed."""
    (tmp_path / "bench").mkdir()
    for script in (ROOT / "bench").glob("*.py"):
        shutil.copy(script, tmp_path / "bench" / script.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
    return last


def test_traced_wpp_cascade_pass_is_correct(tmp_path):
    # A traced run takes no speed probes, so its passes may be short.
    run_bench(tmp_path, "wpp-cascade", "--seconds", "2.4", "--trace", "1")


def test_untraced_wpp_cascade_pass_takes_probes(tmp_path):
    # At the declared length the timed pass must outlast at least two speed
    # probes: the end-to-end figures divide by their median.
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    run_bench(tmp_path, "wpp-cascade", "--seconds", str(seconds), "--trace", "0")
    record = json.loads(
        (tmp_path / "bench" / "out" / "wpp-cascade-seed1-trace0.json").read_text())
    assert record["correct"] is True
    assert record["timing"]["probes"] >= 2, record["timing"]


def test_traced_fine_grid_solve_pass_is_correct(tmp_path):
    # The warm-up searches with DEConfig(max_iterations=2), and the traced
    # optimize hook counts evaluations from config.population_size. The
    # curve fit's hook counts the rows of its per-breakpoint table, one per
    # group of the 101-group target.
    metrics = run_bench(tmp_path, "fine-grid-solve", "--seconds", "1", "--trace", "1")["metrics"]
    generations = metrics["model2.optimize.generations"]["value"]
    assert metrics["model2.optimize.calls"]["value"] == 1
    assert generations > 0
    assert metrics["model2.optimize.evaluations"]["value"] == (generations + 1) * 30 * 101
    fits = metrics["curvefit.fit.calls"]["value"]
    assert fits == metrics["route.curve_fit"]["value"] == 1
    assert metrics["curvefit.fit.breakpoints"]["value"] == 101 * fits


def test_traced_population_scale_pass_is_correct(tmp_path):
    # One plain and one activated run of 1M agents x 350 steps; the warm-up
    # run is not traced.
    metrics = run_bench(tmp_path, "population-scale", "--seconds", "1", "--trace", "1")["metrics"]
    assert metrics["simulator.run.calls"]["value"] == 2
    assert metrics["simulator.run.agent_steps"]["value"] == 2 * 1_000_000 * 350
