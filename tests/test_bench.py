"""Smoke gate for the benchmark's output checks: a short traced
``wpp-cascade`` pass must run and pass every check."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_wpp_cascade_pass_is_correct(tmp_path):
    # Run a copy, so that what the benchmark writes under bench/out/ lands
    # in the temporary directory rather than in the source tree. A traced
    # run takes no speed probes, so its passes may be short.
    (tmp_path / "bench").mkdir()
    for script in (ROOT / "bench").glob("*.py"):
        shutil.copy(script, tmp_path / "bench" / script.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "wpp-cascade",
         "--seed", "1", "--seconds", "2.4", "--trace", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
