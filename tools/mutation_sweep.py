#!/usr/bin/env python3
"""Mutation sweep of the closed form and the stationary law.

Swaps one operator at a time (``<``/``<=``, ``>``/``>=``, ``+``/``-``,
``*``/``/``, augmented assignments too) at every site of the functions in
``TARGETS``, writes each mutant into a scratch copy of the tree and runs
``TESTS`` there with ``-x``. A mutant is killed when a test fails (or the
run times out). Prints one line per mutant and the kill count; exits 1 if a
mutant survives that ``EQUIVALENT`` does not argue. Uses the standard
library only.

    python tools/mutation_sweep.py    # about 15 minutes on 2 CPUs
"""

from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Module file -> the functions whose operator sites are mutated.
TARGETS = {
    "model2.py": ("band", "feasibility", "_closed_form", "member", "solve",
                  "_raised_to_floors", "_run_ends", "_paid_for", "nearest_reachable"),
    "model1.py": ("solve",),
    "distributions.py": ("stationary_profiles", "stationarity_residual", "step_thresholds",
                         "rises", "classify"),
}

TESTS = ("tests/test_model1.py", "tests/test_model2.py", "tests/test_distributions.py",
         "tests/test_pipeline.py", "tests/test_acceptance.py")

#: Operator -> (its token, the token it is swapped for).
SWAPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
         ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*")}

#: Seconds a mutant's test run may take; a run that hangs counts as killed.
TIMEOUT = 900.0

#: Mutants that no test can kill, keyed by (function, expression, swap),
#: with the argument that they compute the same results.
EQUIVALENT = {
    ("feasibility", "props[-2] >= props[-1]", ">= -> >"):
        "where N_{n-1} == N_n the unmutated branch takes 0.0 and the mutant "
        "1 - N_{n-1} / N_n, which is 1 - 1 = 0.0 too: x / x is exactly 1 for "
        "every positive finite x, subnormals included.",
}


@dataclass(frozen=True)
class Site:
    module: str
    function: str
    line: int
    expression: str
    token: str
    swapped: str
    start: int  #: offset of the operator in the module's source

    @property
    def key(self) -> tuple:
        return (self.function, self.expression, f"{self.token} -> {self.swapped}")

    def describe(self) -> str:
        return (f"{self.module}:{self.line} {self.function}: {' '.join(self.expression.split())}"
                f"  [{self.token} -> {self.swapped}]")


def _offset(lines: list, line: int, col: int) -> int:
    """Character offset of an ast position (its column counts UTF-8 bytes)."""
    return sum(map(len, lines[: line - 1])) + len(lines[line - 1].encode()[:col].decode())


def _operator_between(source: str, lines: list, before: ast.AST, after: ast.AST,
                      token: str) -> int:
    """Offset of ``token`` between two operand nodes, which hold only it,
    brackets, white space and comments."""
    start = _offset(lines, before.end_lineno, before.end_col_offset)
    end = _offset(lines, after.lineno, after.col_offset)
    gap = re.sub(r"#[^\n]*", lambda comment: " " * len(comment.group()), source[start:end])
    return start + gap.index(token)


def sites(module: str, source: str) -> list:
    """Every swappable operator in ``TARGETS[module]``'s functions."""
    tree = ast.parse(source)
    lines = source.splitlines(keepends=True)
    found = []
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef) or node.name not in TARGETS[module]:
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Compare):
                pairs = zip(sub.ops, [sub.left, *sub.comparators], sub.comparators)
            elif isinstance(sub, ast.BinOp):
                pairs = [(sub.op, sub.left, sub.right)]
            elif isinstance(sub, ast.AugAssign):
                pairs = [(sub.op, sub.target, sub.value)]
            else:
                continue
            for op, before, after in pairs:
                if type(op) not in SWAPS:
                    continue
                token, swapped = SWAPS[type(op)]
                found.append(Site(module, node.name, sub.lineno, ast.get_source_segment(source, sub),
                                  token, swapped,
                                  _operator_between(source, lines, before, after, token)))
    return sorted(found, key=lambda site: site.start)


def mutate(source: str, site: Site) -> str:
    return source[: site.start] + site.swapped + source[site.start + len(site.token):]


def run_tests(tree: Path) -> tuple:
    """(failed, first failing test or reason) for the tests in ``tree``."""
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", *TESTS]
    try:
        result = subprocess.run(command, cwd=tree, capture_output=True, text=True,
                                timeout=TIMEOUT, env={**os.environ, "PYTHONPATH": str(tree / "src")})
    except subprocess.TimeoutExpired:
        return True, f"timed out after {TIMEOUT:.0f} s"
    failed = [line for line in result.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    if result.returncode == 0:
        return False, ""
    return True, failed[0].split(" - ")[0] if failed else f"pytest exit {result.returncode}"


def main() -> int:
    sources = {module: (ROOT / "src" / "agedist" / module).read_text(encoding="utf-8")
               for module in TARGETS}
    every = [site for module in TARGETS for site in sites(module, sources[module])]
    with tempfile.TemporaryDirectory(prefix="mutation-sweep-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "out"))
        failed, reason = run_tests(tree)
        if failed:
            print(f"the unmutated tree fails its tests ({reason}); no sweep", file=sys.stderr)
            return 2
        killed, unexplained = 0, []
        for number, site in enumerate(every, 1):
            path = tree / "src" / "agedist" / site.module
            path.write_text(mutate(sources[site.module], site), encoding="utf-8")
            began = time.perf_counter()
            try:
                failed, reason = run_tests(tree)
            finally:
                path.write_text(sources[site.module], encoding="utf-8")
            seconds = time.perf_counter() - began
            if failed:
                killed += 1
                verdict = f"killed by {reason}"
            elif site.key in EQUIVALENT:
                verdict = "survived, equivalent: " + EQUIVALENT[site.key]
            else:
                verdict = "SURVIVED"
                unexplained.append(site)
            print(f"[{number}/{len(every)}] {site.describe()}  {verdict} ({seconds:.0f} s)",
                  flush=True)
    print(f"killed {killed} of {len(every)} mutants; {len(every) - killed} survived, "
          f"{len(unexplained)} of them not argued equivalent")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
