#!/usr/bin/env python3
"""Mutation sweep of the closed form, the stationary law and the data files'
refusals.

Swaps one operator at a time (``<``/``<=``, ``>``/``>=``, ``+``/``-``,
``*``/``/``, augmented assignments too) at every site of the functions in
``TARGETS``; in the modules of ``REFUSALS`` it also turns each ``raise``
into ``pass`` and negates the test of each ``if`` whose body raises. It
writes each mutant into a scratch copy of the tree and runs its module's
``TESTS`` there with ``-x``. A mutant is killed when a test fails (or the
run times out). Prints one line per mutant and the kill count; exits 1 if
a mutant survives that ``EQUIVALENT`` does not argue, and 2 before any
test if a ``TARGETS`` function or an ``EQUIVALENT`` site no longer exists.
Uses the standard library only.

    python tools/mutation_sweep.py           # about 25 minutes on 2 CPUs
    python tools/mutation_sweep.py --list    # the sites alone, no tests
"""

from __future__ import annotations

import argparse
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
    "model2.py": ("band", "feasibility", "_closed_form", "member", "solve", "_moved", "_chain",
                  "nearest_reachable"),
    "model1.py": ("solve",),
    "distributions.py": ("stationary_profiles", "stationarity_residual", "step_thresholds",
                         "rises", "classify"),
    "dataio.py": ("ingest_csv", "load_params_document", "emit_params", "write_dataset_csv",
                  "_first_repeat", "_json_int"),
}

_LAW_TESTS = ("tests/test_model1.py", "tests/test_model2.py", "tests/test_distributions.py",
              "tests/test_pipeline.py", "tests/test_acceptance.py")

#: Modules whose raise statements and raising if tests are mutated too.
REFUSALS = ("dataio.py",)

#: Module file -> the tests its mutants run against.
TESTS = {"model2.py": _LAW_TESTS, "model1.py": _LAW_TESTS, "distributions.py": _LAW_TESTS,
         "dataio.py": ("tests/test_dataio.py", "tests/test_cli.py")}

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
    ("nearest_reachable", "(raised + weight * cut) / (1.0 + weight) >= bound * (1.0 - 1e-12)",
     ">= -> >"):
        "they differ only where the cost equals the stopping bound bit for bit; the mutant "
        "then solves one more chain, and its mix is within the same tolerance.",
    ("nearest_reachable", "raised >= cut", ">= -> >"):
        "they differ only for a chain whose raise equals its cut bit for bit; either end "
        "of the bracket then holds it, no weight lies between the ends, and the search "
        "ends on the same mix.",
}


@dataclass(frozen=True)
class Site:
    module: str
    function: str
    line: int
    expression: str
    change: str  #: such as "< -> <=" or "raise -> pass"
    start: int  #: offsets of the replaced text in the module's source
    end: int
    replacement: str

    @property
    def key(self) -> tuple:
        return (self.function, self.expression, self.change)

    def describe(self) -> str:
        return (f"{self.module}:{self.line} {self.function}: {' '.join(self.expression.split())}"
                f"  [{self.change}]")


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


def _refusals(module: str, function: str, source: str, lines: list, node: ast.AST) -> list:
    """Each ``raise`` made ``pass``, and the test of each ``if`` whose body
    raises negated."""
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Raise):
            replaced, change, replacement = sub, "raise -> pass", "pass"
        elif isinstance(sub, ast.If) and any(
                isinstance(inner, ast.Raise) for body in sub.body for inner in ast.walk(body)):
            test = ast.get_source_segment(source, sub.test)
            replaced, change, replacement = sub.test, "if -> if not", f"not ({test})"
        else:
            continue
        found.append(Site(module, function, replaced.lineno,
                          ast.get_source_segment(source, replaced), change,
                          _offset(lines, replaced.lineno, replaced.col_offset),
                          _offset(lines, replaced.end_lineno, replaced.end_col_offset),
                          replacement))
    return found


def sites(module: str, source: str) -> list:
    """Every mutant site in ``TARGETS[module]``'s functions."""
    tree = ast.parse(source)
    lines = source.splitlines(keepends=True)
    found = []
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef) or node.name not in TARGETS[module]:
            continue
        if module in REFUSALS:
            found += _refusals(module, node.name, source, lines, node)
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
                start = _operator_between(source, lines, before, after, token)
                found.append(Site(module, node.name, sub.lineno, ast.get_source_segment(source, sub),
                                  f"{token} -> {swapped}", start, start + len(token), swapped))
    return sorted(found, key=lambda site: site.start)


def stale(sources: dict, every: list) -> list:
    """A line for each ``TARGETS`` function that its module no longer
    defines and each ``EQUIVALENT`` key that no site has."""
    problems = []
    for module, source in sources.items():
        defined = {node.name for node in ast.parse(source).body
                   if isinstance(node, ast.FunctionDef)}
        problems += [f"{module} defines no function {name!r} to mutate"
                     for name in TARGETS[module] if name not in defined]
    keys = {site.key for site in every}
    return problems + [f"EQUIVALENT names no site: {key}" for key in EQUIVALENT if key not in keys]


def mutate(source: str, site: Site) -> str:
    return source[: site.start] + site.replacement + source[site.end:]


def run_tests(tree: Path, tests: tuple) -> tuple:
    """(failed, first failing test or reason) for ``tests`` in ``tree``."""
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", *tests]
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
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true",
                        help="print the mutant sites and exit without running tests")
    args = parser.parse_args()
    sources = {module: (ROOT / "src" / "agedist" / module).read_text(encoding="utf-8")
               for module in TARGETS}
    every = [site for module in TARGETS for site in sites(module, sources[module])]
    problems = stale(sources, every)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 2
    if args.list:
        print("\n".join(site.describe() for site in every))
        print(f"{len(every)} mutant sites")
        return 0
    with tempfile.TemporaryDirectory(prefix="mutation-sweep-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "out"))
        for tests in set(TESTS.values()):
            failed, reason = run_tests(tree, tests)
            if failed:
                print(f"the unmutated tree fails its tests ({reason}); no sweep", file=sys.stderr)
                return 2
        killed, unexplained = 0, []
        for number, site in enumerate(every, 1):
            path = tree / "src" / "agedist" / site.module
            path.write_text(mutate(sources[site.module], site), encoding="utf-8")
            began = time.perf_counter()
            try:
                failed, reason = run_tests(tree, TESTS[site.module])
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
