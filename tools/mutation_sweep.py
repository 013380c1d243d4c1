#!/usr/bin/env python3
"""Mutation sweep of the closed form, the stationary law and the data files'
refusals.

Swaps one operator at a time (``<``/``<=``, ``>``/``>=``, ``+``/``-``,
``*``/``/``, augmented assignments too) at every site of the functions in
``TARGETS``; in the modules of ``REFUSALS`` it also turns each ``raise``
into ``pass`` and negates the test of each ``if`` whose body raises. Each
change is made on the module's syntax tree, which ``ast.unparse`` writes
out; a site is shown, and keyed in ``EQUIVALENT``, by the unparsed text of
its node, so line wrapping and quoting cannot break a key. In a scratch
copy of the tree whose swept modules are unparsed too, each module's
``TESTS`` run once unmutated, then with ``-x`` for each of its mutants,
which thus differ from that baseline by one change. A mutant is killed
when a test fails (or the run times out). Prints one line per mutant and
the kill count; exits 1 if a mutant survives that ``EQUIVALENT`` does not
argue, and 2 before any mutant if the baseline fails, or if a ``TARGETS``
function or an ``EQUIVALENT`` site no longer exists. Uses the standard
library only.

    python tools/mutation_sweep.py           # about 30 minutes on 2 CPUs
    python tools/mutation_sweep.py --list    # the sites alone, no tests
"""

from __future__ import annotations

import argparse
import ast
import os
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

#: Operator -> (its token, the operator it is swapped for).
SWAPS = {ast.Lt: ("<", ast.LtE), ast.LtE: ("<=", ast.Lt), ast.Gt: (">", ast.GtE),
         ast.GtE: (">=", ast.Gt), ast.Add: ("+", ast.Sub), ast.Sub: ("-", ast.Add),
         ast.Mult: ("*", ast.Div), ast.Div: ("/", ast.Mult)}

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
    expression: str  #: ``ast.unparse`` of the changed node (of an ``if``, its test)
    change: str  #: such as "< -> <=" or "raise -> pass"
    index: int  #: the node's place in ``ast.walk`` of the function
    slot: int  #: the operator's place in a comparison, else 0

    @property
    def key(self) -> tuple:
        return (self.function, self.expression, self.change)

    def describe(self) -> str:
        return f"{self.module}:{self.line} {self.function}: {self.expression}  [{self.change}]"


def _functions(tree: ast.Module, module: str) -> dict:
    """Name -> definition of each ``TARGETS[module]`` function in ``tree``."""
    return {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in TARGETS[module]}


def sites(module: str, source: str) -> list:
    """Every mutant site in ``TARGETS[module]``'s functions, in line order."""
    found = []
    for function in _functions(ast.parse(source), module).values():
        for index, node in enumerate(ast.walk(function)):
            ops = (node.ops if isinstance(node, ast.Compare)
                   else [node.op] if isinstance(node, (ast.BinOp, ast.AugAssign)) else [])
            changes = [(slot, node, f"{SWAPS[type(op)][0]} -> {SWAPS[SWAPS[type(op)][1]][0]}")
                       for slot, op in enumerate(ops) if type(op) in SWAPS]
            if module in REFUSALS and isinstance(node, ast.Raise):
                changes.append((0, node, "raise -> pass"))
            elif module in REFUSALS and isinstance(node, ast.If) and any(
                    isinstance(inner, ast.Raise) for body in node.body for inner in ast.walk(body)):
                changes.append((0, node.test, "if -> if not"))
            found += [Site(module, function.name, shown.lineno, ast.unparse(shown), change,
                           index, slot) for slot, shown, change in changes]
    return sorted(found, key=lambda site: (site.line, site.index, site.slot))


def stale(sources: dict, every: list) -> list:
    """A line for each ``TARGETS`` function that its module no longer
    defines and each ``EQUIVALENT`` key that no site has."""
    problems = []
    for module, source in sources.items():
        defined = _functions(ast.parse(source), module)
        problems += [f"{module} defines no function {name!r} to mutate"
                     for name in TARGETS[module] if name not in defined]
    keys = {site.key for site in every}
    return problems + [f"EQUIVALENT names no site: {key}" for key in EQUIVALENT if key not in keys]


def mutate(source: str, site: Site) -> str:
    """``source`` as ``ast.unparse`` writes it, with the one change ``site`` names."""
    tree = ast.parse(source)
    function = _functions(tree, site.module)[site.function]
    node = list(ast.walk(function))[site.index]
    if isinstance(node, ast.Compare):
        node.ops[site.slot] = SWAPS[type(node.ops[site.slot])][1]()
    elif isinstance(node, (ast.BinOp, ast.AugAssign)):
        node.op = SWAPS[type(node.op)][1]()
    elif isinstance(node, ast.If):
        node.test = ast.UnaryOp(ast.Not(), node.test)
    else:  # a raise: the statement list that holds it holds a pass instead
        for parent in ast.walk(function):
            for _, block in ast.iter_fields(parent):
                if isinstance(block, list) and node in block:
                    block[block.index(node)] = ast.Pass()
    return ast.unparse(tree)


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
        # Every run, the baseline's too, reads the modules as ast.unparse writes
        # them, so that a mutant differs from the baseline by its one change.
        unparsed = {module: ast.unparse(ast.parse(source)) for module, source in sources.items()}
        for module, text in unparsed.items():
            (tree / "src" / "agedist" / module).write_text(text, encoding="utf-8")
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
                path.write_text(unparsed[site.module], encoding="utf-8")
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
