"""Smoke gate: every narrated script in ``demos/``, and the README's library
quick start, runs to completion, and every name the README cites exists."""

import importlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracles

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def readme_quick_start() -> str:
    """The fenced python block of the README's "Library quick start"."""
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("script", DEMOS + [README], ids=lambda path: path.stem)
def test_demo_exits_cleanly(script, tmp_path):
    # Run a copy, so that what the demo writes next to itself lands in the
    # temporary directory rather than in the source tree.
    copy = tmp_path / f"{script.stem}.py"
    if script == README:
        copy.write_text(readme_quick_start(), encoding="utf-8")
    else:
        shutil.copy(script, copy)
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run(
        [sys.executable, str(copy)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr


MODULE_NAME = re.compile(
    r"(?<![\w/.])(?:agedist\.)?"
    r"(model1|model2|pipeline|simulator|dataio|curvefit|distributions)\.([A-Za-z_]\w*)")
ORACLE_NAME = re.compile(r"tests/oracles\.py::(\w+)")


def test_readme_names_resolve():
    # Every module attribute and oracle that the README cites in backticks
    # exists, so that a rename or deletion takes its description with it.
    spans = re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8"))
    cited = {match for span in spans for match in MODULE_NAME.findall(span)}
    assert len(cited) >= 10, cited
    missing = [f"{module}.{name}" for module, name in sorted(cited)
               if not hasattr(importlib.import_module(f"agedist.{module}"), name)]
    cited_oracles = {name for span in spans for name in ORACLE_NAME.findall(span)}
    assert cited_oracles
    missing += [f"tests/oracles.py::{name}" for name in sorted(cited_oracles)
                if not hasattr(oracles, name)]
    assert not missing, missing


def test_top_level_names_stay_few_and_documented():
    # The top level is what the README shows; everything else is imported
    # from its module.
    import agedist

    text = README.read_text(encoding="utf-8")
    assert len(agedist.__all__) == len(set(agedist.__all__)) == 16
    assert all(hasattr(agedist, name) for name in agedist.__all__)
    undocumented = [name for name in agedist.__all__
                    if name != "__version__" and not re.search(rf"\b{name}\b", text)]
    assert not undocumented, undocumented
    namespace: dict = {}
    exec("from agedist import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(agedist.__all__)
