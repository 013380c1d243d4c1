#!/usr/bin/env python3
"""Lines of ``src/agedist`` that tier-1 never runs.

Runs tier-1 in this process under a ``sys.settrace`` / ``threading.settrace``
line tracer that follows the frames of ``src/agedist`` alone, then prints
every executable line of those modules that never ran, with its function.
``test_bench.py`` and ``test_demos.py`` are left out: they run the program
in subprocesses, which the tracer cannot follow. Exits 1 when tier-1 fails,
when an unrun line is not in ``ALLOWED``, or when an ``ALLOWED`` line now
runs or is gone. Uses the standard library only (and pytest, to run the
tests).

    python tools/line_coverage.py    # about 140 s on 2 CPUs
"""

from __future__ import annotations

import dis
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "agedist"

#: Tests that run the program in subprocesses only.
LEFT_OUT = ("tests/test_bench.py", "tests/test_demos.py")

#: (module, function) -> (the stripped source of each line that may stay
#: unrun there, why no in-process test runs it).
ALLOWED = {
    ("parallel.py", "cpu_count"): (
        ("except AttributeError:", "return os.cpu_count() or 1"),
        "the fallback for hosts without os.sched_getaffinity, which Linux has"),
    ("cli.py", "<module>"): (
        ("sys.exit(main())",),
        "the __main__ guard runs under python -m agedist.cli, in a subprocess"),
    ("cli.py", "_configure_logging"): (
        ('raise AgedistError(f"AGEDIST_LOG={name!r} is not debug, info, warning, error '
         'or critical")',),
        "basicConfig ignores a level once pytest's handler is in, so only the "
        "subprocess test in tests/test_cli.py sets AGEDIST_LOG"),
}


def code_lines(code) -> dict:
    """Each code object within ``code`` (itself included) -> its executable lines."""
    found = {code: {line for _, line in dis.findlinestarts(code) if line is not None}}
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            found.update(code_lines(const))
    return found


def site(code) -> tuple:
    """Where a code object starts: (file, first line, name). The code that
    runs is compiled at import, not here, so the tracer matches by site;
    code objects that share one (two lambdas on a line) share their lines."""
    return code.co_filename, code.co_firstlineno, code.co_name


class Tracer:
    """Records which lines of ``files`` run. A function's frames are
    traced line by line only while some line of it has not run yet."""

    def __init__(self, files):
        self.files = {str(path) for path in files}
        #: site -> the lines of its code objects that have not run yet
        self.left = {}
        for path in files:
            source = path.read_text(encoding="utf-8")
            for code, lines in code_lines(compile(source, str(path), "exec")).items():
                self.left.setdefault(site(code), set()).update(lines)

    def call(self, frame, event, arg):
        if frame.f_code.co_filename not in self.files:
            return None
        left = self.left.get(site(frame.f_code))
        if not left:
            return None
        left.discard(frame.f_lineno)

        def line(frame, event, arg):
            if event == "line":
                left.discard(frame.f_lineno)
            return line

        return line


def main() -> int:
    files = sorted(PACKAGE.glob("*.py"))
    tracer = Tracer(files)
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(tracer.call)
    sys.settrace(tracer.call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"),
                              *(f"--ignore={ROOT / path}" for path in LEFT_OUT)])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    import agedist

    if Path(agedist.__file__).resolve().parent != PACKAGE:
        print(f"traced {PACKAGE}, but agedist was imported from {agedist.__file__}")
        return 1

    unrun = {}
    for (filename, _, function), left in tracer.left.items():
        path = Path(filename)
        lines = path.read_text(encoding="utf-8").splitlines()
        for number in left:
            unrun[(path.name, number)] = (function, lines[number - 1].strip())
    print(f"\n{len(unrun)} lines of src/agedist never ran:")
    unexpected, matched = 0, set()
    for (module, number), (function, text) in sorted(unrun.items()):
        texts, reason = ALLOWED.get((module, function), ((), ""))
        print(f"  src/agedist/{module}:{number} in {function}: {text}")
        if text in texts:
            matched.add((module, function, text))
            print(f"    allowed: {reason}")
        else:
            unexpected += 1
    stale = [(module, function, text) for (module, function), (texts, _) in ALLOWED.items()
             for text in texts if (module, function, text) not in matched]
    for module, function, text in stale:
        print(f"  allowed but ran or gone: src/agedist/{module} in {function}: {text}")
    if status != 0:
        print(f"tier-1 failed (pytest exit {int(status)})")
    return int(status != 0 or unexpected > 0 or bool(stale))


if __name__ == "__main__":
    sys.exit(main())
