"""Spans around calls into the program, recorded from outside it.

``Tracer.wrap`` replaces a module attribute with a timing wrapper and
``Tracer.close`` puts the original back. This reaches every call because the
program calls its layers through module attributes (``pipeline.run_dataset``,
``model2.optimize``, ...). A name a caller imported directly, such as
``classify`` inside ``pipeline``, is wrapped in that caller's namespace.

Spans are kept in memory as (name, start, end, parent, target) and written
out by ``write``. A span's self time is its duration minus the durations of
its direct children; calls are synchronous and single-threaded, so children
never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, target]
        self.counts: dict = defaultdict(float)
        self.target = None
        self._stack: list = []
        self._restore: list = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.target])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, module, attr: str, *, count=None, target_of=None) -> None:
        """Time every call of ``module.attr``.

        ``count(counts, args, kwargs, result)`` adds layer counts after the
        span has closed, so counting is not charged to the layer.
        ``target_of(args)`` names the target a call starts working on; later
        spans carry that name until another call changes it.
        """
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if target_of is not None:
                self.target = target_of(args) or self.target
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            self.counts[f"{name}.calls"] += 1
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, original))

    def close(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict:
        """name -> summed self time in seconds."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: dict = defaultdict(float)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            totals[name] += end - start - child
        return dict(totals)

    def write(self, path) -> None:
        """One JSON object per span, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, target) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": name, "parent": parent, "target": target,
                    "start_s": start - origin, "end_s": end - origin,
                }) + "\n")
