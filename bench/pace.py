"""Machine-speed probe interleaved with a workload.

A shared machine's speed drifts by tens of percent over minutes, so a
wall-clock figure taken at one moment says as much about the neighbours as
about the program. ``Pace`` times a fixed numpy kernel of a few milliseconds,
either on demand (``probe``) or every ``INTERVAL_S`` seconds while a block of
work runs (``with Pace() as pace:``; a one-shot SIGALRM timer re-armed after
each probe). The probes see the same drift as the work around them; their
median duration over ``REFERENCE_S`` is the machine's slowdown, and dividing
it out gives the time the work would have taken on the reference machine.

Only the main thread runs signal handlers, between Python bytecodes, so a
probe never splits a numpy call; Python retries system calls a signal
interrupts.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.25
#: Median probe duration on the reference machine (a 2-CPU Xeon virtual machine).
REFERENCE_S = 0.006


def kernel() -> None:
    """Small-array gathers and scans with fresh allocations (as in the
    search) and one pass over a larger array (as in the simulator)."""
    rng = np.random.default_rng(0)
    population = rng.random((600, 42))
    for _ in range(40):
        trial = population[rng.integers(0, 600, 600)] * 0.5 + population
        np.cumprod(trial[:, :20], axis=1)
    np.bincount(rng.integers(0, 21, 100_000), minlength=21)


class Pace:
    def __init__(self):
        self.samples: list = []

    def probe(self) -> None:
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)

    def _on_alarm(self, signum, frame) -> None:
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def probe_s(self) -> float:
        return sum(self.samples)

    def slowdown(self) -> float:
        """Median probe time over the reference machine's."""
        return statistics.median(self.samples) / REFERENCE_S
