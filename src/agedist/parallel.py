"""Work split over the CPUs this process may run on, and the one home of
the share-and-stream rule that the search and the simulator follow.

The search splits a generation's rows and the simulator a step's uniform
chunks into contiguous ``shares``, one per CPU (``os.sched_getaffinity``)
but at most one per work unit each already cuts: a tile of rows, a chunk of
uniforms. Share 0 runs on the calling thread and every other share on a
worker thread that lives only as long as the ``runner`` block. Every share
reads its doubles from its own generator, which ``position`` sets to the
seeded stream jumped ahead to the share's first double; the stream itself
moves past every share's doubles, so its next draws are those a serial run
makes. So every unit gets the floats a serial run gives it, results are bit
for bit independent of the share count, and restricting the CPU affinity
(``taskset -c 0``) gives a serial run with the same results.
"""

from __future__ import annotations

import os
from contextlib import contextmanager


def cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where it has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def split(rows: slice, count: int) -> list:
    """``rows`` cut into ``count`` contiguous slices, in order, whose
    lengths differ by at most one."""
    edges = [rows.start + (rows.stop - rows.start) * k // count for k in range(count + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def shares(units: int, per: int = 1) -> list:
    """``range(units)`` in contiguous slices, one per CPU but at most ceil(units / per)."""
    return split(slice(0, units), min(cpu_count(), -(-units // per)))


def position(rng, streams, starts, total) -> None:
    """Jump ``streams[k]`` to ``rng``'s stream from its ``starts[k]``-th
    64-bit output on, and move ``rng`` past ``total`` outputs, as if it had
    drawn ``total`` doubles (one output each) itself. The offsets are Python
    ints, as PCG64's ``advance`` takes; it clears the buffered upper half of
    an output that a 32-bit draw leaves, and ``rng`` gets it back, so its
    next bounded integer draw reads the stream exactly as after drawing the
    doubles."""
    state = rng.bit_generator.state
    for stream, start in zip(streams, starts):
        stream.bit_generator.state = state
        stream.bit_generator.advance(start)
    rng.bit_generator.advance(total)
    after = rng.bit_generator.state
    after["has_uint32"], after["uinteger"] = state["has_uint32"], state["uinteger"]
    rng.bit_generator.state = after


@contextmanager
def runner(count: int):
    """Yield ``run(task)``, which calls ``task(k)`` for k in 0..count-1 and
    returns once all calls are done: share 0 on the calling thread, each
    other share on a worker thread that lives only inside the ``with``. A
    failure in any share is raised unchanged once every share is done."""
    if count == 1:
        yield lambda task: task(0)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(count - 1, thread_name_prefix="agedist-share") as pool:
        def run(task):
            pending = [pool.submit(task, k) for k in range(1, count)]
            try:
                task(0)
            finally:
                # Wait for every share, even when this one failed.
                failures = [future.exception() for future in pending]
            for failure in failures:
                if failure is not None:
                    raise failure

        yield run
