"""Machine speed samples, which the bounded time metrics are scaled by.

A shared 2-vCPU box runs up to twice as slow in phases lasting from
seconds to minutes.  :func:`sample` times a fixed interpreter-bound job
in CPU time: waiting for a CPU does not count, only how fast the
machine executes instructions at that moment, which is what the slow
phases change.  A time measured while the samples were taken is brought
to the reference speed (:data:`REF_SAMPLE_S`) by multiplying it with
:func:`scale`.
"""

from __future__ import annotations

import statistics
import time

#: Fixed reference CPU time of one :func:`sample`: a scaled time is the
#: time the program would take on a machine where one sample takes this
#: long.  Never change it, or scaled times of different runs no longer
#: compare.
REF_SAMPLE_S = 0.006


def sample() -> float:
    """CPU seconds of a fixed interpreter-bound job (a few milliseconds)."""
    t0 = time.thread_time()
    table: dict[int, int] = {}
    for i in range(20_000):
        table[(i * 7919) % 10_007] = i
    sum(table.get(i, 0) for i in range(20_000))
    return time.thread_time() - t0


def scale(samples: list[float]) -> float:
    """Factor that brings a time measured during *samples* to the reference speed."""
    return REF_SAMPLE_S / statistics.median(samples)
