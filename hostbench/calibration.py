"""A fixed pure-Python loop that measures the host's current speed.

On a shared host the CPU's speed drifts by up to ~2x in phases that
last from under a second to minutes, long enough to slow a whole run.
The drift reaches the interpreter's heap, dict, allocation and
attribute traffic, which is what the simulator's host time is made of,
far more than BLAS arithmetic.  The loop below is a small
discrete-event simulation made of that traffic.  The benchmark times it
just before and just after every piece of work it measures, and
divides the work's time by the loop's time around it (see
:func:`normalised`): the host's speed at that moment cancels, and the
result reads in the seconds of the host the benchmark was built on.

The loop does not depend on the repository's code, so a change to the
simulator cannot move it; it must never change, or normalised times
before and after the change stop being comparable.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from collections import deque

# calibration_loop() time in a calm phase of the 2-vCPU Xeon (2.0 GHz)
# VM the benchmark was built on (its slow phases took ~20 ms); a fixed
# scale, so normalised times read in that host's calm seconds
REFERENCE_S = 0.010
# loops timed in each calibration block
REPEATS = 2


class _Job:
    __slots__ = ("arrival", "size")

    def __init__(self, arrival: float, size: int) -> None:
        self.arrival = arrival
        self.size = size


def calibration_loop(n: int = 6000) -> float:
    """Heap-ordered arrivals batched FIFO, per-size counts and a
    latency table in dicts, latencies sorted."""
    events: list[tuple[float, int]] = []
    for i in range(n):
        heapq.heappush(events, ((i * 7919 % 10007) * 0.5 + i * 2.0, i))
    queue: deque[_Job] = deque()
    counts: dict[int, int] = {}
    latencies: list[float] = []
    clock = 0.0
    while events:
        t, i = heapq.heappop(events)
        queue.append(_Job(t, 1 + i % 7))
        if len(queue) >= 16 or not events:
            clock = max(clock, t)
            batch = [queue.popleft() for _ in range(len(queue))]
            work = sum(job.size for job in batch)
            for job in batch:
                latencies.append(clock + work - job.arrival)
                counts[job.size] = counts.get(job.size, 0) + 1
            clock += work
    table = {i: (i, latency) for i, latency in enumerate(latencies)}
    latencies.sort()
    return latencies[len(latencies) // 2] + len(counts) + sum(v[1] for v in table.values())


def timed(repeats: int = REPEATS) -> list[float]:
    """Host seconds of one calibration block of ``repeats`` loops.

    The collector is off meanwhile: a collection would traverse the
    caller's live objects, whose number depends on the workload."""
    enabled = gc.isenabled()
    gc.disable()
    samples = []
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            calibration_loop()
            samples.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return samples


def normalised(seconds: float, around: list[float]) -> float:
    """``seconds`` of host time in the reference host's seconds, given
    the calibration loops timed just before and just after it."""
    return seconds * REFERENCE_S / statistics.median(around)


def normalised_ops(walls: list[float], calibrations: list[float]) -> list[float]:
    """Each operation's time normalised by the calibration blocks timed
    just before and just after it.  ``calibrations`` holds one block
    before every operation and one after the last."""
    return [
        normalised(wall, calibrations[i * REPEATS : (i + 2) * REPEATS])
        for i, wall in enumerate(walls)
    ]
