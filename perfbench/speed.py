"""Host speed: a fixed calibration kernel timed between the measured calls.

On a shared virtual machine the speed of a CPU drifts by tens of percent
over seconds to minutes (frequency changes, neighbours sharing the core
and its caches), and process CPU time drifts with it, so raw times of
two runs a minute apart differ by more than any change worth finding.
The benchmark therefore times :func:`kernel` -- a few milliseconds of
pure-Python interpreter work that calls nothing from the program --
between the calls it measures, and scales every measured time to the
host speed at which the kernel takes :data:`NOMINAL_S`::

    normalized = measured * NOMINAL_S / kernel time around the call

"Around the call" is the geometric mean of the last sample before it,
any sample inside it, and the first sample after it.

A program that gets 10% faster reads 10% faster at any host speed; a
host that slows down reads the same.  Raw times stay in the result
record beside the normalized ones.
"""

from __future__ import annotations

import bisect
import heapq
import math
import statistics
import time

#: Kernel time (median of a burst) that defines the nominal host speed:
#: about its median on a 2-vCPU x86-64 virtual machine with Python 3.11.
NOMINAL_S = 0.0025
BURST = 3  # kernel runs per sample; the sample is their median
INTERVAL_S = 0.25  # least time between two samples taken by maybe_sample()


def _ticks(count: int):
    yield from range(count)


def kernel() -> int:
    """Interpreter arithmetic, dict and string churn, generator resumes feeding a heap."""
    acc = 0
    table: dict[int, int] = {}
    words = []
    for i in range(3000):
        acc = (acc * 31 + i) % 1000003
        table[i & 255] = table.get(i & 255, 0) + acc
        words.append(str(acc))
    words.sort()
    x = 0.0
    for i in range(1, 2000):
        x += (i**0.5) / (1.0 + x * 1e-6)
    heap: list[int] = []
    for j in range(300):
        for tick in _ticks(10):
            heapq.heappush(heap, (tick * 7 + j) % 101)
    while heap:
        acc += heapq.heappop(heap)
    return acc + len(table) + len(words[0]) + int(x)


class SpeedTrack:
    """Kernel samples ``(time, seconds)`` of one process, in time order."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.kernel_s: list[float] = []

    def sample(self) -> None:
        runs = []
        for _ in range(BURST):
            start = time.perf_counter()
            kernel()
            runs.append(time.perf_counter() - start)
        self.times.append(time.perf_counter())
        self.kernel_s.append(statistics.median(runs))

    def maybe_sample(self) -> None:
        """Sample unless the last sample is less than :data:`INTERVAL_S` old."""
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """``NOMINAL_S`` over the geometric mean kernel time of the samples around [start, end].

        Those are the last sample at or before *start*, every sample
        inside, and the first sample at or after *end*.
        """
        lo = max(bisect.bisect_right(self.times, start) - 1, 0)
        hi = min(bisect.bisect_left(self.times, end) + 1, len(self.times))
        around = self.kernel_s[lo:hi] or self.kernel_s
        return NOMINAL_S / math.exp(statistics.fmean(map(math.log, around)))

    def overall(self) -> float:
        """The scale of the whole track: ``NOMINAL_S`` over its median kernel time."""
        return NOMINAL_S / statistics.median(self.kernel_s)

    def dump(self) -> list[list[float]]:
        return [list(pair) for pair in zip(self.times, self.kernel_s)]

    @classmethod
    def load(cls, pairs: list[list[float]]) -> "SpeedTrack":
        track = cls()
        for t, k in pairs:
            track.times.append(t)
            track.kernel_s.append(k)
        return track
