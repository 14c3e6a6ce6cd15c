"""Machine-speed yardstick: what makes times from a shared box comparable.

The sandbox this ledger runs in drifts between faster and slower states —
by 25% and more, for seconds to tens of minutes at a time, wall and CPU
time alike (a neighbour on the same core, not this process).  Raw seconds
measured twenty minutes apart can differ by more than any bound worth
having, so every time the ledger reports is *normalised*: divided by how
much slower than ``REFERENCE_S`` a fixed piece of work (the yardstick) ran
just before and after it.  A reported second is a second on a machine that
runs the yardstick in ``REFERENCE_S``; on a quiet run of the box the
constant was taken on, normalised and raw seconds agree.

The yardstick mixes what the system's own code mixes: interpreter loops,
small-array NumPy calls, set and dict churn.  It is run between ops, never
during one, and its own time is excluded from every metric.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: Yardstick duration taken as speed 1.0 (its median on a quiet run of the
#: 2-core sandbox the first baseline was recorded on).
REFERENCE_S = 1.0e-3
#: Spins per mark, and the least time between marks.
SPINS = 15
MARK_EVERY_S = 0.2

_WORDS = np.arange(2048, dtype=np.uint64)


def yardstick() -> float:
    """Seconds one fixed piece of work takes right now."""
    started = time.perf_counter()
    total = 0
    for i in range(10000):
        total += i * i
    words = _WORDS
    for _ in range(40):
        words = (words ^ (words >> np.uint64(3))) | (words << np.uint64(1))
    np.unique(words)
    groups = {frozenset((i, i + 1, i % 7)) for i in range(1000)}
    index = {group: len(group) for group in groups}
    total += sum(index.values())
    return time.perf_counter() - started


class Marks:
    """Speed marks taken between ops, and the factor for any interval."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.speeds: list[float] = []
        #: Wall and CPU seconds spent on the yardstick itself.
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def mark(self, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and self.times and now - self.times[-1] < MARK_EVERY_S:
            return
        cpu = time.process_time()
        spins = [yardstick() for _ in range(SPINS)]
        self.times.append(time.perf_counter())
        self.speeds.append(statistics.median(spins) / REFERENCE_S)
        self.wall_s += self.times[-1] - now
        self.cpu_s += time.process_time() - cpu

    def factor(self, start: float, end: float) -> float:
        """How many times slower than the reference the machine ran over
        ``[start, end]``: the mean of the marks bracketing the interval."""
        before = max(0, bisect.bisect_right(self.times, start) - 1)
        after = min(len(self.times) - 1, bisect.bisect_left(self.times, end))
        return statistics.mean(self.speeds[before:after + 1])
