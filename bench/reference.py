"""A fixed reference task that expresses op times in units of machine speed.

On a shared host the CPU speed drifts by tens of percent over minutes, and
the drift moves every wall-clock time of a run alike.  Timing this task at
regular points of the same run, and dividing op times by its median time,
cancels most of the drift.  What remains is the library's own cost.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_MATRIX = np.linspace(-1.0, 1.0, 3600).reshape(60, 60)
_VECTOR = np.linspace(0.0, 1.0, 60)


def reference_task() -> float:
    """Fixed work that mixes interpreted arithmetic and small numpy calls,
    as the library's ops do."""
    s = 0.0
    for i in range(10_000):
        s += i * 0.5
    for _ in range(20):
        s += float((_MATRIX @ _VECTOR)[0])
    return s


class ReferenceClock:
    """Times the reference task once per ``PERIOD_S`` of a pass.

    Samples are taken between ops, so after an op that lasted several
    periods the missed samples are taken together: every stretch of the
    pass then weighs in the median by its length.
    """

    PERIOD_S = 0.2
    MAX_BURST = 50

    def __init__(self):
        self.samples = []
        self._last = None

    def sample_if_due(self) -> None:
        now = time.perf_counter()
        due = 1 if self._last is None else int((now - self._last) / self.PERIOD_S)
        for _ in range(min(due, self.MAX_BURST)):
            t0 = time.perf_counter()
            reference_task()
            self.samples.append(time.perf_counter() - t0)
        if due:
            self._last = time.perf_counter()

    def seconds(self) -> float:
        """Median time of the reference task over the pass."""
        return statistics.median(self.samples)
