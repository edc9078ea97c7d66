"""Host speed, measured with a fixed reference task, to rescale op times.

On the reference machine the same computation runs up to ±30% faster or
slower from one stretch of tens of seconds to the next, with CPU time equal
to wall time: the host, not the benchmark, sets the pace.  Timing a fixed
task between ops and rescaling each op's wall time by the speed measured
around it removes most of that swing.  The task mixes interpreter work with
small numpy calls, the profile of credalkit's ops, and does not touch
credalkit, so a change to the program cannot move it.
"""

from __future__ import annotations

import bisect
import statistics
import time

# Rescaled times are those of a host on which the reference task takes 1 ms.
NOMINAL_S = 1e-3
# An op is rescaled by the median of this many samples on each side of it.
WINDOW = 8
# Ops are sampled around at most this often.
INTERVAL_S = 0.05
# A set-up sample is rescaled by the median of this many reference runs.
SETUP_REPEAT = 9


def reference(repeat: int = 1) -> float:
    """Median seconds of ``repeat`` runs of the reference task."""
    import numpy as np  # after set-up, so that set-up times numpy's import

    A = np.arange(64.0).reshape(8, 8) / 64.0
    runs = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        acc = 0.0
        seen = {}
        for i in range(600):
            seen[i & 31] = i
            acc += seen[i & 31]
        for _ in range(100):
            acc += float(np.max(A @ A[0]))
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)


class SpeedLog:
    """Reference samples taken during a run, and the scale factor at a time."""

    def __init__(self):
        self.at: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        now = time.perf_counter()
        if not self.at or now - self.at[-1] >= INTERVAL_S:
            self.seconds.append(reference())
            self.at.append(now)

    def scale(self, t: float) -> float:
        i = bisect.bisect_right(self.at, t)
        return NOMINAL_S / statistics.median(self.seconds[max(0, i - WINDOW - 1): i + WINDOW])
