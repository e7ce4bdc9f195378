"""How fast the shared host runs while something is measured.

The host's speed drifts by tens of percent, in spells from a second to
minutes. Every timed process therefore also times ``calibration_work``, a
fixed mix of the kind of work divrel's operations do, and reported times
are scaled by CAL_REF_S / (median calibration time within CAL_WINDOW_S of
the timed interval): seconds on a host where calibration_work takes 10 ms.
A calibration must run in the process it describes: one run in a parent
while a child works does not track the child's speed.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

CAL_REF_S = 0.010
CAL_EVERY_S = 0.25
CAL_WINDOW_S = 1.0


def calibration_work() -> float:
    """Interpreter dispatch, array <-> tuple-of-floats conversion, small-array
    numpy calls and whole-array kernels at 1e5 elements; independent of divrel."""
    import numpy as np

    x, d = 0.0, {}
    for i in range(45_000):
        x += (i % 7) * 0.5
        d[i & 255] = x
    b = np.asarray(tuple(float(v) for v in np.linspace(1.0, 2.0, 15_000)))
    for _ in range(150):
        b[:8] = np.sqrt(b[:8] * b[:8] + 1.0)
    c = np.linspace(1.0, 2.0, 100_000)
    for _ in range(7):
        x += float(np.sum(c * np.log(c)))
    return x + float(b[0])


def calibrate(repeats: int = 1) -> float:
    """Seconds one calibration_work takes now: the median of ``repeats`` timings."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        calibration_work()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class HostSpeed:
    """Calibration samples with the time each ended."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []

    def add(self, at: float, duration: float) -> None:
        i = bisect.bisect(self.times, at)
        self.times.insert(i, at)
        self.durations.insert(i, duration)

    def sample(self) -> None:
        duration = calibrate()
        self.add(perf_counter(), duration)

    def tick(self) -> None:
        """Sample if CAL_EVERY_S has passed since the last sample."""
        if not self.times or perf_counter() - self.times[-1] >= CAL_EVERY_S:
            self.sample()

    def scale(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, in reference-speed seconds."""
        lo = bisect.bisect_left(self.times, start - CAL_WINDOW_S)
        hi = bisect.bisect_right(self.times, start + seconds + CAL_WINDOW_S)
        near = self.durations[lo:hi] or self.durations
        return seconds * CAL_REF_S / statistics.median(near)
