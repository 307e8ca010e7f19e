"""Machine-speed probe and speed-normalised times.

The benchmark runs on shared two-core virtual machines whose speed for a
single thread swings by 30-50 % within seconds and drifts between minutes,
as other tenants load the host.  The swing hits big-integer Python and
small numpy operations alike.  Raw wall times of identical runs then
differ by 25-40 %, far beyond any useful regression bound.

So every time the benchmark reports is scaled to a reference speed: a fixed
probe kernel, which uses no sqdist code, is timed between ops, and an op's
time is multiplied by REFERENCE_S / (mean probe time around the op).  A
program change moves the op times and leaves the probe alone; a slower
machine moves both.  Raw times are reported next to the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

# The probe's time at the reference speed: its typical time on the
# two-core virtual machine the benchmark was defined on.
REFERENCE_S = 0.0007
# Probes within this many seconds of an op's start or end set its speed.
WINDOW_S = 0.5

_VEC = np.ones(64)


def _kernel() -> None:
    acc = Fraction(0)
    for i in range(1, 100):
        acc += Fraction(i, 7) * Fraction(3, i + 1)
    v = _VEC
    for _ in range(60):
        v = v * 0.5 + 1.0


def probe() -> float:
    """Seconds the probe kernel takes now: the mean of five runs.

    The mean follows an op's slowdown more closely than the fastest run:
    against ops of the scan and verify workloads, log op time falls on log
    probe time with slope 0.9, and dividing by the probe cuts the spread of
    log op time from 0.23 to 0.10.
    """
    t0 = perf_counter()
    for _ in range(5):
        _kernel()
    return (perf_counter() - t0) / 5


class SpeedLog:
    """Probe results in time order; scales intervals to the reference speed."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self) -> None:
        took = probe()
        self.at.append(perf_counter())
        self.took.append(took)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean probe time around [start, end]."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        window = self.took[lo:hi] or self.took
        return REFERENCE_S / statistics.mean(window)
