"""Machine-speed calibration for the benchmark's timings.

The reference machine is a 2-vCPU virtual machine whose speed drifts
by up to ±25 % over tens of seconds as neighbours load the host; a
20-second run cannot average that out.  A fixed kernel that does the
same kinds of work as the program (sorted-array searches in numpy,
float formatting and parsing in Python) is timed between ops
throughout the run.  Dividing a run's timings by its mean kernel time
over :data:`NOMINAL_S` expresses them at the machine's nominal speed:
in six 10-second runs of ``analyze_windows`` on one seed, the median
op time moved by ±10 % raw and by ±1.5 % calibrated.

The kernel is benchmark code with fixed inputs; no change to hurstks
can make it faster or slower, except work the program leaves running
in the background of the same process, which would slow both.  Raw
timings are reported next to the calibrated ones.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

# Kernel time at the reference machine's usual speed.
NOMINAL_S = 0.007
# Seconds between samples taken between ops, and kernel runs per
# sample; single 7 ms runs swing by ±20 % from one second to the next.
INTERVAL_S = 0.5
REPS = 5


class Calibrator:
    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._sorted = np.sort(rng.standard_normal(1500))
        self._queries = rng.standard_normal(3000)
        self._floats = rng.standard_normal(1500).tolist()
        self.samples: list[float] = []
        self._last = -math.inf

    def _kernel(self) -> float:
        t0 = perf_counter()
        for _ in range(10):
            np.searchsorted(self._sorted, self._queries, side="right")
            np.searchsorted(self._sorted, self._queries, side="left")
        text = [repr(v) for v in self._floats]
        sum(float(s) for s in text)
        return perf_counter() - t0

    def sample(self) -> None:
        self.samples.append(statistics.median(self._kernel() for _ in range(REPS)))
        self._last = perf_counter()

    def sample_if_due(self) -> None:
        if perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def slowness(self) -> float:
        """Mean kernel time over nominal (> 1: the machine ran slower)."""
        return statistics.mean(self.samples) / NOMINAL_S
