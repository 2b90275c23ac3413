"""Host time in reference-host seconds.

The shared VM the benchmark was built on (Intel Xeon, 2 vCPUs) switches
every few seconds to minutes between a fast state and one about 1.65x
slower, on each vCPU independently: other tenants load the same cores.
Wall time equals CPU time, so it is not descheduling, and a slow spell can
last a whole run, so no statistic over one run's samples removes it.

Measured 5-second windows over 90 s put adipsim's own code and a small
fixed kernel through the same slowdown: the windows' raw times spread by
40-50% (quartiles over median), their ratios to the kernel by 2-5%. So the
clock runs the kernel between jobs, at least every REF_EVERY_S, and scales
a measured interval by REF_S over the kernel's time: the median of the
last three for a short interval, the mean of the two around it for one
that spans a kernel run. REF_S is about the kernel's time in the fast
state, so a scaled time is near what the interval takes on a quiet host of
that machine. The kernel is the benchmark's own: no change to adipsim
moves it.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

import numpy as np

REF_S = 2.6e-3  # reference_kernel() in the fast state of the build machine
REF_EVERY_S = 0.1


def reference_kernel() -> int:
    """Fixed work in the simulator's mix: small-array numpy steps and Python integer loops."""
    x = np.arange(256, dtype=np.int64).reshape(16, 16)
    acc = 0
    for i in range(200):
        x = np.roll(x, -1, axis=1) * 3 + i
        x &= 0xFFFF
        acc += int(x[i % 16, i % 16])
    for i in range(3000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return acc


class HostClock:
    def __init__(self) -> None:
        self.ref_s: list[float] = []  # every kernel time measured
        self._recent: deque[float] = deque(maxlen=3)
        self._last = float("-inf")

    def start(self) -> float:
        """Start timing an interval; first runs the kernel if it is due."""
        self._run_kernel_if_due()
        return time.perf_counter()

    def ms_since(self, t0: float) -> float:
        """Reference-host milliseconds since `t0`."""
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        before = self._recent[-1]
        if self._run_kernel_if_due():
            # A long interval: scale by the two kernel times around it, which
            # follow a change of host state within it.
            return elapsed_ms * REF_S / ((before + self._recent[-1]) / 2)
        return elapsed_ms * REF_S / statistics.median(self._recent)

    def speed(self) -> float:
        """The host's speed over the run, relative to the fast state."""
        return REF_S / statistics.median(self.ref_s)

    def _run_kernel_if_due(self) -> bool:
        began = time.perf_counter()
        if began - self._last < REF_EVERY_S:
            return False
        reference_kernel()
        took = time.perf_counter() - began
        self.ref_s.append(took)
        self._recent.append(took)
        self._last = time.perf_counter()
        return True
