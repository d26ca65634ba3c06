"""Host-speed reference: a fixed kernel timed between the benchmark's runs.

A shared host's speed drifts by tens of percent over seconds to
minutes.  On a 2-vCPU Intel Xeon host, the fuzz CLI took 2.4 s and,
100 s later, 3.7 s, while a fixed pure-Python loop slowed by the same
share.  A run-to-run bound of at most 25% cannot hold on raw seconds
there.  So ``run.py`` times this kernel before the first process and
after every process it measures, for about ``SHARE`` of that
process's wall time.  Each process's seconds are scaled by
``NOMINAL_S / k``, where ``k`` is the mean of the median kernel times
of the gaps just before and just after it: seconds at the speed the
host had when ``NOMINAL_S`` was taken.  A change to the program moves
these seconds as it moves raw ones; a change in host speed cancels
out.  The kernel is benchmark code, so both sides of a comparison
time the same kernel.

The kernel mixes the program's two kinds of work: an interpreted loop
with dict stores (scalar device model, interpreter, fuzzer) and numpy
sorts and scans over a 2 MiB array (population and analytic engines).
Each half takes about 0.1 s.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: Median kernel time on the 2-vCPU Intel Xeon host of the baseline in
#: README.md, Python 3.11.7, numpy 2.4.6.  Fixed, so that normalised
#: seconds are comparable across commits and runs.
NOMINAL_S = 0.23

#: Kernel time spent after each process, as a share of its wall time
#: (at least one pass): a long process gets a finer speed estimate.
SHARE = 0.08

_DATA = np.random.default_rng(12345).random(1 << 18)


def kernel_s() -> float:
    """Seconds one pass of the fixed reference kernel takes now."""
    start = time.perf_counter()
    table, acc = {}, 0
    for index in range(600_000):
        acc = (acc * 31 + index) & 0xFFFFFFFF
        table[acc & 4095] = index
    values = _DATA
    for __ in range(24):
        values = np.sort(values * 1.000001 + 0.5)
        np.cumsum(values)
    return time.perf_counter() - start


class HostSpeed:
    """Kernel times in the gaps between a sequence of measured processes."""

    def __init__(self) -> None:
        self.kernels: List[float] = []
        self.last = self._gap(2)

    def _gap(self, passes: int) -> float:
        times = [kernel_s() for __ in range(passes)]
        self.kernels += times
        return statistics.median(times)

    def factor_after(self, wall_s: float) -> float:
        """Call right after a measured process ends: its scale factor."""
        before = self.last
        self.last = self._gap(max(1, round(SHARE * wall_s / NOMINAL_S)))
        return NOMINAL_S / ((before + self.last) / 2.0)
