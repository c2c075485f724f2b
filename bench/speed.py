"""Machine-speed probe: converts measured wall times to reference seconds.

On a small shared host the same code runs up to about 1.7 times slower for
seconds at a time, so raw wall times of one workload spread by 20-35 %
between runs.  While the benchmark measures, a SIGALRM handler times a
fixed pure-Python kernel every ``INTERVAL_S`` seconds.  The kernel's time
follows the machine's speed, so a measured interval converts to reference
seconds, the time it would take where the kernel takes ``NOMINAL_S``:

    reference = (wall - probe time inside the interval) * NOMINAL_S / kernel

with ``kernel`` the mean kernel time over the probes inside the interval and
``PAD_S`` on each side.  The probe costs about 2 % of the run.  On a
2-vCPU shared host the kernel's median time moved between 113 and 197 us
across ten runs of ``cli_alllog`` while their median op time in reference
seconds stayed within 1.28-1.38 s; raw medians had spread by about 0.3 of
the median over five runs.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

INTERVAL_S = 0.01
PAD_S = 0.25
NOMINAL_S = 1e-4

_clock = time.perf_counter


class _Agent:
    __slots__ = ("weights", "money")

    def __init__(self, weights, money):
        self.weights = weights
        self.money = money


_POPULATION = tuple(_Agent((0.4 + i * 1e-4, 0.6 - i * 1e-4), 1.0 + i * 1e-4) for i in range(400))


def _kernel() -> float:
    """Tuple building, float arithmetic and ``math`` calls, then a slice and
    ``fsum`` over attribute reads: the two kinds of work in the engine's
    inner loops.  Together they track the engine's speed better than either
    alone or an integer loop; adding small numpy products made the tracking
    worse."""
    acc = []
    for i in range(150):
        t = (i * 0.5, i + 1.0, float(i % 7))
        acc.append(math.fsum(t) / (1.0 + math.log1p(t[0])))
    rest = _POPULATION[:7] + _POPULATION[8:]
    return sum(acc) + math.fsum(a.weights[0] for a in rest) + math.fsum(a.money for a in rest)


class Probe:
    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._cumulative = [0.0]

    def _sample(self, signum, frame) -> None:
        t0 = _clock()
        _kernel()
        t1 = _clock()
        self.starts.append(t0)
        self.durations.append(t1 - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._cumulative = [0.0]
        for d in self.durations:
            self._cumulative.append(self._cumulative[-1] + d)

    def kernel_s(self) -> float:
        """Median kernel time over the run (the machine's speed)."""
        return statistics.median(self.durations)

    def reference_s(self, t0: float, t1: float) -> float:
        """Reference seconds of the wall interval [t0, t1]; call after ``stop``."""
        starts, cum = self.starts, self._cumulative
        i0, i1 = bisect.bisect_left(starts, t0), bisect.bisect_left(starts, t1)
        lo, hi = bisect.bisect_left(starts, t0 - PAD_S), bisect.bisect_left(starts, t1 + PAD_S)
        if hi == lo:
            lo, hi = 0, len(starts)
        kernel = (cum[hi] - cum[lo]) / (hi - lo)
        return (t1 - t0 - (cum[i1] - cum[i0])) * NOMINAL_S / kernel
