"""Host-speed sampling, so shared-host noise does not read as a regression.

On a machine shared with other tenants the same campaign can take 18 s
or 25 s depending on what runs beside it: the core slows down as a
whole, and a pure-Python loop slows down with it.  :class:`HostSpeed`
runs a fixed, ``repro``-independent loop from a timer signal every
:data:`INTERVAL_S` seconds, on the same thread and core as the measured
code.  The median loop time over a span, divided by the loop's time on
a quiet host (:data:`REFERENCE_KERNEL_S`), is that span's slowdown
factor; dividing a measured duration by it gives *reference seconds*,
the duration on a quiet host.  The sampler costs about 3% of the run,
the same on every commit.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Sampling period (wall clock).
INTERVAL_S = 0.02
#: Median kernel time, sampled during a campaign, on a quiet host (2-core
#: x86-64 VM, Python 3.11).  It fixes the unit of reference seconds, not
#: any comparison between runs.
REFERENCE_KERNEL_S = 0.00032


def kernel() -> int:
    """A fixed mix of interpreter work: a loop, arithmetic, dict ops."""
    table = {}
    acc = 0
    for i in range(1500):
        key = (i * 2654435761) & 255
        table[key] = table.get(key, 0) + i
        acc += key % 7
    return acc


class HostSpeed:
    def __init__(self) -> None:
        self.at: list[float] = []
        self.seconds: list[float] = []

    def _sample(self, signum, frame) -> None:
        kernel()  # untimed: refill the caches the measured code evicted
        start = time.perf_counter()
        kernel()
        self.seconds.append(time.perf_counter() - start)
        self.at.append(start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def slowdown(self, start: float, end: float) -> float:
        """Slowdown factor over ``[start, end]`` (``perf_counter`` times);
        1.0 when the span held no sample."""
        inside = [s for at, s in zip(self.at, self.seconds) if start <= at <= end]
        if not inside:
            return 1.0
        return statistics.median(inside) / REFERENCE_KERNEL_S
