"""Host speed sampling, to take other tenants' load out of in-process timings.

On a shared 2-CPU virtual machine, other tenants change how fast the same
Python code runs by a third or more, in bursts that last seconds to minutes
and differ between the two CPUs: a fixed integer loop took between 0.26 s
and 0.44 s within one hour, with no steal time reported.  No spread over
repeated runs can be read below that, so the in-process workloads are timed
at a reference speed.

While a run is under way, a timer signal runs a short fixed probe of
``Fraction`` arithmetic, tuple keys and dictionary stores (what weylgpd's hot
paths are made of) five times a second, in the run's own process and so on
its CPU.  The probe runs twice and only the second run is timed, so that the
caches the workload left cold do not count; with collection paused, so that
the size of the workload's heap does not count either.  An interval's time
at the reference speed is its measured time, less the probes that ran inside
it, times ``NOMINAL_PROBE_S`` over the median probe time around it.  The
probe belongs to the benchmark, so a change to weylgpd never changes it.

The correction is only as good as the probe's likeness to the workload.  It
tracks the small rank-2 tables closely (spread over ten seeds from about 13%
to 3-7%); the F4 survey, which waits on memory more than the probe does, is
over-corrected when the host's speed swings widely (8-18% against 14-19% as
measured).
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

#: The timed probe on an unloaded host of the machine the benchmark was tuned on.
NOMINAL_PROBE_S = 0.0022
PERIOD_S = 0.2
#: Probes this long before and after an interval count for its speed, so
#: that an interval shorter than the period still has samples.
WINDOW_S = 0.6

_TERMS = [Fraction(i, 7) for i in range(1, 40)]


def _probe_once() -> None:
    acc = Fraction(0)
    seen = {}
    for a in _TERMS:
        for b in _TERMS[:12]:
            acc += a * b
            seen[(a, b)] = acc


def probe() -> tuple[float, float]:
    """(seconds the whole probe took, seconds of its timed second run)."""
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    _probe_once()
    middle = time.perf_counter()
    _probe_once()
    end = time.perf_counter()
    if collecting:
        gc.enable()
    return end - start, end - middle


class SpeedSampler:
    """Context manager that probes the host speed on a timer signal."""

    def __init__(self):
        self.ends: list[float] = []  # perf_counter at the end of each probe
        self.spent: list[float] = []  # whole probe, to subtract from intervals
        self.timed: list[float] = []  # timed second run, the speed sample
        self._previous = None

    def __enter__(self) -> "SpeedSampler":
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self._tick())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self) -> None:
        spent, timed = probe()
        self.ends.append(time.perf_counter())
        self.spent.append(spent)
        self.timed.append(timed)

    def scaled(self, start: float, end: float) -> float:
        """Seconds from start to end at the reference speed."""
        first = bisect.bisect_left(self.ends, start)
        last = bisect.bisect_right(self.ends, end)
        inside = sum(self.spent[first:last])
        window = self.timed[
            bisect.bisect_left(self.ends, start - WINDOW_S) : bisect.bisect_right(self.ends, end + WINDOW_S)
        ]
        return (end - start - inside) * NOMINAL_PROBE_S / statistics.median(window or self.timed[-1:])

    def slowdown(self) -> float:
        """Median probe time over the reference, across the run."""
        return statistics.median(self.timed) / NOMINAL_PROBE_S
