"""How fast the host is running, sampled while the measured work runs.

On a shared 2-vCPU Xeon VM the same unit of work runs up to 1.6x slower
for tens of seconds at a time.  A :class:`Sampler` interrupts the
process every :data:`SAMPLE_EVERY_S` of CPU time (``ITIMER_PROF``) and
times a fixed :func:`calibration_burst` in the signal handler, so the
host's speed is known for every stretch of the work, including the
inside of a single 15-second verification.  The time the samples take
is tallied, so callers can subtract it from what they measured.

The burst is built from C-level builtins: it shares no code or data
with BVF, so no change to the program can make it faster or slower, and
it emits no Python line events, so the coverage tracer that is active
during verification does not slow it either.
"""

from __future__ import annotations

import operator
import os
import signal
import statistics
import time

#: CPU seconds between two samples (about 0.6% of the time goes to them).
SAMPLE_EVERY_S = 0.05
#: What one burst takes on the reference host, a 2.0 GHz Xeon vCPU
#: running Python 3.11 with no other load.  Times are reported as if the
#: host ran at that speed.
REFERENCE_BURST_S = 0.00015

_DATA = list(range(2000))


def _work() -> None:
    sum(map(operator.mul, _DATA, _DATA))
    sorted(_DATA, key=operator.neg)


def calibration_burst() -> float:
    """Seconds taken by a fixed piece of work that shares nothing with BVF.

    The work runs twice and only the second run is timed: the first
    brings its data back into the caches the interrupted program was
    using, so the sample does not depend on the program's footprint.
    """
    _work()
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def at_reference_speed(value: float, burst_s: float, scale) -> float:
    """Rescale a measured time or rate to the reference host speed.

    ``burst_s`` is the median burst sampled while ``value`` was measured;
    ``scale`` is "time", "rate" or None (not a time: left as it is).
    """
    if scale == "time":
        return value * REFERENCE_BURST_S / burst_s
    if scale == "rate":
        return value * burst_s / REFERENCE_BURST_S
    return value


def median_burst(bursts: list[float], fresh: int = 3) -> float:
    """Median of ``bursts`` topped up with ``fresh`` new ones (a short
    stretch of work may hold no sample at all)."""
    return statistics.median(
        list(bursts) + [calibration_burst() for _ in range(fresh)])


class Sampler:
    """Times a calibration burst every :data:`SAMPLE_EVERY_S` of CPU time."""

    def __init__(self) -> None:
        #: burst durations, in the order they were sampled
        self.bursts: list[float] = []
        #: wall seconds the sampling itself has taken so far
        self.spent_s = 0.0
        self._pid: int | None = None

    @property
    def running(self) -> bool:
        return self._pid == os.getpid()

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._pid = os.getpid()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self._pid = None

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self.bursts.append(calibration_burst())
        self.spent_s += time.perf_counter() - start
