"""How fast the machine runs Python during a run.

The speed of the shared 2-CPU box this benchmark was written on drifts by
about 20% either way over a few seconds: ``calibration_ms``'s loop, timed
over 2-s windows for a minute, ranged from 14.7 to 21.6 ms per 200,000
iterations, and process CPU time moved with wall time.  While the timed loop
runs, an interval timer therefore times the loop every ``SAMPLE_EVERY_S``,
also in the middle of a long op, and each op's time is scaled by
``REFERENCE_MS`` over the median of the timings taken within ``WINDOW_S`` of
it: the figures read as on a machine where the loop takes ``REFERENCE_MS``.
The time the timings themselves take is subtracted from the ops they
interrupt.

Timing the loop only between rounds left the long rounds of ``sweep-heavy``
(up to 4 s) with two timings each, and its ``ops_per_s`` and ``op_ms_tail``
spread 0.10 and 0.11 (interquartile range over median, ten runs); on rounds
of about 0.15 s it gave 0.03-0.08.  The loop is the benchmark's own code and
allocates no tracked objects, so a change to pathplan does not move it.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

SAMPLE_EVERY_S = 0.2
WINDOW_S = 1.0
REFERENCE_MS = 2.0


def calibration_ms() -> float:
    """The faster of two timings of a fixed pure-Python loop."""
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        total = 0
        for i in range(25_000):
            total += i * i % 7
        best = min(best, (time.perf_counter() - start) * 1000.0)
    return best


class SpeedGauge:
    """Timings of the calibration loop, taken from SIGALRM while the gauge
    is entered; ``perf_counter`` times throughout."""

    def __init__(self):
        self.samples = []  # (end of the timing, loop ms), in time order
        self.pauses = []  # (start, end) of each timing, in time order
        self._spent = [0.0]  # pause seconds before each pause, cumulated
        self._previous = None

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        ms = calibration_ms()
        end = time.perf_counter()
        self.samples.append((end, ms))
        self.pauses.append((start, end))
        self._spent.append(self._spent[-1] + end - start)

    def paused(self, start: float, end: float) -> float:
        """Seconds between ``start`` and ``end`` spent timing the loop."""
        first = bisect.bisect_left(self.pauses, (start,))
        last = bisect.bisect_left(self.pauses, (end,))
        inside = self._spent[last] - self._spent[first]
        if first > 0:  # a timing that began before ``start``
            inside += max(0.0, min(self.pauses[first - 1][1], end) - start)
        if last > first and self.pauses[last - 1][1] > end:
            inside -= self.pauses[last - 1][1] - end
        return inside

    def scale(self, start: float, end: float) -> float:
        """Factor from seconds spent between ``start`` and ``end`` to
        reference seconds: the median of the timings taken within
        ``WINDOW_S`` of that span."""
        low = bisect.bisect_left(self.samples, (start - WINDOW_S,))
        high = bisect.bisect_right(self.samples, (end + WINDOW_S, math.inf))
        return REFERENCE_MS / statistics.median(ms for _, ms in self.samples[low:high])
