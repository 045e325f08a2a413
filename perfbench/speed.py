"""Machine-speed calibration for a shared host.

On a shared 2-core host the speed of pure-Python code drifts by 20-40%
over tens of seconds, in wall and CPU time alike, which is more than any
useful regression bound.  The benchmark therefore times one fixed
pure-Python loop around the work it measures and reports every time at the
reference speed at which that loop takes REF_S seconds:

    reported = measured * REF_S / (median loop time measured nearby)

The loop is timed every few tenths of a second of measured work; each op
uses the median of the timings nearest to it, which tracks the drift
better than one median per pass and is less noisy than one timing.  The loop uses only the standard
library (Fraction arithmetic and dict updates, as the program does), so no
change to the program can move it.  The raw wall times are printed next to
the reported ones.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

REF_S = 0.005


def calibrate() -> float:
    """Seconds the fixed loop takes now, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 400):
            acc += Fraction(1, i)
        counts: dict[int, int] = {}
        for i in range(20000):
            counts[i % 997] = counts.get(i % 997, 0) + i
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def at_reference(seconds: float, loop_times) -> float:
    """`seconds` at the reference speed, given loop timings taken about the
    time it was measured."""
    return seconds * REF_S / statistics.median(loop_times)


def nearby(loops, i: int, k: int = 2) -> list[float]:
    """Timings nearest to op i, from `loops` = [(index of the next op, loop
    time), ...] in order: k+1 taken up to op i and k+1 after it."""
    j = bisect.bisect_right([pos for pos, _ in loops], i) - 1
    return [t for _, t in loops[max(0, j - k):j + 2 + k]]
