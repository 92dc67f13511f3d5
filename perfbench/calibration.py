"""The calibration loop that normalised seconds are measured against.

The speed of a shared host can change by tens of percent from one
minute to the next.  Timing this fixed loop right around each measured
operation tells how fast the host was running just then.  The module
imports nothing of the program, so a fresh process can time the loop
before it loads the program, and no change to the program changes the
loop's time.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

#: Normalised seconds are wall seconds on a host that runs the
#: calibration loop in exactly this time.
CALIBRATION_REFERENCE_S = 0.001


def _calibration_work():
    """Fixed interpreter work of the kind the program does: exact
    fractions, tuple-keyed dicts, sorting.  It calls nothing of the
    program, so no change to the program changes its time."""
    total = Fraction(0)
    table = {}
    for i in range(1, 200):
        total += Fraction(i % 13 + 1, i % 7 + 2)
        table[i % 37, i % 11] = (total.numerator % 97, i)
    return sorted(table.values())


def calibration_seconds() -> float:
    """The least of three timed runs of the calibration loop, with the
    cyclic garbage collector off, so that no collection set off by the
    program's garbage lands in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            _calibration_work()
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


def calibration_median(samples: int) -> float:
    return statistics.median(calibration_seconds() for _ in range(samples))
