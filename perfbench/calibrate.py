"""Host-speed calibration: a fixed pure-Python loop timed beside the work.

Shared hosts can change speed under a benchmark.  On the 2-vCPU VM this
benchmark was tuned on, everything ran about 2x slower for stretches of
seconds to minutes, which made raw wall times differ by 30% between runs of
the same seed.  The loop below slows by the same factor as the queries: over
a minute of alternating a query and the loop, the query's time varied by
8-17% and its ratio to the loop's time by 4% (10-sample windows).

So each measured interval is also reported at nominal speed:

    nominal seconds = seconds * REFERENCE_S / (time of the loop run beside it)

REFERENCE_S is the loop's time at that host's fast speed, so nominal seconds
read as wall seconds there.  Raw wall times are printed alongside.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

REFERENCE_S = 0.0034


def reference_seconds() -> float:
    """Wall time of a fixed Fraction-summing loop (a few milliseconds).

    The cyclic GC is off while it runs, so the time depends on the host and
    not on how many objects the caller keeps alive."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 1501):
            total += Fraction(i % 7, i % 13 + 1)
        return time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()
