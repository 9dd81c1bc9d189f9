"""A fixed unit of pure-Python work that tracks the machine's current speed.

On a shared virtual machine the CPU can switch between speed states that
differ by more than 1.5x for seconds at a time.  The time of this loop and
the time of a modcurve operation move together, so the benchmark runs
the loop between operations, at least every SLICE_S seconds, and reports
each operation's time scaled by the loop's reference time over the mean of
the loop's last time before and first time after the operation: "seconds
at reference speed".  Raw times are printed too.
"""

import time

ITERATIONS = 6000
# this loop's time on the machine the benchmark was defined on (2 vCPU
# Intel Xeon, CPython 3.11.7) in its faster state
REFERENCE_S = 1.0e-3
SLICE_S = 0.05


def calibrate() -> float:
    """Seconds the fixed loop takes now."""
    t0 = time.perf_counter()
    acc = 0
    seen = {}
    for i in range(ITERATIONS):
        t = (i, i + 1, i % 7)
        seen[t[2]] = t
        acc += t[0] * 3 % 11
    return time.perf_counter() - t0


def speed_factor(before: float, after: float) -> float:
    """Multiplier from raw time to time at reference speed."""
    return 2 * REFERENCE_S / (before + after)
