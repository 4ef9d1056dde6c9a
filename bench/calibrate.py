"""Machine-speed calibration for a shared, noisy host.

The speed of a vCPU on a shared host drifts by 20-40 % over seconds to
minutes as neighbours come and go, while the process keeps its CPU (the
time lost is not steal time, and CPU time drifts with wall time).  Running
``kernel`` next to the measured code tracks that drift with code that is
independent of difftower: sparse polynomial products with Fraction
coefficients in dicts, the same interpreter work the library's arithmetic
core does.  Times are then reported at the reference speed, where one kernel
call takes ``REFERENCE_S``:

    reported = measured * REFERENCE_S / mean(kernel times around it)

The kernel and REFERENCE_S are part of the benchmark's definition: changing
either changes every reported time, so neither may change between a baseline
and the run it is compared with.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

REFERENCE_S = 1e-3

_A = {(i, j): Fraction(i + 2 * j + 1, j + 3) for i in range(5) for j in range(4)}
_B = {(i, j): Fraction(3 * i - j + 2, i + 5) for i in range(4) for j in range(3)}


def kernel() -> dict:
    out = {}
    for e1, c1 in _A.items():
        for e2, c2 in _B.items():
            e = (e1[0] + e2[0], e1[1] + e2[1])
            out[e] = out.get(e, 0) + c1 * c2
    return out


def sample() -> float:
    """Seconds for one kernel call, with the collector paused so that the
    heap of the code under test does not leak into the sample."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def factor(samples) -> float:
    """Mean kernel time over the reference time: how much slower than the
    reference the machine ran while the samples were taken.  Divide a raw
    time by it to get the time at reference speed."""
    return statistics.fmean(samples) / REFERENCE_S
