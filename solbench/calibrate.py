"""Host-speed calibration.

On a shared host the vCPU's speed swings by tens of percent in phases that
last from seconds to minutes, while steal time stays near zero, so CPU
time drifts exactly like wall time and a run's median cannot average the
phases out.  Every worker therefore times this fixed kernel next to the
interval it measures and the benchmark reports times in reference
seconds:

    reference time = measured time * REF_KERNEL_S / kernel time

The kernel does the kind of work solsurf's hot paths do (small-tuple
complex arithmetic, function calls, a few tiny numpy operations) and
shares no code with solsurf, so a change to the program cannot move it.
The raw medians are printed next to the scaled ones.
"""

import cmath
import gc
import statistics
import time

import numpy as np

# one reference second is the time in which the kernel runs 1 / 0.005
# times; 5 ms per pass is its speed on an uncontended 2-vCPU Xeon host
REF_KERNEL_S = 0.005
KERNEL_SECONDS = 0.15


def _mul4(a, b):
    return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])


def kernel():
    y = (1 + 0j, 0j, 0j, 1 + 0j)
    m = (0.01j, 0.002, -0.003, 0.001j)
    acc = np.zeros(3)
    for k in range(3000):
        y = _mul4(m, y)
        y = (y[0] + 1.0, y[1], y[2], y[3] + 1.0)
        y = tuple(v / abs(v) if abs(v) > 2 else v for v in y)
        if k % 16 == 0:
            acc = acc + np.array([y[0].real, y[1].real, cmath.exp(y[3]).real])
    return acc


def kernel_time(seconds=KERNEL_SECONDS):
    """Median time of one kernel pass, over about `seconds` of passes.

    The collector is off meanwhile (the kernel makes no cycles), so the
    heap an operation left behind cannot slow the passes."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        end = time.perf_counter() + seconds
        while not times or time.perf_counter() < end:
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)
