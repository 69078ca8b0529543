"""Machine speed, measured alongside the benchmark's own timings.

On a shared virtual machine the speed of a core drifts, by half or more,
in phases of seconds to minutes that no process can see except by timing
work.  A fixed calibration loop, which does not touch jacksonlab,
is timed around every timed item: before and after each child process,
and every CAL_PERIOD_S inside a library session.  Each item's time is
scaled by CAL_REF_S over the calibration times around it.  So the
reported times are those of a machine on which the loop takes CAL_REF_S:
a change to the program moves them as it moves the raw times, while a
phase of the machine moves the loop and the program alike.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median time of calibration_s() on a 2-vCPU Xeon VM at 2.1 GHz (Python 3.11,
# numpy 2.4, one BLAS thread); it only sets the scale of the reported times
CAL_REF_S = 0.0018
CAL_PERIOD_S = 0.05  # inside a session: at most this long between calibrations
_SMALL = np.linspace(0.0, 1.0, 64)
_K = np.arange(1601.0)


def _loop():
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(12000):
        acc += i & 7
    for i in range(130):
        acc += float(np.cos(_SMALL * i) @ _SMALL)
    for i in range(10):
        logw = _K * np.log(0.2 + 0.06 * i) + (_K[-1] - _K) * np.log1p(-0.2 - 0.06 * i)
        acc += float(np.exp(logw - logw.max()).sum())
    elapsed = time.perf_counter() - t0
    if not np.isfinite(acc):
        raise FloatingPointError("calibration loop gave a non-finite sum")
    return elapsed


def calibration_s():
    """Seconds the calibration loop takes now: the median of three passes,
    so that one interrupted pass does not count.

    Its mix follows the program's hot paths: a bare interpreter loop,
    small numpy operations driven from Python, and transcendental
    functions over a weight vector, as in a binomial mixture.  Passes over
    large arrays are left out: a machine phase barely moves them, so they
    would damp the loop's response to it.
    """
    return statistics.median(_loop() for _ in range(3))


def scale(cal_s):
    """The factor for a time taken among the calibration times cal_s."""
    return CAL_REF_S / statistics.median(cal_s)


class Calibrator:
    """Calibrations on a timeline of timed items.

    ``tick()`` before each item calibrates when one is due and returns
    the index of the latest calibration, the item's mark; ``close()``
    after the last item calibrates once more.  An item's scale comes from
    the calibrations just before and just after it.
    """

    def __init__(self):
        self.cal_s = []
        self._due = 0.0

    def tick(self, force=False):
        if force or time.perf_counter() >= self._due:
            self.cal_s.append(calibration_s())
            self._due = time.perf_counter() + CAL_PERIOD_S
        return len(self.cal_s) - 1

    def close(self):
        self.cal_s.append(calibration_s())

    def scales(self, marks):
        return [scale(self.cal_s[m:m + 2]) for m in marks]
