"""CPU-speed calibration.

Shared machines slow down and speed up by 20-40% within seconds, so raw
op times spread more between runs than any useful regression bound.  The
benchmark therefore times a fixed kernel of its own during a run, outside
every op's timer, and scales each op's time by the kernel's local speed:
the median kernel time within WINDOW_S of the op, against the kernel's
reference time.  The default kernel is pure Python (integer and Fraction
arithmetic, list and dict traffic, like the library's exact paths); the
census uses a numpy one.  Normalised times read as if on the reference
machine; raw figures are printed next to them."""

import time
from fractions import Fraction
from statistics import median

# Median kernel time on the reference machine (2-core Intel Xeon,
# Python 3.11.7).
REFERENCE_S = 0.010
INTERVAL_S = 0.2
WINDOW_S = 0.3
MIN_SAMPLES = 2


def kernel():
    """One fixed unit of interpreter work; returns its wall seconds."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    table = {}
    total = 0
    for i in range(1, 1300):
        acc += Fraction(i % 7, i % 11 + 1)
        row = [i * j % 13 for j in range(12)]
        table[i % 17] = sum(row)
        total += max(row) - min(row)
    return time.perf_counter() - t0


# Reference time for the numpy kernel.  Only its constancy matters: it
# fixes the scale of normalised census times across runs and commits.
NUMPY_REFERENCE_S = 0.0053


def numpy_kernel():
    """One fixed unit of single-thread int64 array work, shaped like a grid
    census slice (broadcast sums, comparisons, a reduction)."""
    import numpy as np
    r = np.arange(41, dtype=np.int64)
    a, b, c = r[:, None, None], r[None, :, None], r[None, None, :]
    t0 = time.perf_counter()
    for x in range(3):
        s = a * a + b * b + c * c + x
        m = np.maximum.reduce([a + b - c, b + c - a, a + c - b])
        int(((s % 7 == m % 7) & (s >= 0)).sum())
    return time.perf_counter() - t0


class Calibrator:
    """Kernel samples as (start time, seconds).  perf_counter is the
    system-wide monotonic clock, so samples and op start times taken in
    different processes of one run line up."""

    def __init__(self, kernel=kernel, reference=REFERENCE_S):
        self.kernel, self.reference = kernel, reference
        self.samples = []

    def sample(self, force=False):
        """Time the kernel if INTERVAL_S has passed since the last sample."""
        now = time.perf_counter()
        if force or not self.samples or now - self.samples[-1][0] >= INTERVAL_S:
            self.samples.append((now, self.kernel()))

    def factor(self, start=None, end=None):
        """Reference time over the local median kernel time around
        [start, end] (the whole run when omitted): multiply a duration by
        it, divide a rate by it."""
        if start is None:
            return self.reference / median(s for _, s in self.samples)
        near = [s for t, s in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        if len(near) < MIN_SAMPLES:
            by_distance = sorted(self.samples, key=lambda ts: abs(ts[0] - start))
            near = [s for _, s in by_distance[:MIN_SAMPLES]]
        return self.reference / median(near)
