"""Host-speed calibration for the end-to-end times.

On a shared host the same computation can run 50% slower for tens of
seconds at a time.  The runner therefore times a fixed reference kernel
(exact Gaussian elimination over Fraction, written here and independent of
singvol) about four times a second between queries, and scales each query's
wall time by REFERENCE_MS / (the kernel's median time within WINDOW_S of
that query).  Times are thus reported in reference-host milliseconds:
what the query would have taken while the kernel ran at REFERENCE_MS.
A change to singvol cannot move the kernel, so it moves the scaled times
exactly as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import statistics
from fractions import Fraction
from time import perf_counter

# Kernel time, in ms, taken as the reference speed: a round figure near the
# kernel's fastest times on the shared 2-vCPU virtual machine (Python 3.11)
# where the benchmark was defined.  It only fixes the unit of scaled times.
REFERENCE_MS = 3.0
INTERVAL_S = 0.25     # calibrate after the first query that ends this long after the last sample
WINDOW_S = 3.0        # samples within this distance of a query set its scale

_MATRIX = tuple(
    tuple(Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 5) for j in range(12))
    for i in range(12)
)


def kernel() -> Fraction:
    """Determinant of a fixed 12x12 rational matrix by Gaussian elimination."""
    rows = [list(r) for r in _MATRIX]
    n = len(rows)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] / rows[col][col]
            if factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return det


def sample() -> float:
    """One calibration sample in seconds: the median of three kernel runs."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return sorted(times)[1]


class HostSpeed:
    """Calibration samples of one run and the scale they give each moment."""

    def __init__(self):
        self.times = []     # when each sample was taken
        self.values = []    # its duration in seconds
        self.take()

    def take(self):
        self.values.append(sample())
        self.times.append(perf_counter())

    def maybe_take(self):
        if perf_counter() - self.times[-1] >= INTERVAL_S:
            self.take()

    def scale(self, t: float) -> float:
        """REFERENCE / local kernel time, from the samples around time t."""
        lo = bisect.bisect_left(self.times, t - WINDOW_S)
        hi = bisect.bisect_right(self.times, t + WINDOW_S)
        if lo == hi:
            nearest = min(range(len(self.times)), key=lambda i: abs(self.times[i] - t))
            local = self.values[nearest]
        else:
            local = statistics.median(self.values[lo:hi])
        return REFERENCE_MS / 1000.0 / local
