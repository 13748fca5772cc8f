"""Host-speed reference for the reported times.

The host alternates between a fast and a slow state (1.5 to 1.8x slower,
by different amounts for different kinds of work) that each last from a
second to tens of seconds; CPU time equals wall time throughout, so it is not
preemption, and a run of half a minute can sit in either state. A fixed
calibration slice, which never calls gcdmat, runs between ops (outside every
timed region) at least every SAMPLE_EVERY_S. Each measured interval is then
scaled by the slice's reference time over the median of the slices just
before and just after it: reported times are times at the host's fast state.
Nothing the program under test does can change the slice, so the scaling
cannot hide or fake a change in the program.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from fractions import Fraction

SAMPLE_EVERY_S = 0.1
NEIGHBOURS = 2  # slices taken on each side of an interval


def integer_slice() -> float:
    """Time interpreter and big-integer work: gcds of a 317-bit number."""
    start = time.perf_counter()
    for _ in range(2):
        x, total = 3**200, 0
        for i in range(1, 300):
            total += math.gcd(x, (i * 7919) << 64 | 1)
        f = Fraction(0)
        for i in range(1, 100):
            f += Fraction(i, i + 1)
        table = {i: [i, i] for i in range(1500)}
        del table
    return time.perf_counter() - start


def fraction_slice() -> float:
    """Time small Fraction work: Gauss-Jordan inverses of 5 x 5 gcd matrices."""
    start = time.perf_counter()
    for rep in range(1, 5):
        a = [[Fraction(math.gcd(i + 2, j + 2) * rep) for j in range(5)] for i in range(5)]
        b = [[Fraction(int(i == j)) for j in range(5)] for i in range(5)]
        for c in range(5):
            pivot = a[c][c]
            a[c] = [e / pivot for e in a[c]]
            b[c] = [e / pivot for e in b[c]]
            for r in range(5):
                if r != c and a[r][c] != 0:
                    f = a[r][c]
                    a[r] = [e - f * q for e, q in zip(a[r], a[c])]
                    b[r] = [e - f * q for e, q in zip(b[r], b[c])]
    return time.perf_counter() - start


# Each slice with its time on this host's fast state. Kinds of work slow down
# by different amounts, so each workload uses the slice that gave it the
# steadiest figures over ten seeds (see design.json).
SLICES = {"integer": (integer_slice, 0.0011), "fraction": (fraction_slice, 0.00176)}


class SpeedReference:
    def __init__(self, kind: str):
        self._slice, self._reference_s = SLICES[kind]
        self._at: list[float] = []  # midpoints, ascending
        self._took: list[float] = []
        self._last = -math.inf

    def sample(self) -> None:
        start = time.perf_counter()
        took = self._slice()
        self._at.append(start + took / 2)
        self._took.append(took)
        self._last = time.perf_counter()

    def sample_if_due(self) -> None:
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def __len__(self) -> int:
        return len(self._took)

    def median_slice_s(self) -> float:
        return statistics.median(self._took)

    def factor(self, start: float, end: float) -> float:
        """Multiplier that takes an interval measured in [start, end] to the
        reference speed (below 1 while the host is slow)."""
        i = bisect.bisect_left(self._at, start)
        j = bisect.bisect_right(self._at, end, lo=i)
        near = self._took[max(0, i - NEIGHBOURS):i] + self._took[j:j + NEIGHBOURS]
        return self._reference_s / statistics.median(near)

    def recent_factor(self) -> float:
        """The factor from the latest slices, while later ones do not exist yet."""
        return self._reference_s / statistics.median(self._took[-3:])

    def scale(self, start: float, elapsed: float) -> float:
        return elapsed * self.factor(start, start + elapsed)
