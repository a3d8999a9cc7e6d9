"""Machine-speed calibration for the end-to-end times.

On a shared machine the same exact-arithmetic work takes 10-50% longer or
shorter from one minute to the next, for reasons outside the program.  A
run therefore reads a fixed reference kernel every `EVERY_S` seconds while
it measures, and reports every end-to-end time scaled to the speed at
which one reading takes `NOMINAL_S`:

    reported = measured * NOMINAL_S / (mean reading while measuring)

Readings are spread evenly in time, so their mean weights each moment as
the measured work does; a median would ignore slow bursts that the work
still pays for.  The kernel is frozen benchmark code -- plain `Fraction`
Gaussian elimination on fixed 10x10 and 15x15 second-compound matrices
with rational entries -- so it exercises the same interpreter paths as the
program's hot loops, but no change to the program can alter it.
In-process work is read from a SIGALRM handler, so even a 12 s certificate
is sampled while it runs, and the handler's own time is taken out of what
it interrupted; subprocess work is read between ops.  The raw wall-clock
values are kept in the run's environment record.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from fractions import Fraction

import gen

#: seconds per reading that define the reported time scale, about the
#: kernel's mean on a shared two-core x86-64 VM under Python 3.11
NOMINAL_S = 0.015
#: passes over the fixed matrices per reading
PASSES = 2
#: seconds between readings
EVERY_S = 0.5


def _compound(g):
    """Matrix of 2x2 minors of a symmetric Gram matrix."""
    n = len(g)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [[g[i][k] * g[j][l] - g[j][k] * g[i][l] for k, l in pairs]
            for i, j in pairs]


def _build():
    rng = random.Random(0)
    return [_compound(gen.rank_sample(rng, dim, 100, dim)[0])
            for dim in (5, 6)]


_MATRICES = _build()


def _rank(mat) -> int:
    rows = [[Fraction(x) for x in row] for row in mat]
    rank, col, n, m = 0, 0, len(rows), len(rows[0])
    while rank < n and col < m:
        pivot = next((r for r in range(rank, n) if rows[r][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def reading_s() -> float:
    """Seconds for one pass of the reference kernel."""
    start = time.perf_counter()
    for _ in range(PASSES):
        for mat in _MATRICES:
            if _rank(mat) != len(mat):
                raise RuntimeError("reference kernel lost rank")
    return time.perf_counter() - start


class Clock:
    """Reference readings over one measured stretch of a run.

    Use as a context manager around the work.  With `timer` the readings
    come from SIGALRM (for in-process work); without it the caller calls
    `poll` between ops.  `paused_s` is the time spent reading, for callers
    to take out of what they measured.
    """

    def __init__(self, timer: bool):
        self.timer = timer
        self.readings: list[float] = []
        self.paused_s = 0.0
        self._last = 0.0
        self._previous = None

    def read(self) -> None:
        start = time.perf_counter()
        self.readings.append(reading_s())
        self._last = time.perf_counter()
        self.paused_s += self._last - start

    def poll(self) -> None:
        if not self.timer and time.perf_counter() - self._last >= EVERY_S:
            self.read()

    def __enter__(self):
        self.read()
        if self.timer:
            self._previous = signal.signal(signal.SIGALRM,
                                           lambda *_: self.read())
            signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.read()
        return False

    def factor(self) -> float:
        """Scale from raw seconds to seconds at the nominal speed."""
        return NOMINAL_S / statistics.mean(self.readings)
