"""Machine-speed normalisation of the benchmark's timings.

The vCPUs of a shared host change speed by up to about 1.7x from one
second to the next (a neighbour on the same physical core comes and
goes), which no run length averages out.  So while a run is measured, a
SIGALRM timer interrupts the main thread every `INTERVAL_S` seconds and
times one run of a fixed calibration kernel: exact Fraction elimination
on a constant matrix, the same kind of work as superext's own exact
linear algebra but none of its code, so a change to superext cannot move
it.  An interval of net duration d (the probe's own time taken out)
during which the kernel ran at a mean rate of r runs per second counts
as d * r / REF_RATE reference seconds: the time the interval would have
taken on a machine that runs the kernel REF_RATE times per second.

    probe = Probe()
    with probe.running():
        mark = probe.mark()
        work()
        interval = probe.interval(mark)
    ref_s = probe.ref_seconds(interval)
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.04
REF_RATE = 1000.0  # kernel runs per reference second

_N = 7
_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + j) % 4 + 1) + 9 * (i == j)
            for j in range(_N)] for i in range(_N)]


def kernel() -> Fraction:
    """Gaussian elimination over Fraction, with no superext code; returns the last pivot."""
    m = [row[:] for row in _MATRIX]
    factors = {}
    for c in range(_N):
        p = next(r for r in range(c, _N) if m[r][c])
        m[c], m[p] = m[p], m[c]
        for r in range(c + 1, _N):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
                factors[r, c] = f
    return m[_N - 1][_N - 1]


class Probe:
    """Samples of the kernel's speed, taken on a timer, and the probe's own time."""

    def __init__(self):
        self.times: list[float] = []  # midpoint of each sample
        self.rates: list[float] = []  # kernel runs per second in that sample
        self.spent = 0.0  # time taken by the probe, to be left out of intervals
        self._busy = False

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        t = perf_counter()
        kernel()
        d = perf_counter() - t
        self.times.append(t + d / 2)
        self.rates.append(1 / d)
        self.spent += perf_counter() - t
        self._busy = False

    @contextmanager
    def running(self):
        old = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
            self._sample()

    def mark(self) -> tuple[float, float]:
        return self.spent, perf_counter()

    def interval(self, mark: tuple[float, float]) -> tuple[float, float, float]:
        """(start, end, net seconds) of the interval since `mark`."""
        end = perf_counter()
        spent, start = mark
        return start, end, end - start - (self.spent - spent)

    def rate(self, start: float, end: float) -> float:
        """Mean kernel rate over samples inside [start, end], else the nearest sample."""
        lo, hi = bisect_left(self.times, start), bisect_right(self.times, end)
        if hi > lo:
            return sum(self.rates[lo:hi]) / (hi - lo)
        mid = (start + end) / 2
        near = min((i for i in (lo - 1, lo) if 0 <= i < len(self.times)),
                   key=lambda i: abs(self.times[i] - mid))
        return self.rates[near]

    def ref_seconds(self, interval: tuple[float, float, float]) -> float:
        start, end, net = interval
        return net * self.rate(start, end) / REF_RATE
