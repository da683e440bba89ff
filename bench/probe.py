"""Machine-speed probe: converts wall time into reference seconds.

On a shared 2-core x86 VM the CPU speed was seen to swing by up to 2x, for
seconds to minutes at a time, with CPU time tracking wall time, so raw wall
times of the same work spread by more than any useful bound.  While a
`Probe` is active, a SIGALRM handler runs a fixed pure-Python chunk (Fraction,
modular int and dict work, like the program's) every `TICK_S` of wall time
and records when it ran and how long it took.  `Probe.reference_s` then
splits an interval of program time at the ticks, drops the handler's own
time, and scales each piece by `REFERENCE_CHUNK_S` over the median chunk time
of the ticks within `WINDOW_S` of it.  A reference second is a wall second
on a machine where one chunk takes `REFERENCE_CHUNK_S`, about the fast state
of that VM.  Everything runs in the one process; no thread is started.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

REFERENCE_CHUNK_S = 0.0005
TICK_S = 0.01
WINDOW_S = 0.01
BRACKET_CHUNKS = 8  # chunks run on entry and exit, and around a timed set-up

clock = time.perf_counter


def chunk() -> float:
    """Seconds taken by a fixed piece of pure-Python work."""
    start = clock()
    acc, table = Fraction(0), {}
    for i in range(1, 121):
        acc = (acc + Fraction(i % 97, i % 89 + 1)) % 1000
        table[i % 31] = (table.get(i % 31, 0) + pow(i, 5, 1009)) % 1009
    return clock() - start


def bracket() -> float:
    """Median chunk time over a short burst, for timing outside a `Probe`."""
    return statistics.median(chunk() for _ in range(BRACKET_CHUNKS))


class Probe:
    """Context manager sampling machine speed while program code runs."""

    def __init__(self):
        self.starts: list[float] = []  # when each chunk began
        self.chunk_s: list[float] = []  # how long each chunk took
        self.handler_s: list[float] = []  # how long the handler ran, chunk included

    def _sample(self, *_):
        begin = clock()
        took = chunk()
        self.starts.append(begin)
        self.chunk_s.append(took)
        self.handler_s.append(clock() - begin)

    def __enter__(self) -> "Probe":
        for _ in range(BRACKET_CHUNKS):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(BRACKET_CHUNKS):
            self._sample()

    def _local_chunk_s(self, a: float, b: float) -> float:
        lo = bisect_left(self.starts, a - WINDOW_S)
        hi = bisect_right(self.starts, b + WINDOW_S)
        if lo == hi:  # no tick nearby: the nearest one on each side
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        return statistics.median(self.chunk_s[lo:hi])

    def reference_s(self, t0: float, t1: float) -> float:
        """Program time from `t0` to `t1` (handler time excluded), in reference seconds."""
        first, last = bisect_left(self.starts, t0), bisect_left(self.starts, t1)
        bounds = [t0, *self.starts[first:last], t1]
        total = 0.0
        for k in range(len(bounds) - 1):
            a, b = bounds[k], bounds[k + 1]
            own = b - a - (self.handler_s[first + k - 1] if k else 0.0)
            total += max(own, 0.0) * REFERENCE_CHUNK_S / self._local_chunk_s(a, b)
        return total

    def summary(self) -> dict:
        return {
            "ticks": len(self.starts),
            "chunk_ms_median": statistics.median(self.chunk_s) * 1000,
            "handler_s": sum(self.handler_s),
        }
