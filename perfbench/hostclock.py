"""Host-speed sampling, so a wall time can be read at one reference speed.

On a shared host a vCPU's speed can flip between a fast and a slow state
(up to about 2x apart on a fixed pure-Python loop) in spells from under a
second to minutes, independently per vCPU.  A raw wall time then depends
more on the spell a run falls in than on the code.

:class:`HostClock` times a fixed yardstick, pure-Python work of the kind
the engine does (method calls, attribute reads, float arithmetic and
comparisons; it allocates no container, so it never triggers the cyclic
garbage collector), from a ``SIGALRM`` handler every
:data:`SAMPLE_INTERVAL_S` seconds while it is entered.  The handler runs
in the main thread between bytecodes, so the samples are taken while the
timed operation itself is running; :meth:`HostClock.sample` also takes a
sample on demand, between operations.  :meth:`HostClock.scaled` turns a
span's busy time (its wall minus the time the samples took) into the
time it would have taken at the reference speed: busy time times
:data:`REFERENCE_YARDSTICK_S` over the mean yardstick time of the samples
taken during the span, widened to the nearest sample on each side.

The yardstick does not touch the engine, so a change to the engine moves
the scaled times by the same factor as the raw ones; only the host's
speed is factored out.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

#: Seconds between two samples.
SAMPLE_INTERVAL_S = 0.05

#: The yardstick's time at the reference speed; a scaled time is the
#: time the span would have taken on a host where the yardstick takes this.
REFERENCE_YARDSTICK_S = 0.001


class _Interval:
    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        self.lo = lo
        self.hi = hi

    def degree(self, other: "_Interval") -> float:
        if self.lo > other.hi or other.lo > self.hi:
            return 0.0
        return min(1.0, (self.hi - other.lo) / (self.hi - self.lo + 1.0))


_POINTS = [_Interval(i * 0.37 % 50.0, i * 0.37 % 50.0 + 3.0) for i in range(64)]


def yardstick() -> float:
    """Seconds taken by the fixed yardstick work."""
    started = perf_counter()
    acc = 0.0
    points = _POINTS
    for _ in range(4):
        for a in points:
            for b in points[:16]:
                acc += a.degree(b)
    return perf_counter() - started


class HostClock:
    """Samples host speed on ``SIGALRM`` while entered (main thread only)."""

    def __init__(self):
        self.times = []  # when each sample was taken
        self.samples = []  # the yardstick's seconds at that time
        self.spent = 0.0  # seconds spent sampling so far
        self._previous = None
        self._sampling = False

    def _on_alarm(self, signum, frame) -> None:
        # An alarm during a sample taken on demand is dropped: a nested
        # sample would be counted twice and break the time order.
        if not self._sampling:
            self.sample()

    def sample(self) -> None:
        """Time the yardstick once, now.

        Called on every ``SIGALRM`` while the clock is entered; a caller
        may also sample at span boundaries, entered or not.
        """
        self._sampling = True
        try:
            started = perf_counter()
            self.samples.append(yardstick())
            self.times.append(started)
            self.spent += perf_counter() - started
        finally:
            self._sampling = False

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start: float, end: float, busy: float) -> float:
        """``busy`` seconds of the span ``[start, end]`` at the reference speed."""
        if not self.samples:
            raise RuntimeError("no host-speed sample was taken")
        lo = max(0, bisect.bisect_left(self.times, start) - 1)
        hi = min(len(self.times), bisect.bisect_right(self.times, end) + 1)
        return busy * REFERENCE_YARDSTICK_S / statistics.fmean(self.samples[lo:hi])
