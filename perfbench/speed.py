"""Host-speed probe: times that do not swing with the speed of a shared host.

A shared host runs the same pure-Python code at speeds that differ by up to
a factor of two, flipping within fractions of a second and drifting over
minutes (other tenants on the same cores), which swamps any change to kvol
itself.  So every measured process also times a fixed probe, about 2.5 ms
of integer, Fraction, complex and numpy work that no kvol change touches,
on a timer every ``INTERVAL_S`` seconds.  A workload whose items stream
arrays larger than the caches (``formula``) slows with memory traffic that
this probe does not see, so its probe adds one pass over a 16 MiB array.
A region's time is then reported in normalised seconds:

    (raw time - probe time inside the region) * reference * probe rate

where the probe rate is the mean of 1/duration over the probes in and next
to the region (see ``SpeedProbe.rate``).  A normalised second is a second
on a host where one probe takes ``REFERENCE_S`` (plus ``MEMORY_REFERENCE_S``
with the memory pass), about the median on a 2-CPU host running Python
3.11.  Raw times are reported next to them.

The timer's handler runs between bytecodes of the main thread, never inside
kvol's own state, and uses no mpmath (whose working precision kvol sets with
context managers).  ``paused()`` stops it around code that runs threads,
where it would time the wait for the interpreter lock instead of the host;
such a region takes the probe rate from either side of it.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from fractions import Fraction

import numpy

INTERVAL_S = 0.1
MIN_PROBES = 4
MEMORY_FLOATS = 1 << 21
REFERENCE_S = 0.0025
MEMORY_REFERENCE_S = 0.0035


def _probe_work() -> int:
    acc = 0
    for i in range(1, 100):
        acc = (acc * 6364136223846793005 + i * i) % (1 << 89)
    # Newton steps towards square roots, so the values stay bounded
    f = Fraction(3, 2)
    for i in range(1, 40):
        f = ((f + Fraction(2 + i % 5) / f) / 2).limit_denominator(1 << 48)
    z = complex(0.3, 0.8)
    for i in range(80):
        z = (z * 0.9 + 0.1) / (0.01 * z + 1.0)
    # temporaries of 65,536 floats, like kvol's orbit-distance chunks
    c = numpy.linspace(-3.0, 3.0, 65536)
    r = numpy.linspace(0.01, 2.0, 65536)
    y = 0.7
    best = float((numpy.abs((0.2 - c) ** 2 + y * y - r * r) / (2.0 * r * y)).min())
    return acc + int(f) + int(z.real) + int(best)


def _memory_work(big) -> int:
    """One pass over an array far larger than the caches, with a mask as
    large as a pruning step of kvol's orbit-distance batches."""
    return int(numpy.count_nonzero(big >= 0.37))


class SpeedProbe:
    def __init__(self, memory: bool = False):
        # (start, end) of every probe, in time.monotonic() seconds
        self.samples: list[tuple[float, float]] = []
        self._busy = False
        self._running = False
        # 16 MiB, kept for the life of the process
        self._big = numpy.linspace(0.0, 1.0, MEMORY_FLOATS) if memory else None
        self.reference = REFERENCE_S + (MEMORY_REFERENCE_S if memory else 0.0)

    def sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.monotonic()
        _probe_work()
        if self._big is not None:
            _memory_work(self._big)
        self.samples.append((t0, time.monotonic()))
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._running = True

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._running = False
        self.sample()

    @contextlib.contextmanager
    def paused(self):
        was = self._running
        if was:
            self.stop()
        try:
            yield
        finally:
            if was:
                self.start()

    def inside(self, a: float, b: float) -> float:
        """Probe time spent within [a, b]; a probe never straddles a bound
        read on the main thread."""
        return sum(e - s for s, e in self.samples if s >= a and e <= b)

    def rate(self, a: float, b: float, reach: float = 0.0) -> float:
        """Mean reciprocal duration of the probes within ``reach`` of [a, b],
        the reach doubling until it holds MIN_PROBES.  The host's speed
        flips within a fraction of a second, and the probes are evenly
        spaced in time, so the mean of 1/duration estimates the work done
        per second over the region; a median would pick one of the speeds."""
        w = reach
        while True:
            near = [e - s for s, e in self.samples if s >= a - w and e <= b + w]
            if len(near) >= min(MIN_PROBES, len(self.samples)):
                return statistics.fmean(1.0 / d for d in near)
            w = max(2 * w, INTERVAL_S)

    def normalise(self, a: float, b: float, raw: float, paused: bool = False) -> float:
        """``raw`` seconds spent in [a, b] (wall or CPU), probes taken out,
        in normalised seconds.  A region run with the probe ``paused`` has
        no probes inside; it takes the rate of the probes within half its
        length on either side."""
        reach = (b - a) / 2 if paused else 0.0
        return (raw - self.inside(a, b)) * self.reference * self.rate(a, b, reach)
