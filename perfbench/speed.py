"""A gauge of the machine's current speed, to normalise timings by.

On a shared host the speed of a core drifts by 10-40% for minutes at a
time, and by as much within a single second, as neighbours on the same
physical core come and go.  The drift moves every timing alike, so two runs
of the same code minutes apart differ by more than any change worth
measuring.

While an untraced pass runs, an interval timer interrupts it every
`INTERVAL_S` and runs a fixed piece of pure-Python work, `reference_work`,
in its signal handler, between two bytecodes of whatever is running.  An
operation's time is its wall time minus the time spent in the handler, and
it is scaled by `NOMINAL_S / mean(reference times during the operation)`.
The result reads as the seconds the operation would take on a core that
runs the reference work in exactly `NOMINAL_S`.  The reference work never
calls the package, so a change to the package moves the normalised timings
as it moves the raw ones.

The reference work is the kind of work the verifier does: unions,
intersections and lookups of small frozensets.  Of the kinds tried (also
integer and dict loops, pointer chasing through a large list, and JSON
round trips) it followed the verdicts' slowdowns most closely.  Sampling
inside the operations rather than between them halved the spread of
repeated `verify --t-max 200` timings: the coefficient of variation went
from 0.27 raw, and 0.10-0.13 normalised by samples taken just before and
after, to 0.05-0.07.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import signal
import statistics
import time

# About the seconds `reference_work()` takes on an uncontended core of the
# 2.0 GHz Xeon this was written on, with Python 3.11: normalised verdict
# times there read close to the raw ones of a quiet spell.  Only a scale.
NOMINAL_S = 0.0044
INTERVAL_S = 0.05
# An operation is gauged by at least this many samples: those taken during
# it or, if there are fewer, the ones taken nearest to it.
MIN_SAMPLES = 5

# Four-element subsets of 14 points: the reference work's input.
_SUBSETS = [frozenset(c) for c in itertools.combinations(range(14), 4)]
_INDEX = {s: i for i, s in enumerate(_SUBSETS)}


def reference_work() -> int:
    """Unions, intersections and lookups of small frozensets."""
    acc = 0
    for i, a in enumerate(_SUBSETS):
        for b in _SUBSETS[i % 7::211]:
            union = a | b
            if len(union) <= 6:
                acc += _INDEX.get(frozenset(sorted(union)[:4]), 0)
            acc += len(a & b)
    return acc


def spot_factor(samples: int = 10) -> float:
    """The factor from reference timings taken back to back, now, for work
    that cannot run under the gauge: a set-up in a fresh process."""
    seconds = []
    for _ in range(samples):
        start = time.perf_counter()
        reference_work()
        seconds.append(time.perf_counter() - start)
    return NOMINAL_S / statistics.fmean(seconds)


class SpeedGauge:
    """Reference timings taken by an interval timer while `running`."""

    def __init__(self):
        self.starts: list[float] = []  # perf_counter at the start of each sample
        self.seconds: list[float] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_work()
        self.seconds.append(time.perf_counter() - start)
        self.starts.append(start)

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def within(self, start: float, end: float) -> list[float]:
        """Reference times of the samples taken between `start` and `end`.

        The handler runs in the main thread, so a sample that starts in the
        interval also ends in it.
        """
        return self.seconds[bisect.bisect_left(self.starts, start):
                            bisect.bisect_left(self.starts, end)]

    def near(self, start: float, end: float) -> list[float]:
        """The samples taken between `start` and `end`, or if there are
        fewer than `MIN_SAMPLES`, the `MIN_SAMPLES` taken nearest to it."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        while last - first < MIN_SAMPLES and (first > 0 or last < len(self.starts)):
            if first > 0 and (last == len(self.starts)
                              or start - self.starts[first - 1] < self.starts[last] - end):
                first -= 1
            else:
                last += 1
        return self.seconds[first:last]

    def factor(self, samples: list[float] | None = None) -> float:
        """Multiply a raw timing by this to normalise it; by default over
        every sample taken."""
        return NOMINAL_S / statistics.fmean(self.seconds if samples is None else samples)
