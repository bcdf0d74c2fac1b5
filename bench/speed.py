"""Machine-speed reference for the benchmark's timings.

On a shared machine the speed available to one process drifts by 50% and
more over tens of seconds, which swamps the differences the benchmark has
to resolve.  The benchmark therefore interleaves a fixed reference kernel
with the measured work and reports each time scaled to the reference
speed: ``wall * (REF_S / median reference time nearby) ** BETA``.

The kernel is stdlib-only (Fraction arithmetic and dict stores, the same
kind of work heisdouble does), so no change to heisdouble changes it, and it
runs with the garbage collector off, so the program's heap does not change
it either.  Its time tracks the slowdowns of the program far better than a
plain integer loop does.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import signal
import statistics
import time
from fractions import Fraction

# Median kernel time on a 2-CPU Xeon VM under Python 3.11, where the bounds
# were set; it only fixes the unit, so reported times read as seconds on
# that VM at its usual speed.
REF_S = 0.022
REF_ITERS = 3000
PERIOD_S = 0.5  # one kernel run every half second: about 4% of the run
NEAREST = 5  # kernel runs a short interval is scaled by
# Times are scaled by (REF_S / kernel time) ** BETA.  The log of the
# program's speed regressed on the log of the kernel's, over two-second
# blocks of five runs, has a slope of 0.69: one kernel run is itself noisy,
# so full scaling (BETA = 1) overcorrects, and over five runs it left the
# medians of identical runs further apart than this partial scaling did.
BETA = 0.7


def reference_kernel():
    """Run the fixed reference work once; returns its wall time."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {}
        x = Fraction(1, 3)
        for i in range(REF_ITERS):
            x = x * Fraction(i + 2, i + 1) - Fraction(1, i + 7)
            table[(i % 97, i % 13)] = x
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class SpeedTrack:
    """Reference-kernel samples over a stretch of a run.

    While ``running()`` is active a timer signal runs the kernel every
    PERIOD_S of wall time, between two bytecodes of whatever the main thread
    is doing.  ``spent`` accumulates the time those runs take, so a measured
    interval can leave them out: see ``elapsed``.
    """

    def __init__(self):
        self.stamps = []
        self.values = []
        self.spent = 0.0

    def sample(self):
        h0 = time.perf_counter()
        v = reference_kernel()
        h1 = time.perf_counter()
        self.stamps.append(h1)
        self.values.append(v)
        self.spent += h1 - h0

    def _on_timer(self, signum, frame):
        self.sample()

    @contextlib.contextmanager
    def running(self):
        self.sample()  # so even the shortest run has a sample to scale by
        prev = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, prev)

    def now(self):
        """A clock reading paired with the kernel time spent before it."""
        while True:
            spent = self.spent
            t = time.perf_counter()
            if self.spent == spent:  # no kernel run slipped in between
                return t, spent

    def elapsed(self, start, end):
        """Wall time between two ``now()`` readings, kernel runs excluded."""
        return (end[0] - start[0]) - (end[1] - start[1])

    def scale(self, t0, t1):
        """Scale factor for an interval: REF_S over the median kernel time
        during [t0, t1], to the power BETA; an interval holding fewer than
        NEAREST samples uses the NEAREST around its end."""
        lo = bisect.bisect_left(self.stamps, t0)
        hi = bisect.bisect_right(self.stamps, t1)
        if hi - lo < NEAREST:
            lo = max(0, min(hi - (NEAREST + 1) // 2, len(self.stamps) - NEAREST))
            hi = min(len(self.stamps), lo + NEAREST)
        return (REF_S / statistics.median(self.values[lo:hi])) ** BETA
