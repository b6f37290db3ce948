"""Machine-speed calibration for timings on a shared, noisy host.

On a host shared with other tenants the same pure-Python work runs up to
twice as slow for stretches of seconds, depending on which CPU the
process sits on and what its neighbours do.  The benchmark therefore
times a small fixed kernel that uses only the standard library, and
reports each run's time at a reference speed: its wall time scaled by
the mean of ``REF_S / kernel time`` over the samples taken during the
run, the last one before it and the first one after it.

Samples are taken only while no samplex code runs, so that load the
program puts on the machine cannot enter the factor:

- during a run, by an interval timer that interrupts it every TICK_S
  seconds.  The tick runs on the main thread and holds the interpreter
  lock, so samplex's main thread and its trial threads are paused while
  the kernel runs.  A child process would not be, so no tick is taken
  while the process has one;
- between two runs, when no sample was taken in the last TICK_S
  seconds, so that runs shorter than a tick, or that start processes,
  are calibrated by the samples around them.

Samples taken only between runs are not enough: on a 2-core x86_64 host
they left the spread of 0.2 to 4 s runs above that of their raw times,
while the ticks took it well below.  A run is timed without the ticks
inside it.  Reported times are seconds at the speed where the kernel
takes REF_S, about its time on an idle 2-core x86_64 host running Python
3.11, so reference and wall seconds are close there.
"""

from __future__ import annotations

import bisect
import os
import random
import signal
import statistics
import time
from fractions import Fraction

REF_S = 0.0005  # kernel time that defines the reference speed
TICK_S = 0.05  # seconds between two samples
REPEATS = 3  # kernel timings of a sample between runs


def _kernel():
    # string-seeded generators (hashing in C), then interpreter loops over
    # dicts, floats, Fractions and a sort: the two kinds of work samplex
    # does, in about equal shares, because they slow down unequally when a
    # neighbour competes for the core
    acc = 0.0
    for i in range(25):
        acc += random.Random(f"kernel:{i}").getrandbits(64)
    rng = random.Random(12345)
    counts = {}
    for _ in range(300):
        k = rng.getrandbits(12)
        counts[k] = counts.get(k, 0) + 1
        acc += (k * 1.000001) ** 0.5
    f = Fraction(1, 3)
    for i in range(20):
        f = f * Fraction(i + 1, i + 2) + Fraction(1, 7)
    order = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return acc, len(order), f


def _kernel_seconds():
    # the thread's CPU clock: when trial threads wait for the interpreter
    # lock, wall time would count their turns too
    start = time.thread_time()
    _kernel()
    return time.thread_time() - start


def ratio_now(repeats=REPEATS):
    """``REF_S / kernel time`` now: the median of ``repeats`` timings,
    after one run that refills the caches the previous work evicted."""
    _kernel()
    return REF_S / statistics.median(_kernel_seconds() for _ in range(repeats))


def _childless():
    """True when this process has no child process."""
    try:
        # WNOWAIT: a child that has ended stays to be reaped by its owner
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return True
    return False


class Calibration:
    """Context manager that samples the kernel while active.

    Call ``between()`` before each run.  ``now()`` is a clock that leaves
    out the time spent in ticks, and ``scale(t0, t1)`` is the factor from
    wall to reference seconds for a run timed between two ``now()``
    readings."""

    def __init__(self):
        self._at = []  # now() after each sample
        self._ratio = []
        self._spent = 0.0
        self._sampling = False  # a tick must not nest in a sample

    def now(self):
        return time.perf_counter() - self._spent

    def _sample(self, repeats):
        self._sampling = True
        start = time.perf_counter()
        self._ratio.append(ratio_now(repeats))
        self._spent += time.perf_counter() - start
        self._at.append(self.now())
        self._sampling = False

    def _tick(self, signum, frame):
        if not self._sampling and _childless():
            self._sample(1)

    def between(self):
        if not self._at or self.now() - self._at[-1] >= TICK_S:
            self._sample(REPEATS)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample(REPEATS)
        return False

    def scale(self, t0, t1):
        first = bisect.bisect_right(self._at, t0) - 1  # last sample before
        last = bisect.bisect_left(self._at, t1)  # first sample after
        return statistics.fmean(self._ratio[first: last + 1])
