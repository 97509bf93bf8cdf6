"""Times at a fixed reference speed, for the end-to-end metrics.

On a shared host the speed of a vCPU drifts by tens of percent within
seconds, in CPU time as much as in wall time, so raw times of the same
work spread too widely between runs to bound a regression.  The probe
measures that drift where it happens: a SIGPROF timer interrupts the
process every INTERVAL_S of CPU time, and the handler times KERNEL, a
fixed piece of pure-Python work of the kind iqgklo's scalars do
(products of dict-of-tuple polynomials with Fraction coefficients).

``scaled(t0, t1)`` takes the elapsed time between two ``perf_counter``
readings, removes the kernel time spent inside it, and rescales the rest
by the mean speed of the samples inside it, each sample's speed being
REF_KERNEL_S over its kernel time: the time the interval would have
taken at the reference speed.  Averaging speeds rather than kernel times
weights each stretch of the run by the work done in it, and keeps a
kernel that was held up by an interrupt from counting much.  The kernel
belongs to the benchmark, so no change to iqgklo changes what it does.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

perf = time.perf_counter

INTERVAL_S = 0.02
# Median time of KERNEL on an otherwise idle 2.0 GHz Xeon vCPU, Python 3.11.
REF_KERNEL_S = 0.6e-3
# A window with fewer samples borrows the nearest ones around it.
MIN_SAMPLES = 20

_FACTOR = {(i, j): Fraction(i + 1, j + 2) for i in range(3) for j in range(3)}


def kernel():
    acc = {(0, 0): Fraction(1)}
    for _ in range(2):
        out = {}
        for (i, j), c in acc.items():
            for (k, l), d in _FACTOR.items():
                key = (i + k, j + l)
                out[key] = out.get(key, 0) + c * d
        acc = out
    return len(acc)


class SpeedProbe:
    """Samples kernel timings while installed (a context manager)."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = perf()
            kernel()
            self.durations.append(perf() - t0)
            self.starts.append(t0)
        finally:
            if collecting:
                gc.enable()
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def scaled(self, t0, t1):
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        own = sum(self.durations[lo:hi])
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.starts, (t0 + t1) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2,
                            len(self.starts) - MIN_SAMPLES))
            hi = min(len(self.starts), lo + MIN_SAMPLES)
        if hi <= lo:
            raise RuntimeError("no speed samples were taken")
        speed = sum(1 / d for d in self.durations[lo:hi]) / (hi - lo)
        return (t1 - t0 - own) * REF_KERNEL_S * speed
