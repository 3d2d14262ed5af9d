"""Host-speed probe: scale a call's wall time to the host's uncontended speed.

The benchmark's 2-vCPU virtual machine shares its physical cores with other
tenants.  For stretches of a fraction of a second to minutes, a vCPU runs
gbei's interpreter-bound code at up to half speed, while CPU time still
equals wall time and no steal time is reported.  The two vCPUs slow
independently of each other, so neither a helper process nor a best-of-N
over a 9-s call removes the slowdown from a run.

A probe samples the speed of the vCPU the calls run on, in the calls' own
interval: every PERIOD seconds a SIGALRM runs a ~1 ms pure-Python kernel in
the main thread (between two bytecodes of whatever gbei is doing) and records
how long it took.  A call's own time is its wall time minus the probes taken
inside it.  Each probe gives the host's speed at its moment as
REFERENCE_PROBE_S over its duration; the mean speed over the call's probes
(at least MIN_PROBES of the nearest ones) times its own time is what
`scaled()` returns: the call's time on a host where the kernel takes exactly
REFERENCE_PROBE_S.  It takes about that on an uncontended vCPU of the 2.0 GHz
Xeon virtual machine the benchmark was written on.  The mean of speeds, not
of durations, is the right one: probes come at equal steps of wall time, and
slow stretches take more of it.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

PERIOD = 0.05
MIN_PROBES = 10
REFERENCE_PROBE_S = 1e-3


def _kernel():
    """~1 ms of dict, tuple and generator work, like gbei's inner loops."""
    total = 0
    table = {}
    for i in range(1200):
        key = (i * 2654435761) & 0xFFF
        table[key] = table.get(key, 0) + (i & 7)
        total += any(x & 1 for x in (key, i, total))
    return total


class Probe:
    """Probe times recorded while `running()` is active."""

    def __init__(self):
        self.starts = []
        self.seconds = []
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        _kernel()
        self.starts.append(start)
        self.seconds.append(time.perf_counter() - start)
        self._busy = False

    @contextlib.contextmanager
    def running(self, period=PERIOD):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, period, period)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def own(self, start, end):
        """The interval's wall time minus the probes taken inside it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return end - start - sum(self.seconds[lo:hi])

    def speed(self, start, end):
        """Mean host speed over the interval, relative to the reference."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.starts)):
            lo = max(lo - 1, 0)
            hi = min(hi + 1, len(self.starts))
        return statistics.fmean(REFERENCE_PROBE_S / x for x in self.seconds[lo:hi])

    def scaled(self, start, end):
        """Seconds the interval's own work takes on the reference host."""
        return self.own(start, end) * self.speed(start, end)
