"""Machine-speed probe, so timings can be compared across a shared machine's moods.

On a machine shared with other tenants the same pure-Python computation
runs up to twice as fast at one moment as at another, in stretches of tens
of seconds (measured on a 2-core Intel Xeon VM by repeating one fixed block
of ops).  A run of a few tens of seconds can fall entirely into a slow
stretch, so raw wall times of two runs differ by more than any useful
regression bound.

The probe is a fixed exact-arithmetic computation that touches nothing of
the program: integer Bareiss elimination and Fraction arithmetic, the same
kind of interpreter work the program does.  The runner probes in bursts of
``BURST`` runs every ``PROBE_EVERY_S``: between ops, and during longer ops
from a timer signal, whose time is subtracted from the op.  Each op's busy
time is rescaled by ``NOMINAL_S / probe time``, using the median probe
within ``WINDOW_S`` of the op.  A slowdown of the machine stretches op and
probe alike and cancels; a slower program does not touch the probe and
shows in full.  Rescaled times are in the units of a machine on which the
probe takes ``NOMINAL_S``, close to the fast state of the VM above, so they
read as milliseconds there.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.001
PROBE_EVERY_S = 0.1
BURST = 3
WINDOW_S = 0.1

_rng = random.Random(20171703)
_INTS = [[_rng.randint(-60, 60) for _ in range(9)] for _ in range(9)]
_FRACS = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(5)] for _ in range(5)]


def _work():
    for _ in range(5):
        a = [row[:] for row in _INTS]
        prev = 1
        n = len(a)
        for k in range(n - 1):
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            prev = a[k][k] or 1
    for _ in range(2):
        rows = [row[:] for row in _FRACS]
        for c in range(len(rows)):
            p = rows[c][c]
            if p:
                rows[c] = [x / p for x in rows[c]]
                for i in range(len(rows)):
                    if i != c and rows[i][c]:
                        f = rows[i][c]
                        rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]


class Probe:
    """Timeline of probe durations, and the rescaling of wall times by it."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._last = float("-inf")
        self._interruptions = []
        signal.signal(signal.SIGALRM, self._on_alarm)
        for _ in range(3):  # warm the probe's code before it is recorded
            _work()

    def probe(self):
        """Record a burst of BURST probe runs."""
        for _ in range(BURST):
            start = time.perf_counter()
            _work()
            end = time.perf_counter()
            self.starts.append(start)
            self.durations.append(end - start)
        self._last = end

    def maybe_probe(self):
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe()

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self.probe()
        self._interruptions.append((start, time.perf_counter()))

    def arm(self):
        """Probe every PROBE_EVERY_S while an op runs, from a timer signal."""
        self._interruptions = []
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def disarm(self, start, end):
        """Stop the timer; the probe time that fell inside [start, end]."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        return sum(max(0.0, min(b, end) - max(a, start)) for a, b in self._interruptions)

    def local(self, start, end):
        """Median probe time within WINDOW_S of [start, end], else the nearest."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if hi > lo:
            return statistics.median(self.durations[lo:hi])
        nearest = min(range(len(self.starts)), key=lambda i: abs(self.starts[i] - start))
        return self.durations[nearest]

    def rescale(self, start, end, busy=None):
        """Busy time of [start, end] (default: all of it) in units of a
        machine whose probe takes NOMINAL_S."""
        busy = end - start if busy is None else busy
        return busy * NOMINAL_S / self.local(start, end)
