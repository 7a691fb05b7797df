"""Host-speed probes, so that timings can be given at a fixed host speed.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 2x, in phases from well under a second to about a minute.  Process CPU
time drifts with it, so neither CPU time nor more repetitions remove it.
A probe is a fixed piece of pure-Python work of the two kinds the program
does: computing (a closure of phase vectors mod n in a set, then a sum of
Fractions) and waiting on memory (a chain of dependent loads at scattered
places of a buffer larger than the core's L2 cache).  Its duration, taken
right beside the program's own work, measures how fast the host runs at
that moment.  A timing t is reported as t * NOMINAL_S / p, with p the
median duration of the probes taken from WINDOW_S before it until WINDOW_S
after it: the time it would have taken had the host run the probe in
NOMINAL_S.

A ``Sampler`` probes on demand (``probe``) and, while ``running``, every
PERIOD_S of wall time from a SIGALRM handler, which runs in the main thread
between two bytecodes of the program.  Probes are never traced: the traced
run does not use a sampler.
"""

from __future__ import annotations

import contextlib
import gc
import os
import signal
import statistics
import time
from fractions import Fraction

# Typical duration of one probe during a repetition on the reference host
# (Intel Xeon, 2 vCPUs, 2 MiB L2 per core, Python 3.11).  Only scales the
# reported figures.
NOMINAL_S = 0.009
PERIOD_S = 0.2
WINDOW_S = 0.5
BUFFER_BYTES = 16 << 20


def compute(n: int = 31, k: int = 200):
    """The computing half of a probe; returns a value so nothing is elided."""
    gens = ((1, 5, n - 6), (3, 7, n - 10))
    elems = {(0, 0, 0)}
    frontier = [(0, 0, 0)]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                h = tuple((a + b) % n for a, b in zip(e, g))
                if h not in elems:
                    elems.add(h)
                    nxt.append(h)
        frontier = nxt
    total = Fraction(0)
    for e in sorted(elems)[:k]:
        total += Fraction(e[0] - e[1], e[2] + 1)
    return len(elems), total


def chase(buffer: bytearray, steps: int = 12000) -> int:
    """The memory half: each load's address depends on the previous load
    (a full-period LCG over the buffer), so the loads cannot overlap."""
    mask = len(buffer) - 1
    j = 0
    for _ in range(steps):
        j = (j * 1103515245 + 12345 + buffer[j]) & mask
    return j


def resident_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class Sampler:
    """Probe start times and durations, in the order taken."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._busy = False
        before = resident_bytes()
        self.buffer = bytearray(BUFFER_BYTES)
        # resident memory the probes add, to be taken off the peak
        self.footprint_mb = (resident_bytes() - before) / 2**20

    def probe(self) -> float:
        # A collection the probe's allocations would start walks the
        # program's heap; it is deferred to the program, which it belongs to.
        self._busy = True
        gc_was_enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        compute()
        chase(self.buffer)
        d = time.perf_counter() - t0
        if gc_was_enabled:
            gc.enable()
        self.starts.append(t0)
        self.durations.append(d)
        self._busy = False
        return d

    def around(self, t0: float, t1: float) -> float:
        """Median probe duration from WINDOW_S before t0 to WINDOW_S after t1."""
        near = [d for s, d in zip(self.starts, self.durations)
                if t0 - WINDOW_S <= s <= t1 + WINDOW_S]
        return statistics.median(near)

    def _on_alarm(self, _signum, _frame):
        if not self._busy:
            self.probe()

    @contextlib.contextmanager
    def running(self):
        """Probe every PERIOD_S of wall time until the block ends."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
