"""Host-speed correction for the benchmark's timings.

On a shared host the same code runs up to 40% slower at times, in spells of
a fraction of a second to minutes, while other tenants load the machine. A
process's CPU time slows down with its wall time, so neither clock alone
separates the program's cost from the host's state. While a measured block
runs, a SIGALRM handler therefore times a short probe task every
PROBE_INTERVAL_S. The probe is owned by the benchmark and independent of the
library. The block's wall time, less the time spent in the handler, is
scaled by PROBE_REF_S over the median probe time: a time is reported as it
would read on a host where the probe takes PROBE_REF_S. The raw wall times
stay in the report line.
"""
from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

PROBE_STEPS = 3000
PROBE_INTERVAL_S = 0.05
# Median probe time over 400 probes on the 2-vCPU host the benchmark was
# written on; it only sets the scale of the reported times.
PROBE_REF_S = 0.0002


def probe_task() -> int:
    """Integer arithmetic in a Python loop. It slows down with the host as
    the library's interpreted loops do, and it uses no numpy, so the state a
    workload leaves in numpy's caches does not change its speed. In two sets
    of 8-12 operations per workload it brought the spread of per-operation
    times from 6-16% of their mean to 3-9%; a probe of small numpy calls did
    worse on some workloads than no correction at all."""
    acc = 0
    for i in range(PROBE_STEPS):
        acc += i * i % 7
    return acc


def probe_seconds() -> float:
    start = time.perf_counter()
    probe_task()
    return time.perf_counter() - start


class Block:
    """Timing of one measured block: wall time without the probes, and the
    probe times taken while it ran."""

    def __init__(self):
        self.wall = 0.0
        self.probes = []

    def factor(self) -> float:
        """PROBE_REF_S over the median probe time; a block too short to be
        probed is probed once after it ends."""
        if not self.probes:
            self.probes.append(probe_seconds())
        return PROBE_REF_S / statistics.median(self.probes)

    @property
    def scaled(self) -> float:
        return self.wall * self.factor()


class HostSpeed:
    """Measures blocks with `with speed.measure() as block: ...`, one at a
    time, and keeps every probe time for the report. It owns SIGALRM for the
    rest of the process."""

    def __init__(self):
        self.probes = []
        self._block = None
        self._spent = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        if self._block is None:  # an alarm that arrived as a block ended
            return
        start = time.perf_counter()
        self._block.probes.append(probe_seconds())
        self._spent += time.perf_counter() - start

    @contextmanager
    def measure(self):
        block = self._block = Block()
        self._spent = 0.0
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield block
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            self._block = None
            block.wall = time.perf_counter() - start - self._spent
            block.factor()
            self.probes += block.probes
