"""The machine's current speed, sampled while a measured process runs.

On a small shared host the same process can run 20-40% slower from one
minute to the next, because other tenants load the physical cores; the
slowdown shows in CPU time as much as in wall time, so neither reading on
its own can compare two commits measured at different times. A SpeedProbe
runs a fixed piece of pure-Python work in a background thread every
PERIOD_S seconds and records the thread's CPU time for each piece.

The benchmark pins itself, and so its children and this thread, to one
CPU (pin_to_one_cpu). The probe then time-slices with the measured process
on the same core, and its samples describe that core during the same
seconds. It takes about 8% of the core, the same share in every run.

Pure-Python work was chosen by trial. With the same commands run again and
again on a 2-vCPU host, wall time over the factor of a pure-Python piece
varied by 3% (coefficient of variation) where the raw wall time varied by
8-13%; pieces of cache-resident NumPy work, random gathers from a 16 MB
array or a stream over it left 4-6%.

    pin_to_one_cpu()
    with SpeedProbe() as probe:
        ...                       # run and reap the child
    probe.factor()                # mean piece time / REFERENCE_S

factor() > 1 means the core ran slower than the reference; a time divided
by it is a time in reference seconds.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

PERIOD_S = 0.025
# Median CPU time of one piece alone on a quiet 2-vCPU Xeon at 2.1 GHz
# (Python 3.11.7). It only sets the unit of the scaled times.
REFERENCE_S = 0.00145


def piece() -> float:
    """One fixed piece of interpreter work; returns a value so that none of
    it is skipped."""
    acc = 0.0
    table = {}
    for i in range(12000):
        acc += (i * 7 % 13) * 0.5
        table[i & 63] = acc
    return acc + len(table)


def pin_to_one_cpu() -> None:
    """Pin the calling thread to one of its CPUs; threads and child
    processes started afterwards inherit the pin."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while not self._stop.is_set():
            start = time.thread_time()
            piece()
            self.samples.append(time.thread_time() - start)
            self._stop.wait(PERIOD_S)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def factor(self) -> float:
        """Mean piece time over REFERENCE_S. A slowdown adds to the time of
        all the work alike, so the mean, not the median, is the one that
        scales a total. 1.0 if no piece completed."""
        if not self.samples:
            return 1.0
        return statistics.fmean(self.samples) / REFERENCE_S
