"""Machine-speed sampling, so that times are comparable across runs.

The reference machine shares its cores with other tenants, and its speed
drifts by 30% or more within seconds.  The benchmark therefore times a
fixed interpreter kernel, and rescales each measured time to the speed the
kernel shows on the reference machine:

    reference seconds = wall seconds * KERNEL_REFERENCE_S / mean kernel seconds

During a pass, ``SpeedSampler`` runs the kernel once every ``INTERVAL_S``
from a SIGALRM handler, on the same thread as the jobs, so each job's time
is rescaled by the speed measured while it ran (samples up to ``WINDOW_S``
either side count, so that short jobs have enough of them).  The handler's
own time is subtracted from the job's.  Set-up probes sample themselves the
same way.  The kernel belongs to the benchmark, so no change to fermigraph can make it
faster or slower.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

KERNEL_LOOP = 5000
KERNEL_REFERENCE_S = 3.0e-4   # _kernel()'s usual time on the reference machine
INTERVAL_S = 0.025
WINDOW_S = 0.25


def _kernel() -> float:
    t0 = perf_counter()
    total = 0
    for i in range(KERNEL_LOOP):
        total += i * i
    return perf_counter() - t0


def to_reference(wall_s: float, kernel_s: float) -> float:
    return wall_s * KERNEL_REFERENCE_S / kernel_s


class SpeedSampler:
    """While active, samples the kernel's time every INTERVAL_S (main thread only)."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []   # (start, kernel seconds)
        self.overhead_s = 0.0                          # total time in the handler

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append((t0, _kernel()))
        self.overhead_s += perf_counter() - t0

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def kernel_s(self, start: float, end: float) -> float:
        """Mean kernel time over samples taken within WINDOW_S of [start, end]."""
        near = [k for t, k in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        return statistics.fmean(near or [k for _, k in self.samples])
