"""Host speed probe: rescales operation times to a fixed nominal host speed.

On a shared 2-vCPU host the CPU runs this code at speeds that differ by up to
about 1.8x over seconds to minutes, and the changes are invisible from
inside: no run queue wait and no steal time is recorded. Raw operation wall
times there spread by 20-45% (quartile distance over median) between runs.
A fixed kernel of interpreter work (dict lookups and integer arithmetic, the
kind of work in eqflux's per-patch, per-point and per-edge loops) slows down
nearly in step with the operations: divided by its speed, operation times
spread by about 6% on both the flux-bound and the reference-bound workloads.

``SpeedProbe`` runs the kernel on a wall-clock timer while an operation runs
and reports the operation's time at nominal speed: its wall time, less the
probes' own time, times the mean of NOMINAL_S / probe time. The kernel is
part of the benchmark, not of eqflux, so no change to the program moves it.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02
# Probe time at the nominal host speed: the typical value on the 2-vCPU
# Xeon host the benchmark was defined on.
NOMINAL_S = 1.0e-4

_TABLE = {i: i for i in range(64)}


def probe() -> float:
    """Seconds for the fixed kernel: 1000 dict lookups and integer additions."""
    t0 = time.perf_counter()
    total = 0
    for i in range(1000):
        total += _TABLE[i & 63]
    return time.perf_counter() - t0


def speed_factor(samples) -> float:
    """Nominal seconds per measured second, from probe times."""
    return statistics.fmean(NOMINAL_S / s for s in samples)


class SpeedProbe:
    """Context manager that samples the probe every INTERVAL_S of wall time.

    Python runs the handler in the main thread between bytecodes, so a long
    native call defers a sample but is not interrupted. SIGALRM must be
    blocked in every other thread (see ``run.main``).
    """

    def __init__(self):
        self.samples = []
        self._previous = None

    def _tick(self, signum, frame):
        self.samples.append(probe())

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def nominal(self, wall: float) -> float:
        """``wall`` seconds measured inside this context, at nominal speed."""
        own = sum(self.samples)
        samples = self.samples or [probe()]
        return (wall - own) * speed_factor(samples)
