"""The machine's speed, sampled while the workload runs.

On a shared host the same code runs up to twice as fast or as slow from
one minute to the next, so the wall time of a pass says as much about the
host's other tenants as about symsu.  While a ``Meter`` runs, an interval
timer interrupts the workload every PERIOD_S and runs one fixed slice of
work that does not touch symsu: dict work, small numpy indexing and a small
BLAS product, the three kinds of work the workloads do.  The slices'
own time is taken out of the interval they fell in.  The reference slice
time over the median slice time of an interval is its speed scale, and
multiplying the interval's time by it gives the time the same work takes at
the reference speed.  A change to symsu moves the pass time and not the
slices, so it shows in full in the scaled time.
"""

import signal
import statistics
import time

import numpy as np

# About one slice's median time on the machine the benchmark was written on
# (a 2-vCPU Intel Xeon guest, Python 3.11, numpy 2.4 with OpenBLAS on one
# thread).  Scaled times are in seconds at that speed.
REFERENCE_S = 0.001
PERIOD_S = 0.05
WARM_SLICES = 5

_K = np.arange(32)
_S = np.exp(0.7j * np.outer(_K, _K))
_PERM = (5 * _K + 3) % 32
_A = np.exp(0.3j * np.outer(np.arange(48), np.arange(48)))


def slice_s() -> float:
    """Wall time of one fixed slice of work."""
    t0 = time.perf_counter()
    table = {}
    for i in range(3000):
        key = i % 97
        table[key] = table.get(key, 0) + i
    for _ in range(30):
        np.abs(_S[_PERM][:, _PERM] - _S).max()
    _A @ _A
    return time.perf_counter() - t0


class Meter:
    def __init__(self):
        self.samples = []    # slice times, in the order they ran
        self.spent_s = 0.0   # wall time spent in sampled slices
        self._previous = None

    def start(self):
        for _ in range(WARM_SLICES):
            slice_s()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, _signum=None, _frame=None):
        s = slice_s()
        self.samples.append(s)
        self.spent_s += s

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.spent_s

    def scaled(self, mark, wall_s: float) -> float:
        """Time at the reference speed of an interval that began at ``mark``
        and took ``wall_s``: its wall time less its slices, times its scale."""
        first, spent_s = mark
        work_s = wall_s - (self.spent_s - spent_s)
        if len(self.samples) == first:  # shorter than PERIOD_S: sample it now
            self._tick()
        return work_s * REFERENCE_S / statistics.median(self.samples[first:])

    def summary(self) -> dict:
        median = statistics.median(self.samples)
        return {"slices": len(self.samples), "median_slice_s": median,
                "reference_slice_s": REFERENCE_S, "period_s": PERIOD_S,
                "scale": REFERENCE_S / median}
