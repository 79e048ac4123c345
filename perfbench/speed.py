"""The machine's speed while a run is timed.

The host this benchmark was built on runs the same code up to a third
faster or slower for minutes at a time, and CPU time slows with wall
time, so no run is long enough to average the drift out.  A tiny fixed
kernel that shares no code with fillhull is timed from a timer signal
every ``INTERVAL`` seconds while the work runs.  A duration divided by
the kernel's duration around it is steady where the duration alone is
not; multiplied by ``KERNEL_REFERENCE_S`` it is the duration at the
reference speed, the speed at which the kernel takes that long.

The kernel is timed once per sample, in whatever cache state the
interrupted work left.  Timing instead a second, warm run of it
followed the machine's slow phases less closely and did not measure a
known extra cost in fillhull more closely (``perfbench/README.md``).
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

INTERVAL = 0.2
NEAREST = 3
# defines the reference speed; about the kernel's median on the
# 2-core host the benchmark was built on
KERNEL_REFERENCE_S = 3.0e-4

_X = np.linspace(0.1, 3.0, 64)
_A = np.subtract.outer(_X, _X)
_B = np.empty_like(_A)
_C = np.empty_like(_A)


def kernel() -> float:
    """About 0.3 ms of numpy arithmetic on 64 x 64 tables, allocating
    nothing, and a Python loop over floats."""
    np.cos(_A, out=_B)
    np.sin(_A, out=_C)
    np.multiply(_B, _C, out=_C)
    total = float(_C.sum())
    for i in range(1500):
        total += math.sin(i * 1e-3)
    return total


class SpeedProbe:
    """Samples ``(time, kernel seconds)`` from ``SIGALRM`` while entered.

    The handler runs between bytecodes of the main thread, so a sample
    lands inside an operation, not inside a native call.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    def at_reference(self, start: float, end: float) -> float:
        """The length of ``[start, end]`` at the reference speed."""
        return ((end - start) * KERNEL_REFERENCE_S
                / self.kernel_seconds(start, end))

    def kernel_seconds(self, start: float, end: float) -> float:
        """Median kernel duration over ``[start, end]``, or over the
        ``NEAREST`` samples closest to its middle when fewer fall in."""
        inside = [d for t, d in self.samples if start <= t <= end]
        if len(inside) < NEAREST:
            middle = 0.5 * (start + end)
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - middle))
            inside = [d for _, d in nearest[:NEAREST]]
        return statistics.median(inside)
