"""In-run host-speed calibration.

The benchmark shares its machine with other tenants, and their load
slows this process by up to 2x for seconds at a time: the same
deterministic drive has taken 4.3 s and 7.0 s of CPU minutes apart.
Every timed sample is therefore paired with runs of a fixed reference
kernel (benchmark code only: a heap of small objects, dict updates and
small complex-valued numpy products, like the simulator's mix) measured
right next to it.  The host factor is the mean kernel time over its
nominal value :data:`REF_KERNEL_S`; a *calibrated* duration is the raw
duration divided by that factor, i.e. seconds on the reference host.
The mean, not the median: the load comes in bursts, and a measurement
is slowed by its average over them.

The kernel runs with the cyclic GC paused and frees everything it
allocates, so it neither triggers nor absorbs the program's collections.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from typing import List

import numpy as np

__all__ = ["REF_KERNEL_S", "Calibration", "kernel_seconds"]

#: Median CPU time of one kernel run on the reference host (x86_64,
#: Python 3.11.7, numpy 2.4.6, quiet machine).  Only the unit of the
#: calibrated seconds depends on it.
REF_KERNEL_S = 1.6e-3

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.standard_normal((52, 4)) + 1j * _RNG.standard_normal((52, 4))
_VECTOR = _RNG.standard_normal(4) + 0j


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def _kernel(n: int = 300) -> float:
    heap: list = []
    counts: dict = {}
    total = 0.0
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 1000 / 7.0, i, _Item(i, 2 * i)))
        counts[i % 97] = counts.get(i % 97, 0) + i
        if i % 3 == 0:
            power = np.abs(_MATRIX @ (_VECTOR * (1.0 + i * 1e-3))) ** 2
            total += float(np.log10(np.mean(power) + 1e-12))
    while heap:
        _t, _i, item = heapq.heappop(heap)
        total += item.a + item.b
    return total


def kernel_seconds() -> float:
    """CPU seconds of one reference kernel run, measured now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.process_time()
        _kernel()
        return time.process_time() - t0
    finally:
        if enabled:
            gc.enable()


class Calibration:
    """Kernel samples taken next to one measurement."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: Wall time the kernels themselves took (to subtract from walls).
        self.wall_s = 0.0

    def sample(self, n: int = 1) -> None:
        t0 = time.perf_counter()
        for _ in range(n):
            self.samples.append(kernel_seconds())
        self.wall_s += time.perf_counter() - t0

    @property
    def factor(self) -> float:
        """Host slowdown versus the reference host (1.0 = nominal)."""
        if not self.samples:
            self.sample(3)
        return statistics.fmean(self.samples) / REF_KERNEL_S

    def __call__(self, raw_s: float) -> float:
        """``raw_s`` in reference-host seconds."""
        return raw_s / self.factor
