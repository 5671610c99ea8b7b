"""Sweep progress and telemetry.

The runner calls a :class:`ProgressReporter` as jobs finish; the reporter
keeps the running :class:`SweepStats` (done / failed / cached, wall
clock, simulated events per second) and optionally prints one line per
job plus a closing summary -- the sweep-scale equivalent of iperf3's
interval lines.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Optional, TextIO

__all__ = ["ProgressReporter", "SweepStats"]


@dataclass
class SweepStats:
    """Aggregate telemetry for one sweep run."""

    total: int = 0
    completed: int = 0      # fresh simulations that succeeded
    cached: int = 0         # served from the persistent cache
    failed: int = 0         # exhausted their retry budget
    retries: int = 0        # extra attempts beyond the first
    events_fired: int = 0   # simulation events across fresh runs
    wall_clock_s: float = 0.0

    @property
    def done(self) -> int:
        return self.completed + self.cached + self.failed

    @property
    def events_per_sec(self) -> float:
        if self.wall_clock_s <= 0.0:
            return 0.0
        return self.events_fired / self.wall_clock_s

    @property
    def cache_hit_rate(self) -> float:
        finished = self.completed + self.cached
        return self.cached / finished if finished else 0.0

    def one_line(self) -> str:
        parts = [
            f"{self.completed} run",
            f"{self.cached} cached",
            f"{self.failed} failed",
        ]
        if self.retries:
            parts.append(f"{self.retries} retries")
        rate = (f"{self.events_per_sec / 1e3:.0f}k ev/s"
                if self.events_per_sec >= 1e3 else
                f"{self.events_per_sec:.0f} ev/s")
        return (f"{self.done}/{self.total} jobs ({', '.join(parts)}) in "
                f"{self.wall_clock_s:.1f}s wall, "
                f"{self.events_fired} events ({rate})")


class ProgressReporter:
    """Collects :class:`SweepStats` and optionally narrates the sweep."""

    def __init__(self, verbose: bool = False, stream: Optional[TextIO] = None):
        self.verbose = verbose
        self.stream = stream if stream is not None else sys.stderr
        self.stats = SweepStats()
        self._t0: Optional[float] = None

    # ------------------------------------------------------------- hooks
    def begin(self, total: int) -> None:
        self.stats = SweepStats(total=total)
        self._t0 = time.perf_counter()
        if self.verbose:
            print(f"sweep: {total} jobs", file=self.stream)

    def job_done(self, job_key: str, events_fired: int, wall_s: float,
                 cached: bool) -> None:
        if cached:
            self.stats.cached += 1
        else:
            self.stats.completed += 1
            self.stats.events_fired += events_fired
        self._tick()
        if self.verbose:
            tag = "cached" if cached else f"{wall_s:.1f}s, {events_fired} events"
            print(f"  [{self.stats.done}/{self.stats.total}] {job_key} ({tag})",
                  file=self.stream)

    def job_failed(self, job_key: str, attempts: int, error: str) -> None:
        self.stats.failed += 1
        self._tick()
        if self.verbose:
            print(f"  FAILED {job_key} after {attempts} attempts: {error}",
                  file=self.stream)

    def end(self) -> SweepStats:
        self._tick()
        if self.verbose:
            print(f"sweep: {self.stats.one_line()}", file=self.stream)
        return self.stats

    def _tick(self) -> None:
        if self._t0 is not None:
            self.stats.wall_clock_s = time.perf_counter() - self._t0
