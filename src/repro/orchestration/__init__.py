"""Parallel sweep orchestration.

Every figure and table in the paper is a sweep of *independent* drives
(mode x speed x traffic x seed).  This package turns that shape into a
first-class subsystem:

* :mod:`repro.orchestration.spec` -- a declarative :class:`SweepSpec`
  that expands a parameter grid into hashable :class:`JobSpec` jobs with
  deterministic per-job seed derivation.
* :mod:`repro.orchestration.summary` -- :class:`DriveSummary`, the
  picklable, JSON-serialisable extract of a drive (throughput series,
  switch timeline, trace counters) that crosses process and cache
  boundaries instead of the live ``Network``.
* :mod:`repro.orchestration.cache` -- :class:`ResultCache`, a persistent
  on-disk store under ``.repro_cache/`` keyed by a canonical hash of the
  job config plus a code-version salt.
* :mod:`repro.orchestration.runner` -- :func:`run_sweep` and
  :func:`run_queue_sweep`, the one sweep execution path: jobs drain
  through a work queue (inline, or on worker processes) with per-job
  timeouts, crash isolation, dead-worker requeue and bounded retries;
  failed jobs become a report, not a sweep abort.
* :mod:`repro.orchestration.progress` -- :class:`ProgressReporter` and
  :class:`SweepStats` (jobs done/failed/cached, wall clock, events/sec).
* :mod:`repro.orchestration.queue` -- :class:`WorkQueue` backends
  (in-process :class:`MemoryQueue` for inline runs and tests,
  directory-lease :class:`FileQueue` for multi-worker runs) with
  heartbeat leases, bounded retries, and crash requeue.
* :mod:`repro.orchestration.store` -- :class:`ColumnarStore`, packed
  ``.npz`` result shards with a manifest: a 10^6-job study is queryable
  in one ``np.load`` per shard instead of 10^6 file opens.
* :mod:`repro.orchestration.aggregate` -- :class:`SweepAggregator`,
  order-independent streaming per-cell stats so figures update
  mid-sweep.
"""

from .aggregate import SweepAggregator
from .cache import CACHE_SCHEMA_VERSION, ResultCache, default_code_salt
from .progress import ProgressReporter, SweepStats
from .queue import FileQueue, MemoryQueue, WorkQueue
from .runner import (
    JobFailure,
    SweepResult,
    queue_worker_main,
    run_queue_sweep,
    run_sweep,
)
from .spec import FaultCampaign, JobSpec, SweepSpec, coerce_campaign, derive_seed
from .store import ColumnarStore, migrate_json_cache
from .summary import DriveSummary

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "ResultCache",
    "default_code_salt",
    "ProgressReporter",
    "SweepStats",
    "JobFailure",
    "SweepResult",
    "run_sweep",
    "run_queue_sweep",
    "queue_worker_main",
    "JobSpec",
    "SweepSpec",
    "FaultCampaign",
    "coerce_campaign",
    "derive_seed",
    "DriveSummary",
    "WorkQueue",
    "MemoryQueue",
    "FileQueue",
    "ColumnarStore",
    "migrate_json_cache",
    "SweepAggregator",
]
