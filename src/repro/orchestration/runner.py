"""Sweep execution: every sweep runs through a work queue.

:func:`run_queue_sweep` enqueues the cache-missing jobs of a
:class:`~repro.orchestration.spec.SweepSpec` on a
:class:`~repro.orchestration.queue.WorkQueue` and drains it -- inline in
this process, or with pull-worker processes on a
:class:`~repro.orchestration.queue.FileQueue`.  Each attempt runs one
drive and pushes back a :class:`~repro.orchestration.summary.DriveSummary`
-- never the live ``Network``.  :func:`run_sweep` is the one-call front
end: ``jobs=1`` drains an in-process queue inline, anything else drains a
directory queue with ``jobs`` worker processes.

Fault model
-----------
* An exception inside a job is caught where it runs and recorded as a
  failed attempt (crash isolation: one bad job cannot take down the
  sweep).
* A hard worker death (``os._exit``, OOM-kill, segfault) is seen by the
  coordinator, which forfeits the dead worker's leases at once and
  spawns a replacement; the job's attempt is counted and it requeues.
  A worker the coordinator cannot see (another host on a shared
  filesystem) loses its lease when its heartbeat goes stale.
* Every job gets ``max_retries`` extra attempts; a job that exhausts
  them becomes a :class:`JobFailure` in the report -- the sweep still
  completes and returns every other result.
* ``timeout_s`` arms a per-job wall-clock alarm where the job runs
  (POSIX ``SIGALRM``; silently unavailable elsewhere), so a hung drive
  is a retryable failure, not a stuck sweep.

Determinism: each job builds its own ``Network`` from its own seed, so
results are bit-identical whether the sweep drains inline or on any
number of workers, in any pull order and across any crash schedule.

Test hooks (used by the fault-tolerance tests only): setting
``REPRO_SWEEP_TEST_CRASH`` to ``exception`` or ``exit`` makes workers
crash on jobs whose key contains ``REPRO_SWEEP_TEST_MATCH``; with
``REPRO_SWEEP_TEST_CRASH_ONCE_DIR`` set, each job crashes only on its
first attempt (a marker file is dropped in that directory).
``REPRO_SWEEP_TEST_SLEEP_S`` delays matching jobs, for timeout tests.
"""

from __future__ import annotations

import os
import signal
import tempfile
from dataclasses import dataclass, field
from time import sleep
from typing import Any, Dict, Iterable, List, Optional, Union

from .cache import ResultCache
from .progress import ProgressReporter, SweepStats
from .queue import (DEFAULT_LEASE_TIMEOUT_S, Claim, FileQueue, MemoryQueue,
                    WorkQueue)
from .spec import JobSpec, SweepSpec
from .summary import DriveSummary

__all__ = ["JobFailure", "SweepResult", "run_sweep", "run_queue_sweep",
           "queue_worker_main", "execute_job_inline"]


# ------------------------------------------------------------------ worker
def _apply_test_hooks(job: JobSpec) -> None:
    """Crash/delay injection for the fault-tolerance tests (no-op otherwise)."""
    crash_mode = os.environ.get("REPRO_SWEEP_TEST_CRASH")
    sleep_s = os.environ.get("REPRO_SWEEP_TEST_SLEEP_S")
    if not crash_mode and not sleep_s:
        return
    match = os.environ.get("REPRO_SWEEP_TEST_MATCH", "")
    if match not in job.key():
        return
    if sleep_s:
        sleep(float(sleep_s))
    if not crash_mode:
        return
    once_dir = os.environ.get("REPRO_SWEEP_TEST_CRASH_ONCE_DIR")
    if once_dir:
        marker = os.path.join(
            once_dir, "crashed_" + job.key().replace(":", "_").replace("=", "-")
        )
        if os.path.exists(marker):
            return  # already crashed once; let the retry succeed
        with open(marker, "w") as fh:
            fh.write(job.key())
    if crash_mode == "exit":
        os._exit(13)  # hard death: the coordinator reaps the worker
    raise RuntimeError(f"injected test crash for {job.key()}")


def execute_job_inline(job: JobSpec) -> DriveSummary:
    """Run one job in this process and extract its summary."""
    from ..experiments.runners import run_drive_summary

    summary = run_drive_summary(**job.run_kwargs())
    summary.job_key = job.key()
    return summary


# ------------------------------------------------------------------ results
@dataclass
class JobFailure:
    """One job that exhausted its retry budget."""

    job: JobSpec
    attempts: int
    error: str


@dataclass
class SweepResult:
    """Everything a sweep produced, in the spec's expansion order."""

    jobs: List[JobSpec]
    #: Aligned with ``jobs``; None where the job ultimately failed.
    summaries: List[Optional[DriveSummary]]
    failures: List[JobFailure] = field(default_factory=list)
    stats: SweepStats = field(default_factory=SweepStats)

    @property
    def ok(self) -> bool:
        return not self.failures

    def by_key(self) -> Dict[str, DriveSummary]:
        return {
            job.key(): summary
            for job, summary in zip(self.jobs, self.summaries)
            if summary is not None
        }


# ------------------------------------------------------------ queue backend
def _run_claim(queue: WorkQueue, claim: Claim,
               timeout_s: Optional[float]) -> None:
    """Execute one claimed job and release it (complete or fail).

    Shared by the worker process loop and the inline drain: test hooks
    and the SIGALRM wall-clock guard apply identically, so a timeout or
    injected crash behaves the same on every backend.
    """
    alarm_armed = False
    try:
        if timeout_s and hasattr(signal, "SIGALRM"):
            def _on_alarm(_sig, _frame):
                raise TimeoutError(f"job exceeded {timeout_s}s wall clock")
            signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, float(timeout_s))
            alarm_armed = True
        _apply_test_hooks(claim.job)
        summary = execute_job_inline(claim.job)
        queue.complete(claim, summary.to_dict())
    except BaseException as exc:  # noqa: BLE001 - isolation is the point
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        queue.fail(claim, f"{type(exc).__name__}: {exc}")
    finally:
        if alarm_armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)


def queue_worker_main(
    root: str,
    worker_id: str,
    lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
    max_retries: int = 2,
    timeout_s: Optional[float] = None,
    poll_s: float = 0.05,
) -> None:
    """A pull worker: claim, heartbeat, run, push, repeat until drained.

    This is the entry point a worker *process* runs (the coordinator
    spawns N of them; on a shared filesystem any number of hosts could
    run it against the same root).  A heartbeat thread renews the lease
    at a quarter of the expiry period while the drive runs.  If this
    process dies mid-job, the coordinator that spawned it forfeits its
    lease at once; a worker started any other way loses its lease when
    the heartbeat goes stale, and any surviving party requeues the job.
    """
    import threading

    queue = FileQueue(root, lease_timeout_s=lease_timeout_s,
                      max_retries=max_retries)
    while queue.jobs_remaining() > 0:
        claim = queue.claim(worker_id)
        if claim is None:
            # Everything left is leased by someone else; reclaim any
            # expired leases ourselves so a dead peer cannot stall us.
            queue.requeue_expired()
            sleep(poll_s)
            continue
        stop = threading.Event()

        def _beat(claim=claim, stop=stop):
            while not stop.wait(lease_timeout_s / 4.0):
                try:
                    queue.heartbeat(claim)
                except OSError:  # pragma: no cover - fs went away
                    return

        beater = threading.Thread(target=_beat, daemon=True)
        beater.start()
        try:
            _run_claim(queue, claim, timeout_s)
        finally:
            stop.set()


def run_queue_sweep(
    sweep: Union[SweepSpec, Iterable[JobSpec]],
    workers: int = 2,
    queue: Optional[WorkQueue] = None,
    queue_dir: Optional[str] = None,
    cache: Optional[ResultCache] = None,
    store=None,
    aggregator=None,
    lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
    max_retries: int = 2,
    timeout_s: Optional[float] = None,
    poll_s: float = 0.05,
    verbose: bool = False,
    reporter: Optional[ProgressReporter] = None,
) -> SweepResult:
    """Run a sweep through a :class:`~repro.orchestration.queue.WorkQueue`.

    The coordinator enqueues cache-missing jobs, spawns ``workers``
    pull-worker processes, and streams results as they land: each
    summary is cached, appended to ``store`` (columnar), and fed to
    ``aggregator``, whose snapshot is republished after every drain so
    figures can update mid-sweep.  A worker process that dies forfeits
    its leases at once (its jobs requeue without waiting for lease
    expiry) and is replaced while jobs remain.

    ``workers=0`` drains the queue inline in this process (no spawning)
    -- with a :class:`~repro.orchestration.queue.MemoryQueue` that is
    what ``run_sweep(jobs=1)`` runs, and what the test battery drives
    through injected pull orders and crash schedules.

    Determinism: summaries depend only on each job's spec (seeds are
    derived from grid coordinates, never from scheduling), so the
    returned :class:`SweepResult` is byte-identical to an inline drain
    of the same grid, no matter the worker count or pull order.
    """
    import multiprocessing as mp

    jobs = sweep.expand() if isinstance(sweep, SweepSpec) else list(sweep)
    reporter = reporter or ProgressReporter(verbose=verbose)
    reporter.begin(len(jobs))

    if queue is None:
        if queue_dir is None:
            raise ValueError("provide a queue or a queue_dir")
        queue = FileQueue(queue_dir, lease_timeout_s=lease_timeout_s,
                          max_retries=max_retries)

    def _publish(summary: DriveSummary) -> None:
        if store is not None:
            store.append(summary)
        if aggregator is not None:
            aggregator.add(summary)

    def _snapshot() -> None:
        if aggregator is None:
            return
        root = getattr(store, "root", None) or getattr(queue, "root", None)
        if root is not None:
            aggregator.write_snapshot(os.path.join(str(root),
                                                   "aggregate.json"))

    # Cache hits never enter the queue.
    unique: List[JobSpec] = list(dict.fromkeys(jobs))
    summaries: Dict[JobSpec, DriveSummary] = {}
    failures: List[JobFailure] = []
    pending: List[JobSpec] = []
    for job in unique:
        cached = cache.get(job) if cache is not None else None
        if cached is not None:
            summaries[job] = cached
            _publish(cached)
            reporter.job_done(job.key(), 0, 0.0, cached=True)
        else:
            pending.append(job)

    names = queue.enqueue(pending)
    by_name = dict(zip(names, pending))
    accounted: set = set()

    def _drain() -> None:
        for name, summary_dict in queue.drain_results():
            job = by_name.get(name)
            if job is None or name in accounted:
                continue
            accounted.add(name)
            summary = DriveSummary.from_dict(summary_dict)
            summaries[job] = summary
            if cache is not None:
                cache.put(job, summary)
            _publish(summary)
            reporter.job_done(job.key(), summary.events_fired,
                              summary.wall_clock_s, cached=False)
        failed = queue.failures() if hasattr(queue, "failures") else {}
        for name, payload in failed.items():
            if name not in by_name or name in accounted:
                continue
            accounted.add(name)
            reporter.job_failed(by_name[name].key(),
                                payload.get("attempts", max_retries + 1),
                                payload.get("error", "unknown error"))
            failures.append(JobFailure(
                job=by_name[name],
                attempts=payload.get("attempts", max_retries + 1),
                error=payload.get("error", "unknown error"),
            ))

    if workers == 0:
        # Inline drain: this process is the (only) worker.
        while queue.jobs_remaining() > 0:
            claim = queue.claim("inline-0")
            if claim is None:
                if queue.requeue_expired() == 0:
                    break  # leases held by nobody we can wait for
                continue
            _run_claim(queue, claim, timeout_s)
            _drain()
            _snapshot()
    else:
        if not isinstance(queue, FileQueue):
            raise ValueError(
                "spawned workers need a FileQueue; use workers=0 to "
                "drain an in-process queue inline"
            )
        ctx = mp.get_context()
        procs: Dict[int, Any] = {}
        spawned = 0
        # Enough headroom to survive every allowed crash-retry, bounded
        # so a pathological crash loop cannot fork forever.
        spawn_budget = workers + (max_retries + 1) * max(len(pending), 1)

        def _spawn_one() -> None:
            nonlocal spawned
            proc = ctx.Process(
                target=queue_worker_main,
                args=(str(queue.root), f"worker-{spawned}",
                      lease_timeout_s, max_retries, timeout_s, poll_s),
                daemon=True,
            )
            proc.start()
            procs[spawned] = proc
            spawned += 1

        try:
            while len(accounted) < len(pending):
                queue.requeue_expired()
                _drain()
                _snapshot()
                for wid, proc in list(procs.items()):
                    if not proc.is_alive():
                        proc.join()
                        del procs[wid]
                        # A dead worker renews nothing: requeue its job
                        # now instead of waiting out the lease.
                        queue.forfeit(
                            f"worker-{wid}",
                            f"worker died (exit code {proc.exitcode})")
                # Keep the worker pool topped up while claimable work
                # remains.
                want = min(workers, queue.jobs_remaining())
                while len(procs) < want and spawned < spawn_budget:
                    _spawn_one()
                if not procs and queue.jobs_remaining() > 0 \
                        and spawned >= spawn_budget:
                    break  # crash loop: report what we have
                sleep(poll_s)
        finally:
            for proc in procs.values():
                proc.join(timeout=max(lease_timeout_s, 5.0))
                if proc.is_alive():  # pragma: no cover - stuck worker
                    proc.terminate()
    _drain()

    # Anything still unaccounted is a hard failure (crash-loop cap hit).
    for name, job in by_name.items():
        if name not in accounted and job not in summaries:
            failures.append(JobFailure(
                job=job, attempts=max_retries + 1,
                error="job never completed (worker crash loop)",
            ))

    if store is not None:
        store.flush()
    _snapshot()
    # Requeues happened in workers/the queue, not through this reporter;
    # fold the queue's own count in before the closing line prints.  It
    # counts every failed attempt, so a terminally failed job's last
    # attempt is not a retry.
    status = queue.status()
    reporter.stats.retries = status["requeued"] - status["failed"]
    stats = reporter.end()
    return SweepResult(
        jobs=jobs,
        summaries=[summaries.get(job) for job in jobs],
        failures=failures,
        stats=stats,
    )


def run_sweep(
    sweep: Union[SweepSpec, Iterable[JobSpec]],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    timeout_s: Optional[float] = None,
    max_retries: int = 2,
    verbose: bool = False,
    store=None,
    aggregator=None,
    queue_dir: Optional[str] = None,
    lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
) -> SweepResult:
    """One-call sweep execution (the CLI and benchmarks go through this).

    ``jobs=1`` without a ``queue_dir`` drains an in-process
    :class:`~repro.orchestration.queue.MemoryQueue` inline.  Otherwise
    ``jobs`` worker processes drain a
    :class:`~repro.orchestration.queue.FileQueue` at ``queue_dir``, or in
    a temporary directory that is removed when the sweep returns.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    common = dict(cache=cache, store=store, aggregator=aggregator,
                  max_retries=max_retries, timeout_s=timeout_s,
                  verbose=verbose)
    if jobs == 1 and queue_dir is None:
        return run_queue_sweep(sweep, workers=0,
                               queue=MemoryQueue(max_retries=max_retries),
                               **common)
    if queue_dir is not None:
        return run_queue_sweep(sweep, workers=jobs, queue_dir=queue_dir,
                               lease_timeout_s=lease_timeout_s, **common)
    with tempfile.TemporaryDirectory(prefix="repro-queue-") as tmp:
        return run_queue_sweep(sweep, workers=jobs, queue_dir=tmp,
                               lease_timeout_s=lease_timeout_s, **common)
