"""Work-queue backends for distributed sweeps.

A :class:`WorkQueue` decouples *who decides what to run* from *who runs
it*: the coordinator enqueues :class:`~repro.orchestration.spec.JobSpec`
jobs once, workers pull them one at a time under a heartbeat-renewed
lease, and push back :class:`~repro.orchestration.summary.DriveSummary`
results.  Two backends share the protocol:

* :class:`MemoryQueue` -- in-process, for tests.  Pull order is
  injectable (shuffled orders, adversarial interleavings) and leases can
  be expired synthetically, so the determinism battery can simulate any
  scheduling the file backend could produce -- without processes.
* :class:`FileQueue` -- a directory-lease backend safe for many worker
  *processes* (and, on a shared filesystem, many hosts).  Claims are
  atomic ``O_CREAT | O_EXCL`` lease-file creation; heartbeats rewrite
  the lease timestamp; any party may call :meth:`~WorkQueue.requeue_expired`
  to reclaim jobs whose worker died mid-drive, and a coordinator that
  sees its own worker exit reclaims them at once with
  :meth:`FileQueue.forfeit`.

Determinism contract
--------------------
The queue carries *specs*, never results of partial computation: each
job rebuilds its network from its own derived seed, so which worker runs
a job -- or how many times it is attempted -- cannot change its summary.
That is the invariant the test battery locks down: any pull order, any
worker count, any crash/requeue schedule produces byte-identical
summaries and cache entries to a serial run.

Retry accounting
----------------
``attempts[job]`` counts *completed* failed attempts (crash-expired
leases and worker-reported errors both count).  A job whose attempts
exceed ``max_retries`` moves to the failed set instead of requeueing;
the sweep still completes and reports it.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .spec import JobSpec

__all__ = ["Claim", "MemoryQueue", "FileQueue", "WorkQueue",
           "DEFAULT_LEASE_TIMEOUT_S"]

#: A worker that goes silent for this long forfeits its lease.
DEFAULT_LEASE_TIMEOUT_S = 30.0


@dataclass
class Claim:
    """One leased job: the spec plus enough identity to release it."""

    job: JobSpec
    #: Stable per-job name inside the queue (expansion-order index + key).
    name: str
    worker_id: str
    #: 1-based attempt number this claim represents.
    attempt: int


class WorkQueue:
    """Protocol shared by the memory and file backends (see module doc)."""

    def enqueue(self, jobs: Sequence[JobSpec]) -> List[str]:
        """Add jobs; returns their queue-internal names, in order."""
        raise NotImplementedError

    def claim(self, worker_id: str) -> Optional[Claim]:
        raise NotImplementedError

    def heartbeat(self, claim: Claim) -> None:
        raise NotImplementedError

    def complete(self, claim: Claim, summary_dict: Dict[str, Any]) -> None:
        raise NotImplementedError

    def fail(self, claim: Claim, error: str) -> None:
        raise NotImplementedError

    def requeue_expired(self) -> int:
        raise NotImplementedError

    def jobs_remaining(self) -> int:
        """Jobs not yet completed or terminally failed (leased included)."""
        raise NotImplementedError

    def drain_results(self) -> List[Tuple[str, Dict[str, Any]]]:
        """New ``(job_name, summary_dict)`` results since the last drain."""
        raise NotImplementedError

    def status(self) -> Dict[str, int]:
        raise NotImplementedError


def job_name(index: int, job: JobSpec) -> str:
    """The queue-internal name of a job: order-stable and filesystem-safe."""
    safe = job.key().replace(":", "_").replace("=", "-").replace("/", "-")
    return f"{index:06d}-{safe}"[:120]


# ---------------------------------------------------------------- memory
class MemoryQueue(WorkQueue):
    """In-process backend with injectable scheduling, for the test battery.

    ``pull_order`` reorders the claimable job names before each claim --
    pass e.g. ``random.Random(seed).shuffle`` to prove summaries do not
    depend on scheduling.  ``expire_lease(name)`` simulates a worker
    crash: the lease is forfeited immediately, as if its heartbeat had
    gone stale.
    """

    def __init__(self, max_retries: int = 2,
                 pull_order: Optional[Callable[[List[str]], None]] = None):
        self.max_retries = max_retries
        self.pull_order = pull_order
        self._jobs: Dict[str, JobSpec] = {}
        self._order: List[str] = []
        self._leases: Dict[str, Claim] = {}
        self._attempts: Dict[str, int] = {}
        self._expired: set = set()
        self._results: List[Tuple[str, Dict[str, Any]]] = []
        self._drained = 0
        self.failed: Dict[str, str] = {}
        self.requeues = 0

    def enqueue(self, jobs: Sequence[JobSpec]) -> List[str]:
        names = []
        for job in jobs:
            name = job_name(len(self._order), job)
            self._jobs[name] = job
            self._order.append(name)
            names.append(name)
        return names

    def claim(self, worker_id: str) -> Optional[Claim]:
        candidates = [n for n in self._order
                      if n in self._jobs and n not in self._leases]
        if self.pull_order is not None:
            self.pull_order(candidates)
        for name in candidates:
            attempt = self._attempts.get(name, 0) + 1
            claim = Claim(job=self._jobs[name], name=name,
                          worker_id=worker_id, attempt=attempt)
            self._leases[name] = claim
            return claim
        return None

    def heartbeat(self, claim: Claim) -> None:
        self._expired.discard(claim.name)

    def expire_lease(self, name: str) -> None:
        """Test hook: the worker holding ``name`` died mid-drive."""
        if name in self._leases:
            self._expired.add(name)

    def complete(self, claim: Claim, summary_dict: Dict[str, Any]) -> None:
        self._results.append((claim.name, summary_dict))
        self._jobs.pop(claim.name, None)
        self._leases.pop(claim.name, None)
        self._expired.discard(claim.name)

    def fail(self, claim: Claim, error: str) -> None:
        self._leases.pop(claim.name, None)
        self._expired.discard(claim.name)
        self._bump_attempts(claim.name, error)

    def requeue_expired(self) -> int:
        requeued = 0
        for name in sorted(self._expired):
            self._leases.pop(name, None)
            self._bump_attempts(name, "lease expired (worker died)")
            requeued += 1
        self._expired.clear()
        self.requeues += requeued
        return requeued

    def _bump_attempts(self, name: str, error: str) -> None:
        self._attempts[name] = self._attempts.get(name, 0) + 1
        if self._attempts[name] > self.max_retries:
            self._jobs.pop(name, None)
            self.failed[name] = error

    def jobs_remaining(self) -> int:
        return len(self._jobs)

    def drain_results(self) -> List[Tuple[str, Dict[str, Any]]]:
        fresh = self._results[self._drained:]
        self._drained = len(self._results)
        return list(fresh)

    def failures(self) -> Dict[str, Dict[str, Any]]:
        return {
            name: {"error": error, "attempts": self._attempts.get(name, 0)}
            for name, error in sorted(self.failed.items())
        }

    def status(self) -> Dict[str, int]:
        # "requeued" counts completed failed attempts (errors and expired
        # leases alike), matching the FileQueue attempts-file accounting.
        return {
            "queued": len(self._jobs) - len(self._leases),
            "leased": len(self._leases),
            "done": len(self._results),
            "failed": len(self.failed),
            "requeued": sum(self._attempts.values()),
        }


# ------------------------------------------------------------------ file
def _atomic_write_json(path: Path, payload: Dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class FileQueue(WorkQueue):
    """Directory-lease backend: many worker processes, one shared root.

    Layout::

        <root>/
            jobs/<name>.json        # pending specs (removed on completion)
            leases/<name>.json      # {worker, ts, attempt}; ts renewed by
                                    # heartbeats, stale ts => reclaimable
            attempts/<name>         # completed failed attempts (int)
            failed/<name>.json      # spec + last error, retries exhausted
            results/<worker>.jsonl  # completed summaries, one per line

    Every mutation is either an atomic rename or an ``O_CREAT | O_EXCL``
    create, so concurrent workers on one filesystem cannot double-claim.
    Results spool into one append-only JSONL file per worker -- O(workers)
    files regardless of job count -- and a worker that dies between
    spooling a result and releasing its lease merely causes a duplicate
    run whose (deterministic) result the coordinator deduplicates.
    """

    def __init__(self, root: os.PathLike,
                 lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
                 max_retries: int = 2):
        self.root = Path(root)
        self.lease_timeout_s = lease_timeout_s
        self.max_retries = max_retries
        self.jobs_dir = self.root / "jobs"
        self.leases_dir = self.root / "leases"
        self.attempts_dir = self.root / "attempts"
        self.failed_dir = self.root / "failed"
        self.results_dir = self.root / "results"
        for d in (self.jobs_dir, self.leases_dir, self.attempts_dir,
                  self.failed_dir, self.results_dir):
            d.mkdir(parents=True, exist_ok=True)
        #: results/*.jsonl byte offsets already drained (coordinator side).
        self._spool_offsets: Dict[str, int] = {}
        self._seen_results: set = set()

    # --------------------------------------------------------- enqueue
    def enqueue(self, jobs: Sequence[JobSpec]) -> List[str]:
        existing = len(list(self.jobs_dir.glob("*.json")))
        names = []
        for i, job in enumerate(jobs):
            name = job_name(existing + i, job)
            _atomic_write_json(self.jobs_dir / f"{name}.json",
                               {"job": job.canonical()})
            names.append(name)
        return names

    # ----------------------------------------------------------- claim
    def claim(self, worker_id: str) -> Optional[Claim]:
        for path in sorted(self.jobs_dir.glob("*.json")):
            name = path.stem
            lease_path = self.leases_dir / f"{name}.json"
            if lease_path.exists():
                continue
            try:
                fd = os.open(lease_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue  # another worker won the race
            attempt = self._attempts_of(name) + 1
            with os.fdopen(fd, "w") as fh:
                json.dump({"worker": worker_id, "ts": time.time(),
                           "attempt": attempt}, fh)
            try:
                with open(path) as fh:
                    job = JobSpec.from_dict(json.load(fh)["job"])
            except (OSError, ValueError, KeyError):
                # Completed (or corrupted) between listing and claiming.
                lease_path.unlink(missing_ok=True)
                continue
            return Claim(job=job, name=name, worker_id=worker_id,
                         attempt=attempt)
        return None

    def heartbeat(self, claim: Claim) -> None:
        _atomic_write_json(
            self.leases_dir / f"{claim.name}.json",
            {"worker": claim.worker_id, "ts": time.time(),
             "attempt": claim.attempt},
        )

    # -------------------------------------------------------- complete
    def complete(self, claim: Claim, summary_dict: Dict[str, Any]) -> None:
        spool = self.results_dir / f"{claim.worker_id}.jsonl"
        line = json.dumps({"name": claim.name, "summary": summary_dict})
        with open(spool, "a") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        # Order matters: the result is durable before the job disappears,
        # so a crash window can only cause a duplicate, never a loss.
        (self.jobs_dir / f"{claim.name}.json").unlink(missing_ok=True)
        (self.leases_dir / f"{claim.name}.json").unlink(missing_ok=True)

    def fail(self, claim: Claim, error: str) -> None:
        (self.leases_dir / f"{claim.name}.json").unlink(missing_ok=True)
        self._bump_attempts(claim.name, error)

    # ---------------------------------------------------------- expiry
    def requeue_expired(self) -> int:
        now = time.time()
        return self._requeue_leases(
            lambda lease: now - float(lease.get("ts", 0.0))
            > self.lease_timeout_s,
            "lease expired (worker died)",
        )

    def forfeit(self, worker_id: str, error: str) -> int:
        """Requeue every job leased by ``worker_id``, known to be dead.

        The coordinator calls this when it sees its own worker process
        exit, so the job retries at once instead of after lease expiry.
        """
        return self._requeue_leases(
            lambda lease: lease.get("worker") == worker_id, error)

    def _requeue_leases(self, forfeited: Callable[[Dict[str, Any]], bool],
                        error: str) -> int:
        requeued = 0
        for lease_path in sorted(self.leases_dir.glob("*.json")):
            try:
                with open(lease_path) as fh:
                    lease = json.load(fh)
            except (OSError, ValueError):
                continue  # mid-write; next pass will see it
            if not forfeited(lease):
                continue
            name = lease_path.stem
            lease_path.unlink(missing_ok=True)
            if (self.jobs_dir / f"{name}.json").exists():
                # Worker died mid-drive: count the attempt, maybe retire.
                self._bump_attempts(name, error)
                requeued += 1
            # else: worker completed, died before lease cleanup -- done.
        return requeued

    def _attempts_of(self, name: str) -> int:
        try:
            return int((self.attempts_dir / name).read_text())
        except (OSError, ValueError):
            return 0

    def _bump_attempts(self, name: str, error: str) -> None:
        attempts = self._attempts_of(name) + 1
        (self.attempts_dir / name).write_text(str(attempts))
        if attempts > self.max_retries:
            job_path = self.jobs_dir / f"{name}.json"
            try:
                with open(job_path) as fh:
                    payload = json.load(fh)
            except (OSError, ValueError):
                payload = {}
            payload["error"] = error
            payload["attempts"] = attempts
            _atomic_write_json(self.failed_dir / f"{name}.json", payload)
            job_path.unlink(missing_ok=True)

    # --------------------------------------------------------- results
    def jobs_remaining(self) -> int:
        return len(list(self.jobs_dir.glob("*.json")))

    def drain_results(self) -> List[Tuple[str, Dict[str, Any]]]:
        out: List[Tuple[str, Dict[str, Any]]] = []
        for spool in sorted(self.results_dir.glob("*.jsonl")):
            offset = self._spool_offsets.get(spool.name, 0)
            with open(spool, "rb") as fh:
                fh.seek(offset)
                chunk = fh.read()
            # Only consume whole lines; a torn tail (worker died
            # mid-write) stays unread until a later append completes it
            # or the requeue path reruns the job.
            end = chunk.rfind(b"\n")
            if end < 0:
                continue
            self._spool_offsets[spool.name] = offset + end + 1
            for line in chunk[:end].split(b"\n"):
                if not line.strip():
                    continue
                record = json.loads(line)
                name = record["name"]
                if name in self._seen_results:
                    continue  # duplicate from a crash window
                self._seen_results.add(name)
                out.append((name, record["summary"]))
        return out

    def failures(self) -> Dict[str, Dict[str, Any]]:
        out = {}
        for path in sorted(self.failed_dir.glob("*.json")):
            try:
                with open(path) as fh:
                    out[path.stem] = json.load(fh)
            except (OSError, ValueError):
                continue
        return out

    def status(self) -> Dict[str, int]:
        n_jobs = len(list(self.jobs_dir.glob("*.json")))
        n_leases = len(list(self.leases_dir.glob("*.json")))
        done = 0
        for spool in self.results_dir.glob("*.jsonl"):
            with open(spool, "rb") as fh:
                done += fh.read().count(b"\n")
        requeued = 0
        for path in self.attempts_dir.iterdir():
            try:
                requeued += int(path.read_text())
            except (OSError, ValueError):
                continue
        return {
            "queued": max(n_jobs - n_leases, 0),
            "leased": n_leases,
            "done": done,
            "failed": len(list(self.failed_dir.glob("*.json"))),
            "requeued": requeued,
        }
