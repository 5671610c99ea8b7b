"""Unit tests for the work-queue backends (no simulations involved).

Both backends are exercised through the same protocol: claim
exclusivity, heartbeat renewal, lease expiry and requeue, bounded
retries, result draining with crash-window dedup.  The FileQueue tests
additionally cover the on-disk invariants (torn result lines, lease
files, attempts accounting) that make many-process runs safe.
"""

import json
import time

import pytest

from repro.orchestration import FileQueue, JobSpec, MemoryQueue
from repro.orchestration.queue import job_name


def jobs(n=3):
    return [JobSpec(mode="baseline", speed_mph=35.0, traffic="udp",
                    udp_rate_mbps=5.0, seed=i, n_aps=3) for i in range(n)]


def summary_dict(job):
    return {"job_key": job.key(), "seed": job.seed}


# ------------------------------------------------------------- job naming
def test_job_names_are_order_stable_and_fs_safe():
    js = jobs(2)
    a = job_name(0, js[0])
    b = job_name(1, js[1])
    assert a != b
    assert a.startswith("000000-") and b.startswith("000001-")
    assert "/" not in a and ":" not in a
    assert len(a) <= 120


# ---------------------------------------------------------------- memory
class TestMemoryQueue:
    def test_claim_is_exclusive_until_released(self):
        q = MemoryQueue()
        q.enqueue(jobs(2))
        c1 = q.claim("w1")
        c2 = q.claim("w2")
        assert c1.name != c2.name  # no double-claim
        assert q.claim("w3") is None  # everything leased
        q.complete(c1, summary_dict(c1.job))
        assert q.claim("w3") is None  # completed, not requeued

    def test_pull_order_injection_controls_scheduling(self):
        q = MemoryQueue(pull_order=lambda names: names.reverse())
        names = q.enqueue(jobs(3))
        claimed = [q.claim("w").name for _ in range(3)]
        assert claimed == list(reversed(names))

    def test_expired_lease_requeues_and_counts_attempt(self):
        q = MemoryQueue(max_retries=2)
        q.enqueue(jobs(1))
        claim = q.claim("w1")
        q.expire_lease(claim.name)
        assert q.requeue_expired() == 1
        again = q.claim("w2")
        assert again.name == claim.name
        assert again.attempt == 2

    def test_heartbeat_keeps_lease_alive(self):
        q = MemoryQueue()
        q.enqueue(jobs(1))
        claim = q.claim("w1")
        q.expire_lease(claim.name)
        q.heartbeat(claim)  # worker is alive after all
        assert q.requeue_expired() == 0

    def test_retries_exhausted_moves_job_to_failed(self):
        q = MemoryQueue(max_retries=1)
        q.enqueue(jobs(1))
        for _ in range(2):  # first try + one retry
            claim = q.claim("w")
            q.fail(claim, "boom")
        assert q.jobs_remaining() == 0
        assert list(q.failed.values()) == ["boom", ]
        assert q.status()["failed"] == 1

    def test_drain_returns_each_result_once(self):
        q = MemoryQueue()
        q.enqueue(jobs(2))
        c = q.claim("w")
        q.complete(c, summary_dict(c.job))
        first = q.drain_results()
        assert [name for name, _ in first] == [c.name]
        assert q.drain_results() == []


# ------------------------------------------------------------------ file
class TestFileQueue:
    def test_claim_is_exclusive_across_instances(self, tmp_path):
        # Two FileQueue objects on one root model two worker processes.
        a = FileQueue(tmp_path)
        b = FileQueue(tmp_path)
        a.enqueue(jobs(2))
        c1 = a.claim("w1")
        c2 = b.claim("w2")
        assert c1.name != c2.name
        assert b.claim("w3") is None

    def test_complete_spools_result_before_removing_job(self, tmp_path):
        q = FileQueue(tmp_path)
        q.enqueue(jobs(1))
        claim = q.claim("w1")
        q.complete(claim, summary_dict(claim.job))
        assert q.jobs_remaining() == 0
        assert not (q.leases_dir / f"{claim.name}.json").exists()
        drained = q.drain_results()
        assert len(drained) == 1
        name, summary = drained[0]
        assert name == claim.name
        assert summary["job_key"] == claim.job.key()

    def test_stale_lease_is_reclaimed_fresh_one_is_not(self, tmp_path):
        q = FileQueue(tmp_path, lease_timeout_s=60.0)
        q.enqueue(jobs(1))
        claim = q.claim("w1")
        assert q.requeue_expired() == 0  # fresh lease survives
        # Backdate the lease past the timeout: the worker died.
        lease = q.leases_dir / f"{claim.name}.json"
        payload = json.loads(lease.read_text())
        payload["ts"] = time.time() - 120.0
        lease.write_text(json.dumps(payload))
        assert q.requeue_expired() == 1
        again = q.claim("w2")
        assert again.name == claim.name and again.attempt == 2

    def test_forfeit_requeues_only_the_dead_workers_fresh_lease(
            self, tmp_path):
        q = FileQueue(tmp_path, lease_timeout_s=60.0)
        q.enqueue(jobs(2))
        dead = q.claim("w1")
        alive = q.claim("w2")
        assert q.forfeit("w1", "worker died (exit code 13)") == 1
        assert not (q.leases_dir / f"{dead.name}.json").exists()
        assert (q.leases_dir / f"{alive.name}.json").exists()
        again = q.claim("w3")
        assert again.name == dead.name and again.attempt == 2
        assert q.forfeit("w1", "again") == 0  # nothing left to forfeit

    def test_heartbeat_renews_the_lease_timestamp(self, tmp_path):
        q = FileQueue(tmp_path, lease_timeout_s=60.0)
        q.enqueue(jobs(1))
        claim = q.claim("w1")
        lease = q.leases_dir / f"{claim.name}.json"
        payload = json.loads(lease.read_text())
        payload["ts"] = time.time() - 120.0
        lease.write_text(json.dumps(payload))
        q.heartbeat(claim)  # still alive: ts rewritten to now
        assert q.requeue_expired() == 0

    def test_retries_exhausted_lands_in_failed_dir(self, tmp_path):
        q = FileQueue(tmp_path, max_retries=1)
        q.enqueue(jobs(1))
        for _ in range(2):
            claim = q.claim("w")
            q.fail(claim, "injected")
        assert q.jobs_remaining() == 0
        failures = q.failures()
        assert len(failures) == 1
        record = next(iter(failures.values()))
        assert record["error"] == "injected"
        assert record["attempts"] == 2
        assert record["job"]["seed"] == 0  # spec preserved for forensics

    def test_torn_result_line_stays_unread_until_complete(self, tmp_path):
        q = FileQueue(tmp_path)
        q.enqueue(jobs(2))
        c1 = q.claim("w1")
        q.complete(c1, summary_dict(c1.job))
        # A worker died mid-write: append half a record, no newline.
        spool = q.results_dir / "w1.jsonl"
        with open(spool, "a") as fh:
            fh.write('{"name": "torn", "summary": {')
        assert [n for n, _ in q.drain_results()] == [c1.name]
        # The torn tail is completed by a later append; both now land.
        c2 = q.claim("w1")
        with open(spool, "a") as fh:
            fh.write('}}\n')  # close the torn record
        q.complete(c2, summary_dict(c2.job))
        drained = q.drain_results()
        assert [n for n, _ in drained] == ["torn", c2.name]

    def test_duplicate_results_from_crash_window_dedup(self, tmp_path):
        q = FileQueue(tmp_path)
        q.enqueue(jobs(1))
        claim = q.claim("w1")
        q.complete(claim, summary_dict(claim.job))
        # Crash window: the same job completed twice (different worker).
        spool = q.results_dir / "w2.jsonl"
        with open(spool, "a") as fh:
            fh.write(json.dumps({"name": claim.name,
                                 "summary": summary_dict(claim.job)}) + "\n")
        assert len(q.drain_results()) == 1  # second copy deduplicated

    def test_death_after_spool_before_cleanup_is_not_a_retry(self, tmp_path):
        # The complete() ordering guarantee: result durable first, then
        # job removal, then lease removal.  A worker that dies between
        # spooling and lease cleanup leaves a stale lease over a job
        # that no longer exists -- requeue_expired must NOT count it.
        q = FileQueue(tmp_path, lease_timeout_s=0.0)
        q.enqueue(jobs(1))
        claim = q.claim("w1")
        spool = q.results_dir / "w1.jsonl"
        with open(spool, "a") as fh:
            fh.write(json.dumps({"name": claim.name,
                                 "summary": summary_dict(claim.job)}) + "\n")
        (q.jobs_dir / f"{claim.name}.json").unlink()
        # ... died here: lease file still present, now expired.
        time.sleep(0.01)
        assert q.requeue_expired() == 0
        assert not (q.leases_dir / f"{claim.name}.json").exists()
        assert len(q.drain_results()) == 1

    def test_status_counters(self, tmp_path):
        q = FileQueue(tmp_path, max_retries=2)
        q.enqueue(jobs(3))
        c = q.claim("w1")
        assert q.status() == {"queued": 2, "leased": 1, "done": 0,
                              "failed": 0, "requeued": 0}
        q.complete(c, summary_dict(c.job))
        c2 = q.claim("w1")
        q.fail(c2, "boom")
        status = q.status()
        assert status["done"] == 1
        assert status["requeued"] == 1  # the failed attempt counts
        assert status["queued"] == 2 and status["leased"] == 0

    def test_rejects_double_enqueue_names_distinct(self, tmp_path):
        q = FileQueue(tmp_path)
        first = q.enqueue(jobs(2))
        second = q.enqueue(jobs(2)[:1])
        assert len(set(first) | set(second)) == 3

    def test_protocol_base_raises(self):
        from repro.orchestration import WorkQueue

        q = WorkQueue()
        with pytest.raises(NotImplementedError):
            q.claim("w")
