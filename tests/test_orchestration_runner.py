"""Integration tests for the work-queue sweep runner.

Drives use a 3-AP road at 35 mph with a light UDP load so each job is a
fraction of a second; the properties under test (determinism across
worker counts, cache hits, crash isolation, retries, timeouts) do not
depend on scale.
"""

import json
import random

import pytest

from repro.orchestration import (
    FaultCampaign,
    JobSpec,
    MemoryQueue,
    ProgressReporter,
    ResultCache,
    SweepSpec,
    run_queue_sweep,
    run_sweep,
)
from repro.orchestration.runner import execute_job_inline

SMALL = dict(
    modes=("baseline",), speeds_mph=(35.0,), traffics=("udp",),
    udp_rate_mbps=5.0, n_aps=3,
)


def small_spec(seeds=(1, 2)) -> SweepSpec:
    return SweepSpec(seeds=seeds, **SMALL)


def fingerprint(summary):
    return (
        summary.throughput_mbps,
        summary.coverage_throughput_mbps,
        summary.switch_count,
        summary.events_fired,
        tuple(summary.bin_mbps),
    )


def test_parallel_results_identical_to_serial():
    serial = run_sweep(small_spec(), jobs=1)
    parallel = run_sweep(small_spec(), jobs=2)
    assert serial.ok and parallel.ok
    assert [j.key() for j in serial.jobs] == [j.key() for j in parallel.jobs]
    for a, b in zip(serial.summaries, parallel.summaries):
        assert fingerprint(a) == fingerprint(b)


def test_second_run_is_served_from_cache(tmp_path):
    cache = ResultCache(root=tmp_path)
    first = run_sweep(small_spec(), jobs=2, cache=cache)
    assert first.stats.completed == 2 and first.stats.cached == 0
    second = run_sweep(small_spec(), jobs=2, cache=ResultCache(root=tmp_path))
    assert second.stats.cached == 2 and second.stats.completed == 0
    assert second.stats.cache_hit_rate == 1.0
    assert second.stats.events_fired == 0  # no simulation happened
    for a, b in zip(first.summaries, second.summaries):
        assert fingerprint(a) == fingerprint(b)


def test_duplicate_jobs_simulate_once():
    job = small_spec(seeds=(1,)).expand()[0]
    result = run_sweep([job, job], jobs=1)
    assert result.stats.total == 2
    assert result.stats.completed == 1  # deduplicated before execution
    assert fingerprint(result.summaries[0]) == fingerprint(result.summaries[1])


def test_worker_exception_is_retried_and_succeeds(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SWEEP_TEST_CRASH", "exception")
    monkeypatch.setenv("REPRO_SWEEP_TEST_MATCH", "s1")
    monkeypatch.setenv("REPRO_SWEEP_TEST_CRASH_ONCE_DIR", str(tmp_path))
    result = run_sweep(small_spec(), jobs=2, max_retries=2)
    assert result.ok
    assert result.stats.retries >= 1
    assert all(s is not None for s in result.summaries)


def test_hard_worker_death_does_not_abort_the_sweep(tmp_path, monkeypatch):
    # os._exit kills a worker process mid-job; the coordinator must
    # requeue its job (without waiting out the default 30 s lease),
    # replace the worker and finish every job.
    monkeypatch.setenv("REPRO_SWEEP_TEST_CRASH", "exit")
    monkeypatch.setenv("REPRO_SWEEP_TEST_MATCH", "s1")
    monkeypatch.setenv("REPRO_SWEEP_TEST_CRASH_ONCE_DIR", str(tmp_path))
    result = run_sweep(small_spec(), jobs=2, max_retries=2)
    assert result.ok
    assert result.stats.retries >= 1
    assert all(s is not None for s in result.summaries)


def test_exhausted_retries_reported_not_raised(monkeypatch):
    # No CRASH_ONCE_DIR: the job fails on every attempt.
    monkeypatch.setenv("REPRO_SWEEP_TEST_CRASH", "exception")
    monkeypatch.setenv("REPRO_SWEEP_TEST_MATCH", "s1")
    result = run_sweep(small_spec(), jobs=2, max_retries=1)
    assert not result.ok
    assert len(result.failures) == 1
    failure = result.failures[0]
    assert failure.attempts == 2  # first try + one retry
    assert result.stats.retries == 1  # the failed last attempt is no retry
    assert "injected test crash" in failure.error
    # The healthy job still completed, aligned with its grid position.
    by_seed = {j.seed: s for j, s in zip(result.jobs, result.summaries)}
    assert by_seed[1] is None
    assert by_seed[2] is not None
    assert result.stats.failed == 1 and result.stats.completed == 1


def test_per_job_timeout_is_a_retryable_failure(monkeypatch):
    monkeypatch.setenv("REPRO_SWEEP_TEST_SLEEP_S", "5.0")
    monkeypatch.setenv("REPRO_SWEEP_TEST_MATCH", "s1")
    result = run_sweep(small_spec(seeds=(1,)), jobs=1,
                       timeout_s=0.4, max_retries=0)
    assert len(result.failures) == 1
    assert "0.4" in result.failures[0].error


def test_runner_validates_arguments():
    with pytest.raises(ValueError):
        run_sweep(small_spec(), jobs=0)
    with pytest.raises(ValueError):
        run_sweep(small_spec(), max_retries=-1)


def test_progress_reporter_counts_and_narrates(tmp_path):
    import io

    stream = io.StringIO()
    cache = ResultCache(root=tmp_path)
    spec = small_spec(seeds=(1,))
    result = run_queue_sweep(
        spec, workers=0, queue=MemoryQueue(), cache=cache,
        reporter=ProgressReporter(verbose=True, stream=stream))
    stats = result.stats
    assert stats.total == 1 and stats.completed == 1
    assert stats.events_fired > 0
    assert stats.events_per_sec > 0
    text = stream.getvalue()
    assert "sweep: 1 jobs" in text
    assert "baseline:35:udp:r5:s1:aps3" in text


def test_summaries_expose_figure_grade_data():
    result = run_sweep(small_spec(seeds=(1,)), jobs=1)
    summary = result.summaries[0]
    assert summary.coverage_throughput_mbps > 0
    assert summary.bin_centres and len(summary.bin_centres) == len(summary.bin_mbps)
    assert summary.switch_count == len(summary.switch_events)
    assert summary.trace_counters.get("ap_switch", 0) >= summary.switch_count - 1
    assert summary.timeline.ap_at(summary.coverage_t0 + 0.1) is not None


def test_jobspec_round_trip_preserves_identity_under_pool():
    # What the coordinator hashes must be exactly what a worker rebuilds.
    job = JobSpec(mode="baseline", speed_mph=35.0, traffic="udp",
                  udp_rate_mbps=5.0, seed=1, n_aps=3)
    assert JobSpec.from_dict(job.canonical()) == job


# ================================================== determinism battery
# The distributed-sweep invariant: summaries are a pure function of the
# job spec.  Worker count, pull order, crash/requeue schedules -- none
# of it may perturb a single byte of the results or the cache entries.

def summaries_bytes(summaries):
    """The byte-comparable identity of summaries (wall clock excluded)."""
    assert all(s is not None for s in summaries)
    return json.dumps([s.deterministic_dict() for s in summaries],
                      sort_keys=True)


def sweep_bytes(result):
    return summaries_bytes(result.summaries)


def reference_summaries(spec):
    """Each job run in this process, in spec order: no queue involved."""
    return [execute_job_inline(job) for job in spec.expand()]


def cache_identity(cache):
    """(relative path, summary-minus-wall-clock) for every cache entry."""
    out = {}
    for path in sorted(cache.root.glob("*/*.json")):
        record = json.loads(path.read_text())
        record["summary"].pop("wall_clock_s")
        out[str(path.relative_to(cache.root))] = record["summary"]
    return out


@pytest.fixture(scope="module")
def serial_reference():
    """The small spec run job by job; every schedule must match it."""
    return summaries_bytes(reference_summaries(small_spec()))


@pytest.mark.parametrize("order_seed", [0, 1, 2])
def test_shuffled_pull_orders_are_byte_identical(serial_reference, order_seed):
    queue = MemoryQueue(pull_order=random.Random(order_seed).shuffle)
    result = run_queue_sweep(small_spec(), workers=0, queue=queue)
    assert result.ok
    assert sweep_bytes(result) == serial_reference


def test_reverse_pull_order_is_byte_identical(serial_reference):
    queue = MemoryQueue(pull_order=lambda names: names.reverse())
    result = run_queue_sweep(small_spec(), workers=0, queue=queue)
    assert sweep_bytes(result) == serial_reference


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_file_queue_worker_counts_are_byte_identical(
        serial_reference, workers, tmp_path):
    result = run_queue_sweep(small_spec(), workers=workers,
                             queue_dir=str(tmp_path / "q"))
    assert result.ok
    assert sweep_bytes(result) == serial_reference


def test_inline_crash_and_requeue_is_byte_identical(
        serial_reference, tmp_path, monkeypatch):
    # Every job crashes on its first attempt; the retries must still
    # reproduce the reference bytes (the requeue path rebuilds the
    # network from the spec, never from partial state).
    monkeypatch.setenv("REPRO_SWEEP_TEST_CRASH", "exception")
    monkeypatch.setenv("REPRO_SWEEP_TEST_MATCH", "baseline")
    monkeypatch.setenv("REPRO_SWEEP_TEST_CRASH_ONCE_DIR", str(tmp_path))
    queue = MemoryQueue(pull_order=random.Random(7).shuffle)
    result = run_queue_sweep(small_spec(), workers=0, queue=queue,
                             max_retries=2)
    assert result.ok
    assert result.stats.retries >= 2  # both jobs crashed once
    assert sweep_bytes(result) == serial_reference


def test_worker_process_crash_requeues_and_stays_identical(
        serial_reference, tmp_path, monkeypatch):
    # A real worker process dies via os._exit mid-sweep; its lease is
    # forfeited, another worker reruns the job, bytes still match.
    monkeypatch.setenv("REPRO_SWEEP_TEST_CRASH", "exit")
    monkeypatch.setenv("REPRO_SWEEP_TEST_MATCH", "s1")
    monkeypatch.setenv("REPRO_SWEEP_TEST_CRASH_ONCE_DIR", str(tmp_path / "m"))
    (tmp_path / "m").mkdir()
    result = run_queue_sweep(small_spec(), workers=2,
                             queue_dir=str(tmp_path / "q"),
                             lease_timeout_s=0.5, max_retries=2)
    assert result.ok
    assert result.stats.retries >= 1  # the crashed job was requeued
    assert sweep_bytes(result) == serial_reference


def test_dead_worker_lease_is_reaped_without_waiting_for_expiry(
        serial_reference, tmp_path, monkeypatch):
    # The lease would hold the crashed job for 60 s; the coordinator
    # sees the worker exit and requeues the job at once instead.
    monkeypatch.setenv("REPRO_SWEEP_TEST_CRASH", "exit")
    monkeypatch.setenv("REPRO_SWEEP_TEST_MATCH", "s1")
    monkeypatch.setenv("REPRO_SWEEP_TEST_CRASH_ONCE_DIR", str(tmp_path / "m"))
    (tmp_path / "m").mkdir()
    result = run_queue_sweep(small_spec(), workers=2,
                             queue_dir=str(tmp_path / "q"),
                             lease_timeout_s=60, max_retries=2)
    assert result.ok
    assert result.stats.retries >= 1
    assert result.stats.wall_clock_s < 60
    assert sweep_bytes(result) == serial_reference


def test_queue_and_serial_runs_share_cache_entries(tmp_path):
    serial_cache = ResultCache(root=tmp_path / "serial")
    queue_cache = ResultCache(root=tmp_path / "queue")
    serial = reference_summaries(small_spec())
    for job, summary in zip(small_spec().expand(), serial):
        serial_cache.put(job, summary)
    queued = run_queue_sweep(small_spec(), workers=0,
                             queue=MemoryQueue(
                                 pull_order=lambda n: n.reverse()),
                             cache=queue_cache)
    assert queued.ok
    # Same keys (paths) AND same stored summaries, byte for byte.
    assert cache_identity(serial_cache) == cache_identity(queue_cache)
    # A queue run after a serial run is a pure cache replay.
    replay = run_queue_sweep(small_spec(), workers=0, queue=MemoryQueue(),
                             cache=ResultCache(root=tmp_path / "serial"))
    assert replay.stats.cached == 2 and replay.stats.completed == 0
    assert sweep_bytes(replay) == summaries_bytes(serial)


def test_queue_sweep_reports_terminal_failures(monkeypatch):
    # No CRASH_ONCE_DIR: seed 1 fails every attempt, seed 2 completes.
    monkeypatch.setenv("REPRO_SWEEP_TEST_CRASH", "exception")
    monkeypatch.setenv("REPRO_SWEEP_TEST_MATCH", "s1")
    result = run_queue_sweep(small_spec(), workers=0,
                             queue=MemoryQueue(max_retries=1), max_retries=1)
    assert not result.ok
    assert len(result.failures) == 1
    by_seed = {j.seed: s for j, s in zip(result.jobs, result.summaries)}
    assert by_seed[1] is None and by_seed[2] is not None


def test_spawned_workers_require_a_file_queue():
    with pytest.raises(ValueError, match="FileQueue"):
        run_queue_sweep(small_spec(), workers=2, queue=MemoryQueue())


def test_queue_sweep_streams_into_store_and_aggregator(tmp_path):
    from repro.orchestration import ColumnarStore, SweepAggregator

    store = ColumnarStore(tmp_path / "store", shard_size=1)
    agg = SweepAggregator()
    result = run_queue_sweep(small_spec(), workers=0, queue=MemoryQueue(),
                             store=store, aggregator=agg)
    assert result.ok
    # Store holds both summaries (keyed, order may differ from the spec).
    stored = {s.job_key: s.deterministic_dict() for s in store.summaries()}
    assert stored == {s.job_key: s.deterministic_dict()
                      for s in result.summaries}
    snap = agg.snapshot()
    assert snap["jobs_seen"] == 2
    assert (tmp_path / "store" / "aggregate.json").exists()


# ------------------------------------------------- fault-campaign sweeps
FAULTY = dict(
    modes=("wgtt",), speeds_mph=(35.0,), traffics=("udp",),
    udp_rate_mbps=5.0, n_aps=3, seeds=(1, 2),
    fault_campaign=FaultCampaign(crash_rate_per_ap_hz=0.05,
                                 mean_downtime_s=1.0, duration_s=6.0),
)


def test_fault_campaign_sweep_is_deterministic_and_cache_stable(tmp_path):
    """The fault-campaign regression: per-job scenarios derive from the
    sweep seed, so a rerun is 100% cache hits and byte-identical."""
    spec = SweepSpec(**FAULTY)
    jobs = spec.expand()
    assert all(j.fault_scenario is not None for j in jobs)
    assert jobs[0].fault_scenario != jobs[1].fault_scenario  # per-seed
    assert spec.expand() == jobs  # scenario derivation is reproducible

    cache = ResultCache(root=tmp_path)
    first = run_sweep(spec, jobs=1, cache=cache)
    assert first.ok
    assert first.stats.completed == 2 and first.stats.cached == 0
    rerun = run_sweep(SweepSpec(**FAULTY), jobs=1,
                      cache=ResultCache(root=tmp_path))
    assert rerun.stats.cached == 2 and rerun.stats.completed == 0
    assert rerun.stats.cache_hit_rate == 1.0
    assert sweep_bytes(rerun) == sweep_bytes(first)


def test_fault_campaign_queue_run_matches_serial(tmp_path):
    serial = reference_summaries(SweepSpec(**FAULTY))
    queued = run_queue_sweep(SweepSpec(**FAULTY), workers=2,
                             queue_dir=str(tmp_path / "q"))
    assert queued.ok
    assert sweep_bytes(queued) == summaries_bytes(serial)
