"""Unit tests for the persistent result cache (no simulations involved)."""

import json

from repro.orchestration import DriveSummary, JobSpec, ResultCache
from repro.orchestration.cache import default_code_salt


def _summary(job: JobSpec, throughput: float = 12.5) -> DriveSummary:
    return DriveSummary(
        job_key=job.key(), mode=job.mode, speed_mph=job.speed_mph,
        traffic=job.traffic, udp_rate_mbps=job.udp_rate_mbps, seed=job.seed,
        duration_s=5.0, measure_t0=0.55, measure_t1=5.0,
        throughput_mbps=throughput, coverage_throughput_mbps=throughput,
        coverage_t0=1.0, coverage_t1=4.0,
        bin_centres=[1.125, 1.375], bin_mbps=[throughput, throughput],
        switch_events=[(1.0, 3), (2.0, None), (2.5, 4)],
        switch_count=3, trace_counters={"ap_switch": 3},
        events_fired=1000, wall_clock_s=0.1,
    )


def test_put_get_roundtrip(tmp_path):
    cache = ResultCache(root=tmp_path)
    job = JobSpec(mode="wgtt", speed_mph=25.0, traffic="udp", seed=7)
    assert cache.get(job) is None
    cache.put(job, _summary(job))
    got = cache.get(job)
    assert got is not None
    assert got.coverage_throughput_mbps == 12.5
    assert got.switch_events == [(1.0, 3), (2.0, None), (2.5, 4)]
    assert got.timeline.ap_at(1.5) == 3
    assert cache.stats() == {"hits": 1, "misses": 1, "writes": 1}


def test_distinct_jobs_do_not_collide(tmp_path):
    cache = ResultCache(root=tmp_path)
    a = JobSpec(seed=1)
    b = JobSpec(seed=2)
    cache.put(a, _summary(a, 10.0))
    cache.put(b, _summary(b, 20.0))
    assert cache.get(a).throughput_mbps == 10.0
    assert cache.get(b).throughput_mbps == 20.0


def test_code_version_salt_invalidates(tmp_path):
    job = JobSpec(seed=3)
    old = ResultCache(root=tmp_path, salt="repro-0.9-schema1")
    old.put(job, _summary(job))
    new = ResultCache(root=tmp_path)  # current default_code_salt()
    assert default_code_salt() != "repro-0.9-schema1"
    assert new.get(job) is None  # a release invalidated the entry


def test_corrupt_entry_is_a_recoverable_miss(tmp_path):
    cache = ResultCache(root=tmp_path)
    job = JobSpec(seed=4)
    cache.put(job, _summary(job))
    path = cache.path_for(job)
    path.write_text("{not json")
    assert cache.get(job) is None
    assert not path.exists()  # corrupt entry removed so put() can heal it
    cache.put(job, _summary(job))
    assert cache.get(job) is not None


def test_entry_records_canonical_job_for_inspection(tmp_path):
    cache = ResultCache(root=tmp_path)
    job = JobSpec(mode="baseline", speed_mph=35.0, traffic="udp", seed=5)
    cache.put(job, _summary(job))
    with open(cache.path_for(job)) as fh:
        record = json.load(fh)
    assert record["job"]["mode"] == "baseline"
    assert record["salt"] == cache.salt


def test_disabled_cache_is_a_no_op():
    cache = ResultCache(root=None)
    job = JobSpec()
    assert not cache.enabled
    cache.put(job, _summary(job))  # dropped silently
    assert cache.get(job) is None


def test_from_env_honours_disable_and_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
    assert not ResultCache.from_env().enabled
    monkeypatch.delenv("REPRO_CACHE_DISABLE")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
    cache = ResultCache.from_env()
    assert cache.root == tmp_path / "alt"


def test_pre_city_schema_entries_miss_cleanly(tmp_path):
    """Schema 4 (city fields) must not resurrect schema-3 entries.

    Two layers of protection: the schema version is folded into the key
    salt (old entries are simply not found), and even a record forced
    into the current key slot with a legacy field the dataclass no
    longer knows is treated as a corrupt miss and removed.
    """
    job = JobSpec(seed=11)
    old = ResultCache(root=tmp_path, salt="repro-0.0-schema3")
    old.put(job, _summary(job))
    current = ResultCache(root=tmp_path)
    assert "schema3" not in default_code_salt()
    assert current.get(job) is None  # different salt, different path

    # Forge an old-shape record under the *current* key: from_dict must
    # reject the unknown field, and get() turns that into a clean miss.
    path = current.path_for(job)
    path.parent.mkdir(parents=True, exist_ok=True)
    record = json.loads(old.path_for(job).read_text())
    record["summary"]["legacy_field_removed_in_schema4"] = 1
    path.write_text(json.dumps(record))
    assert current.get(job) is None
    assert not path.exists()  # healed: a later put can rewrite it


def test_pre_distributed_schema4_entries_miss_cleanly(tmp_path):
    """Schema 5 (the distributed-sweep era) must not serve schema-4
    entries: queue-backed and serial runs share one cache pool, so a
    stale entry would silently poison every backend at once."""
    from repro.orchestration import CACHE_SCHEMA_VERSION

    assert CACHE_SCHEMA_VERSION == 6
    job = JobSpec(seed=13)
    old = ResultCache(root=tmp_path, salt="repro-0.0-schema4")
    old.put(job, _summary(job))
    current = ResultCache(root=tmp_path)
    assert "schema4" not in default_code_salt()
    assert "schema6" in default_code_salt()
    assert current.get(job) is None  # old salt, unreachable entry
    # The stale entry is still on disk (misses don't delete foreign
    # salts) but invisible; a fresh run rewrites under the new salt.
    current.put(job, _summary(job, 33.0))
    assert current.get(job).throughput_mbps == 33.0
    assert old.get(job).throughput_mbps == 12.5  # untouched


def test_schema5_event_counts_miss_cleanly(tmp_path):
    """Schema 6 (lazy downlink arrival) changed ``events_fired`` for every
    WGTT downlink drive: a schema-5 entry must not be served."""
    job = JobSpec(seed=14)
    ResultCache(root=tmp_path, salt="repro-0.0-schema5").put(
        job, _summary(job))
    assert "schema5" not in default_code_salt()
    assert ResultCache(root=tmp_path).get(job) is None


def test_store_version_tracks_cache_schema_version():
    from repro.orchestration import CACHE_SCHEMA_VERSION
    from repro.orchestration.store import STORE_VERSION

    # One schema number, two layers: bump them together or readers of
    # one format could resurrect stale data from the other.
    assert STORE_VERSION == CACHE_SCHEMA_VERSION


def test_json_era_cache_migrates_into_columnar_shards(tmp_path):
    """The upgrade path: a populated JSON cache packs into the columnar
    store losslessly, ready for aggregator-speed queries."""
    from repro.orchestration import ColumnarStore, migrate_json_cache

    cache = ResultCache(root=tmp_path / "cache")
    originals = {}
    for seed in range(8):
        job = JobSpec(mode="wgtt", speed_mph=25.0, traffic="udp", seed=seed)
        summary = _summary(job, throughput=10.0 + seed)
        cache.put(job, summary)
        originals[job.key()] = summary.to_dict()
    store = ColumnarStore(tmp_path / "store", shard_size=3)
    assert migrate_json_cache(tmp_path / "cache", store) == 8
    assert store.n_shards == 3  # 3 + 3 + 2
    migrated = {s.job_key: s.to_dict() for s in store.summaries()}
    assert migrated == originals


def test_city_summary_fields_roundtrip(tmp_path):
    cache = ResultCache(root=tmp_path)
    job = JobSpec(seed=12, city='{"cols":2,"rows":2}')
    summary = _summary(job)
    summary.n_vehicles = 5
    summary.n_segments = 4
    summary.per_segment_mbps = {0: 3.5, 2: 1.25}
    cache.put(job, summary)
    got = cache.get(job)
    assert got.n_vehicles == 5
    assert got.n_segments == 4
    # JSON stringifies the int keys; from_dict restores them.
    assert got.per_segment_mbps == {0: 3.5, 2: 1.25}
