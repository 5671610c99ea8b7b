"""Smoke tests for the CLI front end."""

import pytest

from repro.experiments.cli import build_parser, main


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["teleport"])


def test_parser_defaults():
    args = build_parser().parse_args(["drive"])
    assert args.mode == "wgtt"
    assert args.traffic == "tcp"


def test_channel_command_runs(capsys):
    assert main(["channel", "--speed", "25", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "best-AP changes" in out


def test_drive_command_runs(capsys):
    assert main(["drive", "--mode", "wgtt", "--speed", "0",
                 "--traffic", "udp", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "throughput" in out


SWEEP_SMALL = ["sweep", "--speeds", "35", "--traffic", "udp",
               "--udp-rate", "5", "--seed", "1", "--n-aps", "3"]


def test_sweep_command_runs(capsys, tmp_path):
    assert main(SWEEP_SMALL + ["--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "wgtt" in out
    assert "baseline" in out
    assert "jobs:" in out


def test_sweep_parallel_matches_serial_and_hits_cache(capsys, tmp_path):
    cache = ["--cache-dir", str(tmp_path)]
    assert main(SWEEP_SMALL + cache + ["--jobs", "2"]) == 0
    first = capsys.readouterr().out
    assert "2 run, 0 cached" in first

    # Same grid again: served entirely from the cache, same numbers.
    assert main(SWEEP_SMALL + cache + ["--jobs", "2"]) == 0
    second = capsys.readouterr().out
    assert "0 run, 2 cached" in second
    assert first.splitlines()[1] == second.splitlines()[1]  # the 35mph row

    # Serial, no cache: numerically identical results.
    assert main(SWEEP_SMALL + ["--no-cache", "--jobs", "1"]) == 0
    third = capsys.readouterr().out
    assert first.splitlines()[1] == third.splitlines()[1]


def test_sweep_defaults():
    args = build_parser().parse_args(["sweep"])
    assert args.jobs == 1
    assert args.retries == 2
    assert not args.no_cache
    assert args.queue_dir is None
    assert args.store == "json"
    assert args.fault_campaign is None


def test_sweep_queue_backend_with_columnar_store(capsys, tmp_path):
    queue_dir = str(tmp_path / "queue")
    store_dir = str(tmp_path / "store")
    extra = ["--jobs", "2", "--queue-dir", queue_dir, "--store", "columnar",
             "--store-dir", store_dir, "--cache-dir", str(tmp_path / "c")]
    assert main(SWEEP_SMALL + extra) == 0
    out = capsys.readouterr().out
    assert "wgtt" in out and "baseline" in out
    assert "queue:" in out and "store:" in out
    assert "2 summaries" in out

    # sweep-status reads the same dirs back.
    assert main(["sweep-status", "--queue-dir", queue_dir,
                 "--store-dir", store_dir]) == 0
    status = capsys.readouterr().out
    assert "done" in status
    assert "store_version" in status or "summaries" in status

    # And the numbers match a plain in-process run of the same grid.
    assert main(SWEEP_SMALL + ["--no-cache"]) == 0
    serial_out = capsys.readouterr().out
    assert out.splitlines()[1] == serial_out.splitlines()[1]


def test_sweep_temporary_queue_dir_is_removed(capsys, tmp_path, monkeypatch):
    import tempfile

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert main(SWEEP_SMALL + ["--jobs", "2", "--no-cache"]) == 0
    assert "2 run, 0 cached" in capsys.readouterr().out
    assert list(tmp_path.glob("repro-queue-*")) == []


def test_sweep_fault_campaign_flag(capsys, tmp_path):
    campaign = '{"crash_rate_per_ap_hz": 0.05, "duration_s": 4.0}'
    cache = ["--cache-dir", str(tmp_path)]
    assert main(SWEEP_SMALL + cache + ["--fault-campaign", campaign]) == 0
    first = capsys.readouterr().out
    assert "2 run, 0 cached" in first
    # Rerun: the per-job scenarios re-derive identically -> all hits.
    assert main(SWEEP_SMALL + cache + ["--fault-campaign", campaign]) == 0
    second = capsys.readouterr().out
    assert "0 run, 2 cached" in second
    assert first.splitlines()[1] == second.splitlines()[1]


def test_ha_flags_parse():
    args = build_parser().parse_args(["drive"])
    assert args.ha is None and not args.check_invariants
    args = build_parser().parse_args(["drive", "--ha", "--check-invariants"])
    assert args.ha == "" and args.check_invariants
    args = build_parser().parse_args(["drive", "--ha", '{"standby": false}'])
    assert args.ha == '{"standby": false}'
    with pytest.raises(SystemExit):
        main(["drive", "--speed", "0", "--ha", "not json"])


def test_drive_profile_reports_invariants_and_resilience(capsys):
    assert main(["drive", "--mode", "wgtt", "--speed", "0",
                 "--traffic", "udp", "--seed", "1",
                 "--ha", "--check-invariants", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "invariants ok" in out
    assert "trace records" in out
    assert "resilience" in out
    assert "heartbeats_sent" in out
