"""End-to-end drive perf benchmark: simulated seconds per CPU second.

Runs one short default drive (WGTT controller, TCP, fixed seed), records
wall clock, CPU time, simulated seconds per CPU second, simulator
events/sec and the fast-path perf counters, and writes
``BENCH_drive.json`` at the repo root.

Regression gates, checked before the file is overwritten:

- simulated-s per CPU-s must stay above ``FLOOR_FACTOR`` x the committed
  rate (the generous factor absorbs machine-to-machine and
  noisy-neighbour drift; a real hot-loop regression is far larger).
  Events/sec is reported but not gated: removing events for the same
  simulated work is a speed-up, not a regression;
- the drive must fire no more events than the golden ``default_tcp``
  drive (``tests/golden/drive_digests.json``) -- host-independent;
- the link-layer ``mean_snr`` memo must keep a >= 30% hit rate -- a
  deterministic property of the unified per-frame sampling instants,
  independent of hardware.
"""

from __future__ import annotations

import json
import os
import time

from repro.experiments import run_single_drive
from repro.perf import PERF

from test_perf_phy import REPO_ROOT, bench_metadata

BENCH_PATH = os.path.join(REPO_ROOT, "BENCH_drive.json")
GOLDEN_PATH = os.path.join(REPO_ROOT, "tests", "golden", "drive_digests.json")

#: Fraction of the committed simulated-s per CPU-s the current run must
#: reach.  Anything below this is a genuine regression, not scheduler
#: noise.
FLOOR_FACTOR = 0.4

#: The keyed (uplink, t) memo in front of Link.mean_snr_db must serve at
#: least this hit rate on the default drive (ISSUE PR-9 acceptance).
MEMO_HIT_RATE_FLOOR = 0.30


def _committed_sim_s_per_cpu_s():
    """The simulated-s per CPU-s recorded in the checked-in BENCH_drive.json."""
    try:
        with open(BENCH_PATH) as fh:
            return float(json.load(fh).get("sim_s_per_cpu_s", 0.0))
    except (OSError, ValueError):
        return 0.0


def _golden_events():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)["default_tcp"]["events_fired"]


def test_drive_perf():
    floor = _committed_sim_s_per_cpu_s() * FLOOR_FACTOR
    PERF.reset()
    t0 = time.perf_counter()
    c0 = time.process_time()
    result = run_single_drive(mode="wgtt", speed_mph=15.0, traffic="tcp", seed=0)
    cpu_s = time.process_time() - c0
    wall_s = time.perf_counter() - t0
    events = PERF.get("drive.events")
    snap = PERF.snapshot()
    sim_rate = result.duration_s / cpu_s if cpu_s > 0 else 0.0

    bench = {
        "meta": bench_metadata(),
        "benchmark": "drive_end_to_end",
        "mode": "wgtt",
        "speed_mph": 15.0,
        "traffic": "tcp",
        "seed": 0,
        "duration_s": result.duration_s,
        "wall_clock_s": wall_s,
        "cpu_s": cpu_s,
        "sim_s_per_cpu_s": sim_rate,
        "events_fired": events,
        "events_per_sec": events / wall_s if wall_s > 0 else 0.0,
        "throughput_mbps": result.throughput_mbps,
        "perf_counters": snap["counters"],
        "perf_timers_s": snap["timers_s"],
    }
    with open(BENCH_PATH, "w") as fh:
        json.dump(bench, fh, indent=2)
        fh.write("\n")

    print(f"\ndrive: {events:,} events in {wall_s:.1f}s "
          f"({events / wall_s:,.0f} events/s, "
          f"{sim_rate:.2f} simulated s per CPU s), "
          f"{result.throughput_mbps:.1f} Mb/s "
          f"(wrote {os.path.basename(BENCH_PATH)})")

    assert events > 0
    assert result.throughput_mbps > 0.0
    # The fast path actually ran: LUT inversions and tap-kernel points.
    assert PERF.get("esnr.invert_lut") > 0
    assert PERF.get("phy.tap_eval_points") > 0
    # Deterministic memo effectiveness (machine-independent).
    hits = PERF.get("link.memo_hits")
    misses = PERF.get("link.memo_misses")
    assert hits + misses > 0
    hit_rate = hits / (hits + misses)
    assert hit_rate >= MEMO_HIT_RATE_FLOOR, (
        f"link.mean_snr memo hit rate {hit_rate:.1%} fell below "
        f"{MEMO_HIT_RATE_FLOOR:.0%}"
    )
    # Host-independent work ceiling: no more events than the golden drive.
    golden = _golden_events()
    assert events <= golden, (
        f"{events:,} events exceed the golden default_tcp drive's {golden:,}"
    )
    # Simulated-s per CPU-s regression floor against the committed benchmark.
    if floor > 0.0:
        assert sim_rate >= floor, (
            f"{sim_rate:.2f} simulated s per CPU s is below the regression "
            f"floor {floor:.2f} ({FLOOR_FACTOR:.0%} of the committed rate)"
        )
