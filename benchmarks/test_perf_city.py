"""City scaling benchmark: does capacity track city size?

Grows a road-grid city 8 -> 32 -> 128 APs at fixed density (4 APs and
8 vehicles per road segment) and measures aggregate simulation capacity
-- client x sim-seconds per CPU-second -- at each size.  With the
spatial link index and the medium bucketed per (channel, cell),
per-client cost is set by *local* density, so capacity should grow
near-linearly with the fleet.

At the 128-AP point the same scenario is rerun as a single-shard
control: ``cell_m=inf`` (one medium bucket per channel, so carrier
sense, capture and receiver scans cover the whole city) plus a
``link_range_m`` beyond the grid diagonal (with one index cell the AP
index returns every AP in index order: the all-pairs AP x client link
matrix).  The sharded run must beat it by >= 3x.

The workload is uplink CBR ("udp-up"): every in-range AP overhears each
client frame and tunnels it to the controller (the paper's
uplink-diversity path).  Uplink keeps per-event work comparable across
arms -- on downlink, the control arm's city-wide AP-to-AP carrier sense
serializes traffic into fewer, larger A-MPDUs and hides the O(N) costs
this benchmark exists to expose.  Timing uses ``time.process_time()``
with the cyclic GC disabled during the timed region and the best of two
repeats per arm: gen-2 collections scan every live object and fire at
heap-size-dependent moments, which alone swings a run +-15 %, and the
repeat guards against cache/frequency noise on shared machines.  Writes
``BENCH_city.json`` at the repo root.
"""

from __future__ import annotations

import gc
import json
import math
import os
import time

from repro.city import CityConfig
from repro.city.runner import run_city_drive
from repro.experiments.builder import ExperimentConfig

from test_perf_phy import REPO_ROOT, bench_metadata

BENCH_PATH = os.path.join(REPO_ROOT, "BENCH_city.json")

SEED = 7
DURATION_S = 2.5
WARMUP_S = 0.25
APS_PER_SEGMENT = 4
VEHICLES_PER_SEGMENT = 8
CELL_M = 45.0
UDP_RATE_MBPS = 5.0

#: Fixed-density scaling series: (rows, cols) grids with 2, 8, and 32
#: road segments -> 8, 32, and 128 APs.
GRIDS = [(1, 3), (1, 9), (3, 7)]

#: Capacity at 128 APs must stay within this factor of the ideal (flat
#: per-client cost) line extrapolated from the 8-AP point.
MIN_SCALING_VS_IDEAL = 0.7

#: Sharded speedup over the forced single-shard arm at 128 APs.
MIN_SINGLE_SHARD_RATIO = 3.0


def _control_link_range_m(rows: int, cols: int) -> float:
    """A link range past the grid diagonal: every AP is in range."""
    block_m = CityConfig().block_m
    return 2.0 * math.hypot(rows * block_m, cols * block_m)


def _run_city(rows: int, cols: int, cell_m: float, link_range_m: float,
              repeats: int = 2):
    n_segments = rows * (cols - 1) + cols * (rows - 1)
    city = CityConfig(
        rows=rows,
        cols=cols,
        aps_per_segment=APS_PER_SEGMENT,
        n_vehicles=n_segments * VEHICLES_PER_SEGMENT,
        cell_m=cell_m,
        link_range_m=link_range_m,
    )
    config = ExperimentConfig(seed=SEED, city=city)
    cpu_s = wall_s = float("inf")
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        wall_t0 = time.perf_counter()
        cpu_t0 = time.process_time()
        # Deterministic: every repeat produces the identical drive, so
        # only the clocks differ and taking the min is sound.
        result = run_city_drive(
            config,
            traffic="udp-up",
            udp_rate_mbps=UDP_RATE_MBPS,
            duration_s=DURATION_S,
            warmup_s=WARMUP_S,
        )
        cpu_s = min(cpu_s, time.process_time() - cpu_t0)
        wall_s = min(wall_s, time.perf_counter() - wall_t0)
        gc.enable()
    return {
        "grid": f"{rows}x{cols}",
        "n_segments": n_segments,
        "n_aps": city.n_aps,
        "n_vehicles": city.n_vehicles,
        # Strict JSON has no Infinity literal.
        "cell_m": cell_m if math.isfinite(cell_m) else "inf",
        "link_range_m": link_range_m,
        "cpu_s": cpu_s,
        "wall_s": wall_s,
        "capacity_client_sim_s_per_cpu_s": city.n_vehicles * DURATION_S / cpu_s,
        "fleet_mbps": result.extras["fleet_mbps"],
        "events_fired": result.net.sim.events_fired,
        "shard_stats": result.extras.get("shard_stats"),
    }


def _warmup():
    """Pay one-time lazy initialization (BER LUTs, steering matrices)
    outside the timed runs -- it would otherwise inflate the smallest
    series point and skew the scaling ratio."""
    city = CityConfig(rows=1, cols=2, aps_per_segment=2, n_vehicles=2,
                      cell_m=CELL_M)
    run_city_drive(ExperimentConfig(seed=SEED, city=city),
                   traffic="udp-up", udp_rate_mbps=UDP_RATE_MBPS,
                   duration_s=0.5, warmup_s=0.1)


def test_city_scaling_perf():
    _warmup()
    link_range_m = CityConfig().link_range_m
    series = [_run_city(rows, cols, CELL_M, link_range_m)
              for rows, cols in GRIDS]
    for point in series:
        print(f"\n{point['grid']}: {point['n_aps']} APs, "
              f"{point['n_vehicles']} vehicles -> {point['cpu_s']:.1f}s CPU, "
              f"{point['capacity_client_sim_s_per_cpu_s']:.1f} "
              f"client-sim-s/cpu-s, {point['fleet_mbps']:.1f} Mb/s fleet")

    single = _run_city(*GRIDS[-1], math.inf, _control_link_range_m(*GRIDS[-1]))
    big = series[-1]
    ratio = single["cpu_s"] / big["cpu_s"]
    scaling = (big["capacity_client_sim_s_per_cpu_s"]
               / series[0]["capacity_client_sim_s_per_cpu_s"])
    print(f"single-shard control: {single['cpu_s']:.1f}s CPU "
          f"({single['fleet_mbps']:.1f} Mb/s) -> sharded is {ratio:.2f}x "
          f"faster; capacity at 128 APs is {scaling:.2f}x the 8-AP point "
          f"(ideal 1.0)")

    bench = {
        "meta": bench_metadata(),
        "benchmark": "city_scaling",
        "seed": SEED,
        "duration_s": DURATION_S,
        "traffic": "udp-up",
        "udp_rate_mbps": UDP_RATE_MBPS,
        "aps_per_segment": APS_PER_SEGMENT,
        "vehicles_per_segment": VEHICLES_PER_SEGMENT,
        "cell_m": CELL_M,
        "scaling_series": series,
        "single_shard_control": single,
        "single_shard_ratio": ratio,
        "capacity_scaling_vs_8ap": scaling,
    }
    with open(BENCH_PATH, "w") as fh:
        json.dump(bench, fh, indent=2)
        fh.write("\n")
    print(f"(wrote {os.path.basename(BENCH_PATH)})")

    # Every arm simulated and delivered traffic.
    for point in series + [single]:
        assert point["events_fired"] > 0
        assert point["fleet_mbps"] > 0.0
    # The subsystems did their job: the global collision domain
    # suppresses concurrency, so the control arm must not deliver more.
    assert single["fleet_mbps"] <= big["fleet_mbps"]
    # Near-linear capacity scaling 8 -> 128 APs at fixed density.
    assert scaling >= MIN_SCALING_VS_IDEAL, (
        f"capacity at 128 APs is {scaling:.2f}x the 8-AP point "
        f"(need >= {MIN_SCALING_VS_IDEAL})")
    # The scaling walls were real: spatial index + medium buckets beat
    # the pre-subsystem architecture by >= 3x at the 128-AP point.
    assert ratio >= MIN_SINGLE_SHARD_RATIO, (
        f"sharded run is only {ratio:.2f}x faster than the forced "
        f"single-shard control (need >= {MIN_SINGLE_SHARD_RATIO})")
