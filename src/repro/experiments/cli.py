"""Command-line front end for running reproduction experiments.

Examples
--------
Run a single drive and print the summary::

    python -m repro.experiments.cli drive --mode wgtt --speed 15 --traffic tcp

Compare WGTT and the baseline across speeds (Fig. 13 style)::

    python -m repro.experiments.cli sweep --speeds 5,15,25 --traffic udp

Inspect the channel (Fig. 2 / Fig. 10 style)::

    python -m repro.experiments.cli channel --speed 25
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

import numpy as np

from ..core.ha import coerce_ha
from ..faults import FaultScenario
from ..mobility import LEAD_IN_M, LinearTrajectory, RoadLayout, mph_to_mps
from ..orchestration import (
    ColumnarStore,
    ResultCache,
    SweepAggregator,
    SweepSpec,
    run_sweep,
)
from ..perf import PERF
from ..policies import (
    PolicySpec,
    available_policies,
    coerce_policy,
    policy_class,
)
from .builder import ExperimentConfig, build_network
from .metrics import mean_throughput_mbps, throughput_timeseries
from .runners import run_single_drive

__all__ = ["main"]


def _load_fault_scenario(arg: Optional[str]) -> Optional[FaultScenario]:
    """``--fault-scenario`` accepts a JSON file path or inline JSON."""
    if arg is None:
        return None
    if os.path.exists(arg):
        with open(arg, "r", encoding="utf-8") as fh:
            return FaultScenario.from_json(fh.read())
    if arg.lstrip().startswith("{"):
        return FaultScenario.from_json(arg)
    raise SystemExit(f"--fault-scenario: no such file: {arg}")


def _load_policy(arg: Optional[str]) -> Optional[PolicySpec]:
    """``--policy`` accepts a registry name, inline JSON, or a JSON file."""
    if arg is None:
        return None
    if os.path.exists(arg):
        with open(arg, "r", encoding="utf-8") as fh:
            arg = fh.read()
    try:
        spec = coerce_policy(arg)
        if spec is not None:
            policy_class(spec.name)  # fail fast on unknown names
        return spec
    except (ValueError, KeyError, TypeError) as exc:
        raise SystemExit(
            f"--policy: {exc} (available: {', '.join(sorted(available_policies()))})"
        )


def _coverage_window(speed_mph: float, road: RoadLayout):
    v = mph_to_mps(speed_mph)
    return LEAD_IN_M / v, (road.span_m + LEAD_IN_M) / v


def _load_city(arg: Optional[str]):
    """``--city`` accepts a CityConfig JSON file path or inline JSON."""
    if arg is None:
        return None
    from ..city import CityConfig

    if os.path.exists(arg):
        with open(arg, "r", encoding="utf-8") as fh:
            return CityConfig.from_json(fh.read())
    if arg.lstrip().startswith("{"):
        try:
            return CityConfig.from_json(arg)
        except (ValueError, TypeError) as exc:
            raise SystemExit(f"--city: {exc}")
    raise SystemExit(f"--city: no such file: {arg}")


def _load_ha(arg: Optional[str]):
    """``--ha`` accepts a bare flag (defaults) or inline JSON knobs."""
    if arg is None:
        return None
    try:
        return coerce_ha(True if arg == "" else arg)
    except (ValueError, TypeError) as exc:
        raise SystemExit(f"--ha: {exc}")


def _dump_profile(profiler, path: str) -> None:
    """Write cProfile stats to ``path`` plus a human-readable sidecar.

    The binary dump loads with ``python -m pstats PATH`` (or
    ``pstats.Stats(PATH)``); ``PATH.txt`` carries the top of the
    cumulative- and internal-time rankings for quick inspection.
    """
    import io
    import pstats

    profiler.dump_stats(path)
    text = io.StringIO()
    stats = pstats.Stats(profiler, stream=text)
    stats.sort_stats("cumulative").print_stats(30)
    stats.sort_stats("tottime").print_stats(30)
    with open(path + ".txt", "w") as fh:
        fh.write(text.getvalue())
    print(f"profile        : wrote {path} (pstats) and {path}.txt")


def cmd_drive(args: argparse.Namespace) -> int:
    scenario = _load_fault_scenario(args.fault_scenario)
    policy = _load_policy(args.policy)
    ha = _load_ha(args.ha)
    city = _load_city(args.city)
    extra = {}
    if scenario is not None:
        extra["fault_scenario"] = scenario
    if policy is not None:
        extra["policy"] = policy
    if ha is not None:
        extra["ha"] = ha
    if city is not None:
        extra["city"] = city
    if args.check_invariants:
        extra["check_invariants"] = True
    if args.duration is not None:
        extra["duration_s"] = args.duration
    if args.profile:
        PERF.reset()
    profiler = None
    if args.profile_out:
        import cProfile

        profiler = cProfile.Profile()
    from time import perf_counter

    wall_t0 = perf_counter()
    if profiler is not None:
        profiler.enable()
    try:
        result = run_single_drive(
            mode=args.mode,
            speed_mph=args.speed,
            traffic=args.traffic,
            udp_rate_mbps=args.udp_rate,
            seed=args.seed,
            **extra,
        )
    finally:
        if profiler is not None:
            profiler.disable()
    wall_clock_s = perf_counter() - wall_t0
    if profiler is not None:
        _dump_profile(profiler, args.profile_out)
    if city is not None:
        t0, t1 = result.measure_t0, result.measure_t1
    elif args.speed > 0:
        t0, t1 = _coverage_window(args.speed, result.net.road)
    else:
        t0, t1 = 0.5, result.duration_s
    throughput = mean_throughput_mbps(result.deliveries, t0, t1)
    print(f"mode           : {args.mode}")
    if policy is not None:
        print(f"policy         : {policy.label()}")
    if city is not None:
        print(f"city           : {city.rows}x{city.cols} grid, "
              f"{result.extras['n_segments']} segments, "
              f"{result.extras['n_aps']} APs, "
              f"{result.extras['n_vehicles']} vehicles "
              f"at {city.speed_mph:g} mph")
        per_seg = result.extras["per_segment_mbps"]
        busiest = sorted(per_seg, key=per_seg.get, reverse=True)[:3]
        print(f"fleet goodput  : {result.extras['fleet_mbps']:.2f} Mbit/s "
              "(sum over vehicles)")
        print("busiest segs   : " + ", ".join(
            f"#{seg} {per_seg[seg]:.1f} Mb/s" for seg in busiest
        ))
    else:
        print(f"speed          : {args.speed} mph")
    print(f"traffic        : {args.traffic}")
    print(f"throughput     : {throughput:.2f} Mbit/s (in coverage)")
    print(f"AP switches    : {result.timeline.switch_count}")
    print(f"sim duration   : {result.duration_s:.1f} s "
          f"({result.net.sim.events_fired} events)")
    if scenario is not None:
        stats = result.net.fault_injector.stats()
        print(f"faults         : {len(scenario)} events "
              f"({stats['applied_events']} applied, "
              f"{stats['drops_node_down'] + stats['drops_rule']} pkts dropped, "
              f"{stats['delayed_packets']} delayed)")
    resilience = result.net.resilience_counters()
    if resilience:
        interesting = {k: v for k, v in resilience.items() if v}
        print(f"resilience     : " + (", ".join(
            f"{k}={v}" for k, v in sorted(interesting.items())
        ) or "all counters zero"))
    if args.timeseries:
        _ts, mbps = throughput_timeseries(result.deliveries, t0, t1, bin_s=0.5)
        for i, v in enumerate(mbps):
            bar = "#" * int(v / max(mbps.max(), 1e-9) * 40)
            print(f"  {t0 + 0.5 * i:6.2f}s {v:6.2f} |{bar}")
    if args.profile:
        events = result.net.sim.events_fired
        print(f"wall clock     : {wall_clock_s:.2f} s "
              f"({events / max(wall_clock_s, 1e-9):,.0f} events/s)")
        print(f"trace records  : {len(result.net.trace)} kept, "
              f"{result.net.trace.dropped_records} dropped")
        print(PERF.report(title="perf counters"))
    invariants = result.net.invariants
    if invariants is not None:
        print(f"invariants     : {invariants.report()}")
        if not invariants.ok:
            return 1
    return 0


def _load_fault_campaign(arg: Optional[str]):
    """``--fault-campaign`` accepts inline JSON or a JSON file path."""
    if arg is None:
        return None
    from ..orchestration import coerce_campaign

    if os.path.exists(arg):
        with open(arg, "r", encoding="utf-8") as fh:
            arg = fh.read()
    try:
        return coerce_campaign(arg)
    except (ValueError, TypeError) as exc:
        raise SystemExit(f"--fault-campaign: {exc}")


def cmd_sweep(args: argparse.Namespace) -> int:
    """A Fig.-13-style grid through the sweep orchestration layer.

    ``--jobs 1`` (default) drains the jobs in this process; ``--jobs N``
    drains a directory-lease work queue with N pull workers (heartbeat
    leases, crash requeue).  ``--queue-dir`` places that queue where
    other hosts and ``sweep-status`` can see it.
    ``--store columnar`` additionally streams every summary into packed
    ``.npz`` shards plus a running ``aggregate.json`` snapshot under
    ``--store-dir``.  Results persist in the on-disk cache either way,
    so a repeated sweep skips simulation entirely.
    """
    speeds = [float(s) for s in args.speeds.split(",")]
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    seeds = ([int(s) for s in args.seeds.split(",")]
             if args.seeds else [args.seed])
    scenario = _load_fault_scenario(args.fault_scenario)
    campaign = _load_fault_campaign(args.fault_campaign)
    policies = None
    if args.policies:
        policies = [_load_policy(p.strip())
                    for p in args.policies.split(",") if p.strip()]
    overrides = {}
    city = _load_city(args.city)
    ha = _load_ha(args.ha)
    if ha is not None:
        # Overrides must be scalars: carry the knobs as canonical JSON
        # (ExperimentConfig coerces it back).
        overrides["ha"] = json.dumps(ha.to_dict(), sort_keys=True,
                                     separators=(",", ":"))
    if args.check_invariants:
        overrides["check_invariants"] = True
    spec = SweepSpec(
        modes=modes, speeds_mph=speeds, traffics=(args.traffic,),
        seeds=seeds, udp_rate_mbps=args.udp_rate,
        n_aps=args.n_aps, ap_spacing_m=args.ap_spacing,
        fault_scenario=scenario, fault_campaign=campaign,
        policies=policies, city=city,
        overrides=overrides,
    )
    cache = None if args.no_cache else ResultCache.from_env(args.cache_dir)
    store = aggregator = None
    if args.store == "columnar":
        store = ColumnarStore(args.store_dir)
        aggregator = SweepAggregator()
    result = run_sweep(
        spec, jobs=args.jobs, cache=cache,
        timeout_s=args.timeout, max_retries=args.retries,
        verbose=args.verbose, store=store, aggregator=aggregator,
        queue_dir=args.queue_dir, lease_timeout_s=args.lease_timeout,
    )

    # Mean coverage throughput per (column, speed), averaged over seeds.
    # Columns are modes; a --policies axis splits them per policy label.
    def column_of(job) -> str:
        if job.policy is not None:
            return coerce_policy(job.policy).label()
        return job.mode

    columns: List[str] = []
    cells = {}
    for job, summary in zip(result.jobs, result.summaries):
        col = column_of(job)
        if col not in columns:
            columns.append(col)
        if summary is not None:
            cells.setdefault((col, job.speed_mph), []).append(
                summary.coverage_throughput_mbps
            )
    width = max(9, max(len(c) for c in columns) + 1)
    header = f"{'speed':>8} " + " ".join(f"{c:>{width}}" for c in columns)
    show_gain = "wgtt" in columns and "baseline" in columns
    if show_gain:
        header += f" {'gain':>6}"
    print(header)
    for speed in speeds:
        row = {
            col: float(np.mean(cells[(col, speed)]))
            for col in columns if (col, speed) in cells
        }
        line = f"{speed:6.0f}mph " + " ".join(
            f"{row[c]:{width}.2f}" if c in row else f"{'-':>{width}}"
            for c in columns
        )
        if show_gain and "wgtt" in row and "baseline" in row:
            line += f" {row['wgtt'] / max(row['baseline'], 1e-9):5.1f}x"
        print(line)

    stats = result.stats
    print(f"jobs: {stats.one_line()}")
    if args.queue_dir is not None:
        print(f"queue: {args.queue_dir} ({args.jobs} workers, "
              f"{stats.retries} requeued, {stats.failed} failed)")
    if store is not None:
        print(f"store: {store.root} ({len(store)} summaries in "
              f"{store.n_shards} shards, aggregate.json updated)")
    if cache is not None:
        print(f"cache: {cache.root} "
              f"({stats.cached}/{stats.total} hits, {cache.writes} writes)")
    for failure in result.failures:
        print(f"FAILED {failure.job.key()} after {failure.attempts} attempts: "
              f"{failure.error}")
    return 0 if result.ok else 1


def cmd_sweep_status(args: argparse.Namespace) -> int:
    """Inspect a (possibly still running) queue-backed sweep.

    Reads only on-disk state -- the queue's job/lease/result files, the
    columnar store manifest, and the streaming ``aggregate.json``
    snapshot -- so it can be pointed at a live run from another shell
    (or another host, on a shared filesystem).
    """
    if args.queue_dir is None and args.store_dir is None:
        raise SystemExit("sweep-status: give --queue-dir and/or --store-dir")
    printed = False
    if args.queue_dir is not None:
        from ..orchestration import FileQueue

        if not os.path.isdir(args.queue_dir):
            raise SystemExit(f"sweep-status: no such queue: {args.queue_dir}")
        status = FileQueue(args.queue_dir).status()
        total = (status["queued"] + status["leased"] + status["done"]
                 + status["failed"])
        print(f"queue  : {args.queue_dir}")
        print(f"jobs   : {status['done']}/{total} done, "
              f"{status['queued']} queued, {status['leased']} leased, "
              f"{status['failed']} failed, {status['requeued']} requeued")
        printed = True
    snapshot_path = None
    if args.store_dir is not None:
        if not os.path.isdir(args.store_dir):
            raise SystemExit(f"sweep-status: no such store: {args.store_dir}")
        store = ColumnarStore(args.store_dir)
        print(f"store  : {args.store_dir} ({len(store)} summaries in "
              f"{store.n_shards} shards, store_version "
              f"{store.manifest['store_version']})")
        snapshot_path = store.root / "aggregate.json"
        printed = True
    if args.queue_dir is not None and snapshot_path is None:
        snapshot_path = os.path.join(args.queue_dir, "aggregate.json")
    if snapshot_path is not None and os.path.exists(snapshot_path):
        with open(snapshot_path) as fh:
            snap = json.load(fh)
        print(f"cells  : {len(snap['cells'])} "
              f"({snap['jobs_seen']} jobs aggregated, "
              f"metric {snap['metric']})")
        header = (f"{'mode':>10} {'speed':>6} {'traffic':>7} "
                  f"{'policy':>18} {'n':>4} {'mean':>8} {'std':>7}")
        print(header)
        for cell in snap["cells"]:
            print(f"{cell['mode']:>10} {cell['speed_mph']:6.0f} "
                  f"{cell['traffic']:>7} {cell['policy'] or '-':>18} "
                  f"{cell['n']:4d} {cell['mean']:8.2f} {cell['std']:7.2f}")
    return 0 if printed else 1


def cmd_channel(args: argparse.Namespace) -> int:
    net = build_network(ExperimentConfig(mode="wgtt", seed=args.seed))
    trajectory = LinearTrajectory.drive_through(net.road, args.speed)
    client = net.add_client(trajectory)
    links = net.links_for_client(client)
    v = mph_to_mps(args.speed)
    t0, t1 = _coverage_window(args.speed, net.road)
    ts = np.arange(t0, min(t1, t0 + 2.0), 1e-3)
    # One batched kernel evaluation per link (the scalar equivalent pays
    # the full PHY stack once per sample per AP).
    esnr = np.stack([link.esnr_db_at(ts) for link in links], axis=1)
    best = esnr.argmax(axis=1)
    flips = int(np.sum(np.diff(best) != 0))
    print(f"APs                  : {len(links)}")
    print(f"observation window   : {1000 * (ts[-1] - ts[0]):.0f} ms at {args.speed} mph")
    print(f"best-AP changes      : {flips}")
    print(f"mean best-AP dwell   : {1000 * (ts[-1] - ts[0]) / max(flips, 1):.1f} ms")
    print(f"peak ESNR            : {esnr.max():.1f} dB")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Wi-Fi Goes to Town reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    drive = sub.add_parser("drive", help="run one drive and summarise it")
    drive.add_argument("--mode", choices=("wgtt", "baseline"), default="wgtt")
    drive.add_argument("--speed", type=float, default=15.0, help="mph (0 = static)")
    drive.add_argument("--traffic", choices=("tcp", "udp"), default="tcp")
    drive.add_argument("--udp-rate", type=float, default=50.0)
    drive.add_argument("--seed", type=int, default=0)
    drive.add_argument("--timeseries", action="store_true")
    drive.add_argument("--fault-scenario", default=None, metavar="FILE",
                       help="fault scenario JSON (file path or inline)")
    drive.add_argument("--policy", default=None, metavar="NAME_OR_JSON",
                       help="handover policy: registry name, inline JSON "
                            '({"name": ..., "params": {...}}), or a JSON '
                            "file (wgtt mode only)")
    drive.add_argument("--profile", action="store_true",
                       help="print PHY fast-path counters, cache hit rates, "
                            "and events/sec after the drive")
    drive.add_argument("--profile-out", default=None, metavar="PATH",
                       help="run the drive under cProfile and dump pstats "
                            "to PATH (plus a PATH.txt text summary); "
                            "usable with or without --profile")
    drive.add_argument("--ha", nargs="?", const="", default=None,
                       metavar="JSON",
                       help="arm controller HA: bare flag for the default "
                            "knobs, or inline HaParams JSON (e.g. "
                            '\'{"standby": false}\' for degraded-mode-only)')
    drive.add_argument("--check-invariants", action="store_true",
                       help="arm the runtime invariant monitors (duplicate "
                            "delivery, reordering, index monotonicity, "
                            "single serving AP); nonzero exit on violation")
    drive.add_argument("--city", default=None, metavar="FILE_OR_JSON",
                       help="run a city fleet drive: CityConfig JSON (file "
                            "path or inline, e.g. '{\"rows\": 3, \"cols\": "
                            "3}'); --speed/--mode=baseline do not apply")
    drive.add_argument("--duration", type=float, default=None,
                       help="simulated seconds (city drives default to 10)")
    drive.set_defaults(fn=cmd_drive)

    sweep = sub.add_parser(
        "sweep", help="WGTT vs baseline across speeds (parallel, cached)"
    )
    sweep.add_argument("--speeds", default="5,15,25,35")
    sweep.add_argument("--modes", default="wgtt,baseline")
    sweep.add_argument("--traffic", choices=("tcp", "udp"), default="udp")
    sweep.add_argument("--udp-rate", type=float, default=50.0)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--seeds", default=None,
                       help="comma list; averaged per cell (overrides --seed)")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = in-process)")
    sweep.add_argument("--cache-dir", default=None,
                       help="result cache root (default .repro_cache, "
                            "or $REPRO_CACHE_DIR)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="always simulate; do not read or write the cache")
    sweep.add_argument("--timeout", type=float, default=None,
                       help="per-job wall-clock timeout in seconds")
    sweep.add_argument("--retries", type=int, default=2,
                       help="extra attempts per failed job")
    sweep.add_argument("--n-aps", type=int, default=None,
                       help="override the AP count (default: 8-AP testbed)")
    sweep.add_argument("--ap-spacing", type=float, default=None,
                       help="override AP spacing in metres")
    sweep.add_argument("--verbose", action="store_true",
                       help="per-job progress lines on stderr")
    sweep.add_argument("--fault-scenario", default=None, metavar="FILE",
                       help="fault scenario JSON applied to every job "
                            "(file path or inline)")
    sweep.add_argument("--policies", default=None,
                       help="comma list of handover-policy names (or JSON "
                            "files) run as an extra sweep axis")
    sweep.add_argument("--ha", nargs="?", const="", default=None,
                       metavar="JSON",
                       help="arm controller HA on every job (bare flag for "
                            "defaults, or inline HaParams JSON)")
    sweep.add_argument("--check-invariants", action="store_true",
                       help="arm the runtime invariant monitors on every job")
    sweep.add_argument("--city", default=None, metavar="FILE_OR_JSON",
                       help="CityConfig JSON applied to every job (file path "
                            "or inline); use --modes wgtt with this")
    sweep.add_argument("--queue-dir", default=None, metavar="DIR",
                       help="work-queue root directory (default: a "
                            "temporary dir, removed afterwards, when "
                            "--jobs > 1; point several hosts at one shared "
                            "dir to distribute)")
    sweep.add_argument("--lease-timeout", type=float, default=30.0,
                       help="seconds of worker silence before its job is "
                            "requeued")
    sweep.add_argument("--store", choices=("json", "columnar"),
                       default="json",
                       help="columnar: also pack every summary into .npz "
                            "shards + a streaming aggregate.json under "
                            "--store-dir")
    sweep.add_argument("--store-dir", default=".repro_store", metavar="DIR",
                       help="columnar store root (default .repro_store)")
    sweep.add_argument("--fault-campaign", default=None, metavar="JSON",
                       help="Poisson fault regime crossed with the grid "
                            "(inline JSON or file with crash_rate_per_ap_hz "
                            "etc.); per-job scenarios derive from the sweep "
                            "seed -- mutually exclusive w/ --fault-scenario")
    sweep.set_defaults(fn=cmd_sweep)

    status = sub.add_parser(
        "sweep-status",
        help="inspect a queue-backed sweep (live or finished)",
    )
    status.add_argument("--queue-dir", default=None, metavar="DIR",
                        help="queue root to summarise")
    status.add_argument("--store-dir", default=None, metavar="DIR",
                        help="columnar store root to summarise")
    status.set_defaults(fn=cmd_sweep_status)

    channel = sub.add_parser("channel", help="inspect the picocell channel")
    channel.add_argument("--speed", type=float, default=25.0)
    channel.add_argument("--seed", type=int, default=0)
    channel.set_defaults(fn=cmd_channel)
    return parser


def main(argv: List[str] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
