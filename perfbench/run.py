#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload drive_tcp --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` first runs the tracing self-test and one untraced reference
unit, then two traced passes of the same unit, and reports the per-layer
metrics of the first traced pass.  Either way every output is checked,
the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, and a fuller record
(provenance, samples, problems) is written to
``.perfbench_out/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: (name, unit) of every end-to-end metric.
END_TO_END = [
    ("client_sim_s_per_cpu_s", "client-s/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("jobs_per_s", "1/s"),
    ("cached_jobs_per_s", "1/s"),
]

#: Share of ``--seconds`` spent on timed units; warm reruns fill the rest.
UNIT_SHARE = 0.8
#: Fewest timed units and warm reruns in an untraced run.
MIN_UNITS = {"drive_tcp": 2, "city_uplink": 1, "sweep": 1}
MAX_UNITS = {"city_uplink": 1, "sweep": 1}
MIN_WARM = 50
#: Warm reruns in each traced pass.
TRACED_WARM = {"drive_tcp": 5, "city_uplink": 5, "sweep": 2}


def _import_program():
    """Import the program and the benchmark modules (src/ must exist)."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import ledger
    import selftest
    import tracing
    import workloads

    return ledger, selftest, tracing, workloads


def _isolate_environment() -> None:
    """The program must not see the caller's cache, store or test hooks."""
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]


def metadata() -> dict:
    """Provenance: commit, dirty flag, versions and ``nproc``."""
    # A checkout without .git must not report an enclosing repository.
    os.environ.setdefault("GIT_CEILING_DIRECTORIES", os.path.dirname(ROOT))
    sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
    from test_perf_phy import bench_metadata

    meta = bench_metadata()
    meta["nproc"] = len(os.sched_getaffinity(0))
    meta["platform"] = platform.platform()
    return meta


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(wl, seconds: float) -> dict:
    """End-to-end metrics: set-up probes, timed units, warm reruns."""
    problems, attempted, failed = [], 0, 0
    setups = [wl.probe_setup() for _ in range(wl.setup_probes)]
    units = []
    t0 = time.perf_counter()
    max_units = MAX_UNITS.get(wl.name)
    while True:
        unit = wl.unit()
        # Keep no network alive across units: the peak RSS is one unit's.
        del unit.ledger["result"]
        units.append(unit)
        attempted += unit.jobs
        failed += unit.failed
        problems += unit.problems
        done = time.perf_counter() - t0 >= UNIT_SHARE * seconds
        if (max_units and len(units) >= max_units) or \
                (done and len(units) >= MIN_UNITS[wl.name]):
            break
    cache = wl.warm_cache(units[0])
    warm_rates = []
    while True:
        gc.collect()
        wall, n_jobs, warm_problems, _result = wl.warm(units[0], cache)
        attempted += n_jobs
        if warm_problems:
            failed += n_jobs
            problems += warm_problems
        warm_rates.append(n_jobs / wall)
        if time.perf_counter() - t0 >= seconds and len(warm_rates) >= MIN_WARM:
            break
    rates = [u.client_sim_s / u.cpu_s for u in units]
    values = {
        "client_sim_s_per_cpu_s": statistics.median(rates),
        "setup_s": statistics.median(setups + [u.setup_s for u in units]),
        "peak_rss_mb": _peak_rss_mb(),
        "jobs_per_s": statistics.median(u.jobs / u.wall_s for u in units),
        "cached_jobs_per_s": statistics.median(warm_rates),
    }
    samples = {
        "client_sim_s_per_cpu_s": rates,
        "setup_s": setups + [u.setup_s for u in units],
        "unit_cpu_s": [u.cpu_s for u in units],
        "unit_wall_s": [u.wall_s for u in units],
        "unit_raw": [u.ledger["raw"] for u in units],
        "cached_jobs_per_s": warm_rates,
    }
    return {"metrics": {n: (values[n], unit) for n, unit in END_TO_END},
            "attempted": attempted, "failed": failed, "problems": problems,
            "samples": samples}


def run_traced(wl, mods, workload: str) -> dict:
    """Per-layer metrics: self-test, untraced reference, two traced passes."""
    ledger, selftest, tracing, workloads = mods
    problems = [f"self-test: {p}" for p in selftest.run()]
    attempted, failed = 0, 0

    # Finish lazy process-wide set-up (e.g. cached steering matrices) so
    # the reference and both traced passes start from the same state.
    wl.probe_setup()
    ref = wl.unit()
    attempted += ref.jobs
    failed += ref.failed
    problems += ref.problems
    if workload == "sweep":
        layers = ["orchestration"]
    else:
        layers = ["sim", "phy", "mac", "net", "core", "transport", "city",
                  "experiments", "mobility", "policies", "invariants",
                  "faults", "apps", "orchestration"]
    passes = []
    for k in range(2):
        rec = tracing.SpanRecorder()
        inst = tracing.install(rec, layers)
        tracing.install_idle(inst, workloads.sweep_runner)
        try:
            unit = wl.unit(entry_wrapper=lambda f: rec.root("unit", f))
            cache = wl.warm_cache(unit)
            warm = [rec.root("warm", wl.warm, unit, cache)
                    for _ in range(TRACED_WARM[workload])]
        finally:
            inst.remove()
        attempted += unit.jobs + sum(n for _w, n, _p, _r in warm)
        failed += unit.failed + sum(n for _w, n, p, _r in warm if p)
        problems += unit.problems + [p for _w, _n, ps, _r in warm for p in ps]
        problems += [f"trace pass {k}: {p}" for p in tracing.check_tree(rec)]
        if unit.digest != ref.digest:
            problems.append(f"traced pass {k} changed the outputs: "
                            f"{unit.digest} != {ref.digest}")
        if unit.ledger.get("perf") != ref.ledger.get("perf"):
            problems.append(f"traced pass {k} changed the program's counters")
        metrics = ledger.layer_metrics(rec, unit, [r for *_x, r in warm],
                                       workloads.SWEEP_WORKERS)
        metrics["trace.overhead_frac"] = (unit.ledger["cpu_total_s"]
                                          / ref.ledger["cpu_total_s"] - 1.0)
        passes.append(metrics)
        if k == 0:
            rec.save(os.path.join(OUT_DIR, f"spans-{workload}.npz"))
        del rec, inst, unit, warm
        gc.collect()

    # Counters are work, not time: they must repeat exactly.
    for name, _unit, _better in ledger.PER_LAYER:
        if ledger.TIMING.search(name):
            continue
        if passes[0][name] != passes[1][name]:
            problems.append(f"counter {name} drifted between traced passes: "
                            f"{passes[0][name]} != {passes[1][name]}")
    return {"metrics": {n: (passes[0][n], unit)
                        for n, unit, _better in ledger.PER_LAYER},
            "attempted": attempted, "failed": failed, "problems": problems,
            "samples": {"second_pass": passes[1]}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["drive_tcp", "city_uplink", "sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    try:
        mods = _import_program()
    except ImportError as exc:
        print(f"cannot import the program from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    _isolate_environment()
    workloads = mods[3]
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, ROOT, scratch)
        if args.trace:
            out = run_traced(wl, mods, args.workload)
        else:
            out = run_untraced(wl, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    meta = metadata()
    out["failed_frac"] = out["failed"] / out["attempted"]
    record = {"meta": meta, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, **out}
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, default=str)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"commit={meta['commit'][:12]} dirty={meta['dirty']} "
          f"python={meta['python']} numpy={meta['numpy']} nproc={meta['nproc']}")
    for name, (value, unit) in out["metrics"].items():
        print(f"{name:<36} {value:>14.6g} {unit}")
    print(f"{'failed_frac':<36} {out['failed_frac']:>14.6g} "
          f"({out['failed']} of {out['attempted']})")
    for problem in out["problems"]:
        print(f"PROBLEM: {problem}")
    print(json.dumps({
        "correct": not out["problems"] and out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
