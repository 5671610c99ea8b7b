"""Per-layer metrics of one traced pass (the layer ledger).

Layers are the ``repro`` packages.  Times come from the spans a
:class:`~tracing.SpanRecorder` collected; work counts come from span
counts, from the program's own counters (``repro.perf.PERF``, medium and
AP statistics, trace counters) and from the sweep's results.  See
``README.md`` for which end-to-end metric each one should move.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Tuple

import numpy as np

import tracing

__all__ = ["PER_LAYER", "TIMING", "layer_metrics"]

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("sim.events", "count", "lower"),
    ("sim.heap_pushes_per_event", "ratio", "lower"),
    ("sim.self_s", "s", "lower"),
    ("sim.self_share", "ratio", "lower"),
    ("phy.calls", "count", "lower"),
    ("phy.self_s", "s", "lower"),
    ("phy.self_share", "ratio", "lower"),
    ("phy.tap_evals_per_frame", "ratio", "lower"),
    ("phy.memo_hit_rate", "ratio", "higher"),
    ("phy.esnr_evals", "count", "lower"),
    ("mac.transmissions", "count", "lower"),
    ("mac.receivers_per_frame", "ratio", "lower"),
    ("mac.self_s", "s", "lower"),
    ("mac.self_share", "ratio", "lower"),
    ("city.self_s", "s", "lower"),
    ("city.rebuckets", "count", "lower"),
    ("city.occupied_shards", "count", "higher"),
    ("city.max_radios_per_shard", "count", "lower"),
    ("net.sends", "count", "lower"),
    ("net.sends_per_downlink_pkt", "ratio", "lower"),
    ("net.self_s", "s", "lower"),
    ("net.self_share", "ratio", "lower"),
    ("core.ap_copies_per_downlink_pkt", "ratio", "lower"),
    ("core.aired_per_copy", "ratio", "higher"),
    ("core.switches", "count", "lower"),
    ("core.uplink_dedup_ratio", "ratio", "lower"),
    ("core.self_s", "s", "lower"),
    ("core.self_share", "ratio", "lower"),
    ("transport.calls", "count", "lower"),
    ("transport.self_s", "s", "lower"),
    ("experiments.build_s", "s", "lower"),
    ("experiments.fleet_setup_s", "s", "lower"),
    ("orchestration.overhead_frac", "ratio", "lower"),
    ("orchestration.coordinator_busy_s", "s", "lower"),
    ("orchestration.coordinator_idle_s", "s", "lower"),
    ("orchestration.cache_get_s", "s", "lower"),
    ("orchestration.store_append_s", "s", "lower"),
    ("orchestration.snapshot_writes", "count", "lower"),
    ("orchestration.requeues", "count", "lower"),
    ("orchestration.retries", "count", "lower"),
    ("orchestration.warm_hit_rate", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
]

#: Metrics that measure time (or depend on it, like the number of
#: aggregate snapshots a polling coordinator writes).  Every other
#: per-layer metric is a count of work and must repeat exactly.
TIMING = re.compile(r"(_s|_share|overhead_frac|\.snapshot_writes)$")

_BUILDERS = (":build_network", ":build_city_network")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _Spans:
    """Vectorised views of one recorder's spans."""

    def __init__(self, rec: tracing.SpanRecorder) -> None:
        self.names = rec.names
        a = rec.arrays()
        self.nid = a["name_id"]
        self.parent = a["parent"]
        self.dur, self.self_ns = tracing.self_times(rec)
        self.layers = sorted({tracing.span_layer(n) for n in self.names})
        layer_of_name = np.array(
            [self.layers.index(tracing.span_layer(n)) for n in self.names],
            dtype=np.int64)
        self.layer = layer_of_name[self.nid]
        self.roots = np.nonzero(self.parent < 0)[0]

    def ids(self, pred) -> np.ndarray:
        return np.array([i for i, n in enumerate(self.names) if pred(n)],
                        dtype=np.int64)

    def count(self, pred, outermost: bool = False) -> int:
        """Spans whose name satisfies ``pred``; with ``outermost``, a span
        nested directly in another matching span (a ``super()`` call) is
        not counted again."""
        ids = self.ids(pred)
        if not len(ids):
            return 0
        hit = np.isin(self.nid, ids)
        if outermost:
            parent_hit = np.zeros_like(hit)
            has_parent = self.parent >= 0
            parent_hit[has_parent] = hit[self.parent[has_parent]]
            hit &= ~parent_hit
        return int(hit.sum())

    def total_s(self, pred) -> float:
        ids = self.ids(pred)
        if not len(ids):
            return 0.0
        return float(self.dur[np.isin(self.nid, ids)].sum()) / 1e9

    def layer_self_s(self, layer: str) -> float:
        if layer not in self.layers:
            return 0.0
        return float(self.self_ns[self.layer == self.layers.index(layer)].sum()) / 1e9

    def root_s(self, name: str = None) -> float:
        roots = [r for r in self.roots
                 if name is None or self.names[self.nid[r]] == name]
        return float(self.dur[roots].sum()) / 1e9


def _is_call(layer: str):
    """Predicate: a public-function span (not a callback) of ``layer``."""
    return lambda n: (not n.endswith(tracing.CALLBACK_SUFFIX)
                      and tracing.span_layer(n) == layer)


def _method(suffix: str, layers=None):
    def pred(n: str) -> bool:
        if n.endswith(tracing.CALLBACK_SUFFIX) or not n.endswith(suffix):
            return False
        return layers is None or tracing.span_layer(n) in layers
    return pred


def _drive_objects(result) -> Dict[str, float]:
    """Work counters the drive's own objects kept."""
    net = result.net
    medium = net.medium
    controllers = getattr(net, "controllers", None) or [net.controller]
    dedups = {id(c.dedup): c.dedup for c in controllers if hasattr(c, "dedup")}
    accepted = sum(d.accepted for d in dedups.values())
    seen = accepted + sum(d.duplicates for d in dedups.values())
    shards = medium.shard_stats() if hasattr(medium, "shard_stats") else {}
    return {
        "events": net.sim.events_fired,
        "transmissions": medium.data_transmissions + medium.response_transmissions,
        "aired": sum(getattr(ap, "downlink_delivered", 0) for ap in net.aps),
        "switches": result.trace.counters.get("ap_switch", 0),
        "dedup_ratio": _ratio(seen, accepted),
        "rebuckets": shards.get("rebuckets", 0),
        "occupied_shards": shards.get("occupied_shards", 0),
        "max_radios_per_shard": shards.get("max_radios_per_shard", 0),
    }


def layer_metrics(rec: tracing.SpanRecorder, unit, warm_results: List[Any],
                  sweep_workers: int) -> Dict[str, float]:
    """Every per-layer metric except ``trace.overhead_frac``.

    ``rec`` holds one traced pass: a ``unit`` root (the drive or the cold
    sweep) and one ``warm`` root per warm rerun in ``warm_results``.
    """
    sp = _Spans(rec)
    total_s = sp.root_s()
    m: Dict[str, float] = {}

    result = unit.ledger["result"]
    sweep = "queue" in unit.ledger
    if sweep:
        summaries = [s for s in result.summaries if s is not None]
        obj = {"events": sum(s.events_fired for s in summaries)}
        perf: Dict[str, int] = {}
    else:
        obj = _drive_objects(result)
        perf = unit.ledger["perf"]

    # --- sim: heap and dispatch only (callbacks are charged elsewhere).
    events = obj["events"]
    pushes = sp.count(lambda n: n in ("repro.sim.engine:Simulator.schedule",
                                      "repro.sim.engine:Simulator.schedule_at"))
    m["sim.events"] = events
    m["sim.heap_pushes_per_event"] = _ratio(pushes, events)

    # --- phy
    transmissions = obj.get("transmissions", 0)
    hits, misses = perf.get("link.memo_hits", 0), perf.get("link.memo_misses", 0)
    m["phy.calls"] = sp.count(_is_call("phy"))
    m["phy.tap_evals_per_frame"] = _ratio(perf.get("phy.tap_eval_points", 0),
                                          transmissions)
    m["phy.memo_hit_rate"] = _ratio(hits, hits + misses)
    m["phy.esnr_evals"] = (perf.get("esnr.invert_lut", 0)
                           + perf.get("esnr.invert_bisect", 0))

    # --- mac / city
    m["mac.transmissions"] = transmissions
    m["mac.receivers_per_frame"] = _ratio(
        sp.count(_method(".on_frame", ("mac", "core")), outermost=True),
        transmissions)
    m["city.rebuckets"] = obj.get("rebuckets", 0)
    m["city.occupied_shards"] = obj.get("occupied_shards", 0)
    m["city.max_radios_per_shard"] = obj.get("max_radios_per_shard", 0)

    # --- net / core: the downlink fan-out
    downlink = sp.count(_method(".server_send", ("experiments", "city")))
    sends = sp.count(_method(":Backhaul.send", ("net",)))
    copies = sp.count(_method(".handle_downlink_data", ("core",)), outermost=True)
    m["net.sends"] = sends
    m["net.sends_per_downlink_pkt"] = _ratio(sends, downlink)
    m["core.ap_copies_per_downlink_pkt"] = _ratio(copies, downlink)
    m["core.aired_per_copy"] = _ratio(obj.get("aired", 0), copies)
    m["core.switches"] = obj.get("switches", 0)
    m["core.uplink_dedup_ratio"] = obj.get("dedup_ratio", 0.0)

    m["transport.calls"] = sp.count(_is_call("transport"))

    for layer in ("sim", "phy", "mac", "city", "net", "core", "transport"):
        m[f"{layer}.self_s"] = sp.layer_self_s(layer)
    for layer in ("sim", "phy", "mac", "net", "core"):
        m[f"{layer}.self_share"] = _ratio(m[f"{layer}.self_s"], total_s)

    # --- experiments: set-up split into network build and fleet set-up
    build_s = sp.total_s(lambda n: n.endswith(_BUILDERS))
    m["experiments.build_s"] = build_s
    t_first = unit.ledger.get("t_first_event")
    m["experiments.fleet_setup_s"] = (
        max(t_first - unit.ledger["t_entry"] - build_s, 0.0)
        if t_first is not None else 0.0)

    # --- orchestration
    idle_s = sp.total_s(lambda n: tracing.span_layer(n) == tracing.IDLE_LAYER)
    if sweep:
        job_wall = sum(s.wall_clock_s for s in summaries)
        m["orchestration.overhead_frac"] = 1.0 - _ratio(
            job_wall, sweep_workers * unit.ledger["raw"]["wall_s"])
        cold_s = sp.root_s("unit")
        m["orchestration.coordinator_busy_s"] = cold_s - idle_s
        m["orchestration.coordinator_idle_s"] = idle_s
        m["orchestration.requeues"] = unit.ledger["queue"].status()["requeued"]
        m["orchestration.retries"] = result.stats.retries
    else:
        m["orchestration.overhead_frac"] = 0.0
        m["orchestration.coordinator_busy_s"] = 0.0
        m["orchestration.coordinator_idle_s"] = 0.0
        m["orchestration.requeues"] = 0
        m["orchestration.retries"] = 0
    m["orchestration.cache_get_s"] = sp.total_s(_method(":ResultCache.get"))
    m["orchestration.store_append_s"] = sp.total_s(
        lambda n: n.endswith((":ColumnarStore.append", ":ColumnarStore.flush")))
    m["orchestration.snapshot_writes"] = sp.count(
        _method(":SweepAggregator.write_snapshot"))
    warm_jobs = sum(len(r.jobs) for r in warm_results)
    m["orchestration.warm_hit_rate"] = _ratio(
        sum(r.stats.cached for r in warm_results), warm_jobs)
    return m
