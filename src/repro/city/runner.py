"""Run a city drive: a vehicle fleet over the road grid.

Mirrors :func:`repro.experiments.runners.run_single_drive` but drives
``CityConfig.n_vehicles`` clients at once and aggregates fleet metrics
(total and per-segment throughput) into the ``extras`` of a standard
:class:`~repro.experiments.runners.DriveResult`, so summaries, caching,
and the CLI reuse the single-road plumbing unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..experiments.metrics import ServingTimeline, mean_throughput_mbps
from ..experiments.runners import (
    DriveResult,
    _alloc_flow_id,
    tcp_deliveries,
    udp_deliveries,
)
from ..perf import PERF
from ..transport.tcp import TcpReceiver, TcpSender
from ..transport.udp import UdpReceiver, UdpSender
from .builder import CityNetwork, CityVehicle, build_city_network

__all__ = ["run_city_drive", "attach_city_flow"]

#: Flow starts are staggered so CBR senders do not fire in lockstep.
#: The whole fleet is on the air within TRAFFIC_SPAN_S regardless of
#: size -- a fixed per-flow stagger would leave a 192-vehicle fleet
#: still ramping half a simulated second in.
TRAFFIC_START_S = 0.050
TRAFFIC_STAGGER_S = 0.003
TRAFFIC_SPAN_S = 0.120


def attach_city_flow(
    net: CityNetwork,
    vehicle: CityVehicle,
    traffic: str,
    udp_rate_mbps: float,
):
    """One flow for ``vehicle``; returns (sender, deliveries_fn).

    ``traffic`` is ``"udp"`` / ``"tcp"`` (downlink, the paper's iperf3
    download) or ``"udp-up"`` (client -> server CBR, the uplink-diversity
    workload: every in-range AP overhears and tunnels the frames up).
    """
    client = vehicle.client
    flow_id = _alloc_flow_id()
    if traffic == "udp-up":
        receiver = UdpReceiver(net.sim, flow_id, trace=net.trace)
        net.register_uplink_handler(
            flow_id, net.deliver_to_server(receiver.on_packet)
        )
        sender = UdpSender(
            net.sim, client.uplink_send, src=client.node_id,
            dst=net.server_id, flow_id=flow_id, rate_mbps=udp_rate_mbps,
        )
        return sender, lambda: udp_deliveries(receiver, sender.packet_bytes)
    if traffic == "udp":
        receiver = UdpReceiver(net.sim, flow_id, trace=net.trace)
        client.register_flow(flow_id, receiver.on_packet)
        sender = UdpSender(
            net.sim, net.server_send, src=net.server_id, dst=client.node_id,
            flow_id=flow_id, rate_mbps=udp_rate_mbps,
        )
        return sender, lambda: udp_deliveries(receiver, sender.packet_bytes)
    if traffic == "tcp":
        sender = TcpSender(
            net.sim, net.server_send, src=net.server_id, dst=client.node_id,
            flow_id=flow_id, trace=net.trace,
        )
        receiver = TcpReceiver(
            net.sim, client.uplink_send, src=client.node_id, dst=net.server_id,
            flow_id=flow_id, trace=net.trace,
        )
        client.register_flow(flow_id, receiver.on_packet)
        net.register_uplink_handler(
            flow_id, net.deliver_to_server(sender.on_packet)
        )
        return sender, lambda: tcp_deliveries(receiver)
    raise ValueError(f"unknown traffic type {traffic!r}")


def run_city_drive(
    config,
    traffic: str = "udp",
    udp_rate_mbps: float = 20.0,
    duration_s: Optional[float] = None,
    warmup_s: float = 0.5,
) -> DriveResult:
    """Drive the whole fleet; ``config`` is an ExperimentConfig with
    ``city`` set."""
    net = build_city_network(config)
    city = config.city
    if duration_s is None:
        duration_s = 10.0

    # Routes must outlast the drive so nobody parks mid-measurement.
    fleet: List[CityVehicle] = []
    for _ in range(city.n_vehicles):
        plan = net.plan_vehicle_route(min_duration_s=duration_s * 1.25 + 2.0)
        fleet.append(net.add_vehicle(plan))

    flows = []
    stagger_s = min(TRAFFIC_STAGGER_S, TRAFFIC_SPAN_S / len(fleet))
    for i, vehicle in enumerate(fleet):
        sender, deliveries_fn = attach_city_flow(
            net, vehicle, traffic, udp_rate_mbps
        )
        start_at = TRAFFIC_START_S + i * stagger_s
        net.sim.schedule(start_at, sender.start)
        flows.append((vehicle, deliveries_fn))

    with PERF.timer("city.run"):
        net.run(until=duration_s)
    PERF.count("city.events", net.sim.events_fired)

    t0 = TRAFFIC_START_S + warmup_s
    t1 = duration_s
    all_deliveries: List[Tuple[float, int]] = []
    per_vehicle_mbps: List[float] = []
    segment_bytes: Dict[int, int] = {}
    for vehicle, deliveries_fn in flows:
        deliveries = deliveries_fn()
        per_vehicle_mbps.append(mean_throughput_mbps(deliveries, t0, t1))
        all_deliveries.extend(deliveries)
        for t, n_bytes in deliveries:
            if t0 <= t <= t1:
                seg = vehicle.plan.segment_at(t)
                segment_bytes[seg] = segment_bytes.get(seg, 0) + n_bytes
    all_deliveries.sort(key=lambda d: d[0])
    window = max(t1 - t0, 1e-9)
    per_segment_mbps = {
        seg: n_bytes * 8 / 1e6 / window
        for seg, n_bytes in sorted(segment_bytes.items())
    }

    client0 = fleet[0].client
    extras = {
        "n_vehicles": len(fleet),
        "n_segments": net.grid.n_segments,
        "n_aps": net.n_aps,
        "per_vehicle_mbps": per_vehicle_mbps,
        "per_segment_mbps": per_segment_mbps,
        "fleet_mbps": float(sum(per_vehicle_mbps)),
    }
    extras["shard_stats"] = net.medium.shard_stats()
    return DriveResult(
        net=net,
        client=client0,
        duration_s=duration_s,
        measure_t0=t0,
        measure_t1=t1,
        deliveries=all_deliveries,
        throughput_mbps=float(sum(per_vehicle_mbps)),
        timeline=ServingTimeline.from_trace(net.trace, client0.node_id),
        sender=None,
        receiver=None,
        extras=extras,
    )
