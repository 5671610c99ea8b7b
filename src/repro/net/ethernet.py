"""Ethernet backhaul connecting the controller and the APs.

The testbed wires every AP and the controller into one switched gigabit
LAN.  We model it as a star: each endpoint registers with the
:class:`Backhaul`, and `send` delivers a packet to the destination after
propagation + serialization + a small forwarding jitter.  Control packets
can additionally be dropped with a configurable probability -- the paper's
switching protocol carries a 30 ms retransmission timeout precisely
because stop/start/ack packets may be lost.

`multicast` is the controller's downlink fan-out: every (controller, AP)
hop is adjudicated exactly like a tunneled `send`, but the APs share the
one packet object and each is handed its own arrival time, so an AP that
only buffers the packet costs no event of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional

import numpy as np

from ..sim.engine import Simulator
from .packet import TUNNEL_HEADER_BYTES, Packet

__all__ = ["Backhaul", "BackhaulEndpoint", "BackhaulParams", "DownlinkSink"]

#: Receiver callback signature: (packet, src_node_id).
BackhaulEndpoint = Callable[[Packet, int], None]
#: Multicast receiver signature: (shared packet, src_node_id, arrival time).
#: Called at send time; the receiver decides whether the arrival needs an
#: event of its own.
DownlinkSink = Callable[[Packet, int, float], None]


@dataclass
class BackhaulParams:
    """Latency/loss model of the switched LAN.

    ``base_latency_s`` covers propagation plus kernel/Click forwarding on
    both ends; ``jitter_s`` is a uniform spread on top.  ``bandwidth_bps``
    adds per-byte serialization (gigabit by default, so ~12 us per 1500 B
    frame).  ``loss_probability`` applies to every backhaul packet.
    ``link_jitter_s`` adds a *persistent* per-(src, dst) latency offset
    drawn once per pair in ``[0, link_jitter_s]`` -- unequal cable runs
    and switch paths; the draw is seeded, so delivery order is
    deterministic for a fixed seed.
    """

    base_latency_s: float = 300e-6
    jitter_s: float = 100e-6
    bandwidth_bps: float = 1e9
    loss_probability: float = 0.0
    link_jitter_s: float = 0.0


class Backhaul:
    """Star-topology wired network between controller and APs."""

    def __init__(
        self,
        sim: Simulator,
        rng: np.random.Generator,
        params: Optional[BackhaulParams] = None,
    ):
        self.sim = sim
        self.rng = rng
        self.params = params or BackhaulParams()
        self._endpoints: Dict[int, BackhaulEndpoint] = {}
        #: Endpoints that take multicast packets with their arrival time
        #: (see :meth:`multicast`); the rest get a plain delivery event.
        self._downlink_sinks: Dict[int, DownlinkSink] = {}
        #: Last scheduled delivery time per (src, dst): switched Ethernet
        #: never reorders frames within one flow, so jittered latencies are
        #: clamped to be monotone per pair.
        self._last_delivery: Dict[tuple, float] = {}
        #: Persistent per-pair latency offset (lazily drawn; see
        #: ``BackhaulParams.link_jitter_s``).
        self._pair_offset: Dict[tuple, float] = {}
        #: Optional fault overlay (see :mod:`repro.faults.overlay`).  While
        #: attached, sends to dead/unregistered nodes become traced drops.
        self.fault_overlay = None
        self.packets_sent = 0
        self.packets_lost = 0
        self.fault_dropped = 0
        self.bytes_sent = 0

    def register(
        self,
        node_id: int,
        receive: BackhaulEndpoint,
        downlink: Optional[DownlinkSink] = None,
    ) -> None:
        """Attach an endpoint; ``receive(packet, src)`` is called on delivery.

        ``downlink``, when given, takes this node's :meth:`multicast`
        packets instead: it is called at send time with the arrival time.
        """
        if node_id in self._endpoints:
            raise ValueError(f"node {node_id} already registered on backhaul")
        self._endpoints[node_id] = receive
        if downlink is not None:
            self._downlink_sinks[node_id] = downlink

    def is_registered(self, node_id: int) -> bool:
        return node_id in self._endpoints

    def attach_fault_overlay(self, overlay) -> None:
        """Install a fault overlay; every subsequent send consults it."""
        self.fault_overlay = overlay

    def _link_offset(self, src: int, dst: int) -> float:
        """The pair's persistent latency offset (0 when the knob is off)."""
        if self.params.link_jitter_s <= 0.0:
            return 0.0
        key = (src, dst)
        offset = self._pair_offset.get(key)
        if offset is None:
            # rng.random() * x draws the same stream and values as
            # rng.uniform(0.0, x) (NumPy computes 0.0 + x * u) at a
            # quarter of the call cost.
            offset = self.rng.random() * self.params.link_jitter_s
            self._pair_offset[key] = offset
        return offset

    def send(self, src: int, dst: int, packet: Packet) -> None:
        """Queue ``packet`` from ``src`` to ``dst`` across the LAN.

        Unknown destinations raise immediately: backhaul membership is
        static in the testbed, so a miss is a wiring bug, not packet loss.
        Under an attached fault overlay the contract softens -- sends to
        dead or unregistered nodes become traced drops, because
        infrastructure failure is exactly what is being injected.
        """
        deliver_at = self._hop(src, dst, packet, packet.size_bytes)
        if deliver_at is not None:
            self.sim.schedule_at(deliver_at, self._endpoints[dst], packet, src)

    def multicast(self, src: int, targets: Iterable[int], packet: Packet) -> None:
        """Tunnel one packet from ``src`` to every node in ``targets``.

        Each hop is adjudicated exactly as :meth:`send` adjudicates a
        tunneled copy, in ``targets`` order: the same RNG draws, fault
        verdict, loss, per-pair FIFO clamp and byte accounting (tunnel
        header included).  No copy is made: a node registered with a
        ``downlink`` sink is handed the shared packet and its arrival time
        now; any other node gets a delivery event at that time.
        """
        size_bytes = packet.size_bytes + TUNNEL_HEADER_BYTES
        sinks = self._downlink_sinks
        for dst in targets:
            deliver_at = self._hop(src, dst, packet, size_bytes)
            if deliver_at is None:
                continue
            sink = sinks.get(dst)
            if sink is None:
                self.sim.schedule_at(deliver_at, self._endpoints[dst], packet, src)
            else:
                sink(packet, src, deliver_at)

    def _hop(self, src: int, dst: int, packet: Packet,
             size_bytes: int) -> Optional[float]:
        """Adjudicate one ``src`` -> ``dst`` hop of ``size_bytes`` on the
        wire: the delivery time, or None when the packet is lost."""
        endpoints = self._endpoints
        overlay = self.fault_overlay
        if overlay is None and dst not in endpoints:
            raise KeyError(f"node {dst} is not on the backhaul")
        params = self.params
        self.packets_sent += 1
        self.bytes_sent += size_bytes
        fault_latency = 0.0
        if overlay is not None:
            verdict = overlay.on_send(
                src, dst, packet, self.sim.now,
                dst_registered=dst in endpoints,
            )
            if verdict.drop:
                self.packets_lost += 1
                self.fault_dropped += 1
                return None
            fault_latency = verdict.extra_latency_s
        if params.loss_probability > 0.0 and (
            self.rng.random() < params.loss_probability
        ):
            self.packets_lost += 1
            return None
        if params.link_jitter_s <= 0.0:
            link_offset = 0.0  # inline of _link_offset's knob-off branch
        else:
            link_offset = self._link_offset(src, dst)
        latency = (
            params.base_latency_s
            + self.rng.random() * params.jitter_s
            + link_offset
            + fault_latency
            + size_bytes * 8.0 / params.bandwidth_bps
        )
        deliver_at = self.sim.now + latency
        key = (src, dst)
        last_delivery = self._last_delivery
        previous = last_delivery.get(key, -1.0)
        if deliver_at <= previous:
            deliver_at = previous + 1e-9  # FIFO per pair: no reordering
        last_delivery[key] = deliver_at
        return deliver_at

    def broadcast(self, src: int, packet_factory: Callable[[], Packet]) -> None:
        """Send a fresh copy of a packet to every other endpoint.

        ``packet_factory`` is invoked per destination so each copy is an
        independent object (association-state sync uses this).
        """
        for node_id in list(self._endpoints):
            if node_id != src:
                self.send(src, node_id, packet_factory())
