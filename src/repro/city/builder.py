"""City network builder: per-segment controller shards over one backhaul.

:class:`CityNetwork` mirrors :class:`repro.experiments.builder.Network`
but scales its construction to a road grid:

* every :class:`~repro.city.grid.RoadSegment` gets its own AP array
  (colour-assigned channel) and its own :class:`SegmentController` --
  the existing WGTT controller, unchanged except for an election window
  gate -- so CSI load, candidate sets, and the switch protocol stay
  segment-local;
* all controllers share one uplink :class:`~repro.core.dedup.Deduplicator`
  (two segments' APs can both decode a frame near an intersection);
* links are constructed only for (AP, vehicle) pairs the
  :class:`~repro.city.spatial.SpatialIndex` reports within
  ``link_range_m`` of the vehicle's route, replacing the all-pairs
  matrix;
* the :class:`~repro.mac.medium.Medium` buckets the collision domain
  per (channel, ``cell_m`` cell);
* at every leg boundary the vehicle is handed between segments: the old
  controller releases it, its APs are flushed (twice -- a resweep
  catches a switch handshake that was in flight at the boundary), and
  the client radio retunes to the new segment's channel.

Downlink server traffic is routed per packet to the controller of the
segment the vehicle is on at send time.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.ap import ApParams, WgttAp
from ..core.association import pre_associate
from ..core.client import ClientParams, MobileClient
from ..core.controller import WgttController
from ..core.cyclic_queue import INDEX_MODULO
from ..core.dedup import Deduplicator
from ..core.messages import FlushClient
from ..invariants import InvariantSuite
from ..mac.medium import Medium
from ..net.addressing import NodeIdAllocator
from ..net.ethernet import Backhaul
from ..net.packet import Packet
from ..phy.antenna import ParabolicAntenna
from ..phy.channel import Link
from ..policies import PolicyContext, create_policy
from ..sim.engine import Simulator
from ..sim.trace import TraceRecorder
from .grid import RoadGrid, RoadSegment
from .mobility import VehiclePlan, random_route
from .spatial import SpatialIndex

__all__ = [
    "CityNetwork",
    "CityNodeIdAllocator",
    "CityVehicle",
    "SegmentController",
    "build_city_network",
]

#: Elections stop this long before a vehicle leaves a segment, so no
#: switch handshake is in flight when the boundary flush lands.
ELECTION_GUARD_S = 0.1
#: Second FlushClient sweep this long after a leg transition.
FLUSH_RESWEEP_S = 0.05
#: Route sampling step for the spatial link query.
ROUTE_SAMPLE_STEP_M = 10.0


class CityNodeIdAllocator(NodeIdAllocator):
    """Wider id ranges: a city has hundreds of APs and vehicles.

    All ranges stay within the /16 that :func:`format_ip` can render.
    """

    _RANGES = {"infra": (1, 999), "ap": (1000, 9999), "client": (10000, 19999)}


class SegmentController(WgttController):
    """A WGTT controller owning one road segment's AP array.

    Identical to the single-road controller except that elections for a
    client are gated to the time windows in which its route actually
    traverses this segment: a distant same-channel AP that fluke-decodes
    a probe cannot trigger a competing election.  ``epoch`` is the
    segment index so the index-monotonicity invariant keys each
    segment's independent 12-bit sequence separately.
    """

    def __init__(self, *args, segment_index: int = 0, **kwargs):
        super().__init__(*args, **kwargs)
        self.segment_index = segment_index
        self.epoch = segment_index
        #: client -> [(t0, t1)] election windows (unsorted; short lists).
        self._windows: Dict[int, List[Tuple[float, float]]] = {}
        #: (client, ap) -> downlink_packets count at the last feed.
        self._last_fed: Dict[Tuple[int, int], int] = {}

    def add_client_window(self, client: int, t0: float, t1: float) -> None:
        self._windows.setdefault(client, []).append((t0, t1))

    def _client_in_window(self, client: int, t: float) -> bool:
        windows = self._windows.get(client)
        if windows is None:
            return True  # un-windowed clients behave like the base class
        return any(t0 <= t < t1 for t0, t1 in windows)

    def _evaluate(self, client, state, t: float) -> None:
        if not self._client_in_window(client, t):
            return
        super()._evaluate(client, state, t)

    def _pre_feed(self, client, state, ap_id: int) -> None:
        # On a grid, a route can swing back into an AP's coverage long
        # after its last feed.  Once the gap reaches half the 12-bit
        # index space, old ring entries alias into the live window that
        # a future start(c, k) would serve -- flush before the first
        # fresh insert (FIFO backhaul orders the flush ahead of it).
        seqno = state.downlink_packets
        last = self._last_fed.get((client, ap_id))
        if last is not None and seqno - last >= INDEX_MODULO // 2:
            self._send(ap_id, FlushClient(client=client))
        self._last_fed[(client, ap_id)] = seqno

    def _begin_switch(self, client, state, old_ap, new_ap, t, attempt=0):
        if old_ap is None and attempt == 0:
            # Bootstrap election with no stop/start index handover.  On a
            # grid, routes revisit segments (U-turns, loops): the target
            # AP's ring may still hold packets multicast during an earlier
            # pass, and a bare start(c, k) would replay them.  Flush first
            # -- the backhaul is FIFO per (controller, AP) pair, so the
            # flush always lands before the start.
            self._send(new_ap, FlushClient(client=client))
        super()._begin_switch(
            client, state, old_ap=old_ap, new_ap=new_ap, t=t, attempt=attempt
        )

    def release_client(self, client: int) -> None:
        """Forget the serving relationship (leg handoff; AP-side state is
        cleared separately via FlushClient)."""
        state = self.clients.get(client)
        if state is None:
            return
        if state.switching is not None:
            timer = state.switching[3]
            if timer is not None:
                timer.cancel()
            state.switching = None
        state.serving_ap = None


class CityVehicle:
    """One client driving a planned route."""

    def __init__(self, seq: int, client: MobileClient, plan: VehiclePlan,
                 linked_ap_ids: List[int]):
        self.seq = seq
        self.client = client
        self.plan = plan
        self.linked_ap_ids = linked_ap_ids

    @property
    def node_id(self) -> int:
        return self.client.node_id


class CityNetwork:
    """A built city-scale testbed instance."""

    def __init__(self, config):
        # ``config`` is an ExperimentConfig whose ``city`` field is set
        # (typed loosely to avoid an import cycle with experiments.builder).
        if config.city is None:
            raise ValueError("CityNetwork needs ExperimentConfig.city")
        if config.mode != "wgtt":
            raise ValueError("city drives support wgtt mode only")
        self.config = config
        city = config.city
        self.city_config = city
        self.grid = RoadGrid(city)
        self.sim = Simulator()
        self.rng = np.random.default_rng(config.seed)
        self.trace = TraceRecorder(keep_kinds=config.trace_kinds,
                                   max_records=config.trace_max_records)
        self.medium = Medium(
            self.sim, np.random.default_rng([config.seed, 1]),
            trace=self.trace, params=config.medium_params,
            cell_m=city.cell_m,
        )
        self.backhaul = Backhaul(
            self.sim, np.random.default_rng([config.seed, 2]),
            params=config.backhaul_params,
        )
        self.ids = CityNodeIdAllocator()
        self.server_id = self.ids.allocate("infra")
        self.bssid = self.ids.allocate("infra")  # one BSSID city-wide

        # One controller shard per segment, sharing an uplink dedup
        # window (near intersections, APs of two segments can decode the
        # same client frame and both tunnel it up).
        self._shared_dedup = Deduplicator(capacity=65536)
        self.controllers: List[SegmentController] = []
        policy_factory = None
        if config.policy is not None:
            spec = config.policy
            policy_factory = lambda: create_policy(spec)  # noqa: E731
        ap_params = config.ap_params or ApParams()
        self.aps: List[WgttAp] = []
        self.ap_positions: List[Tuple[float, float, float]] = []
        #: Per segment, the node ids of its APs (flush targets).
        self.segment_ap_ids: List[List[int]] = []
        self._ap_index: SpatialIndex[int] = SpatialIndex(city.cell_m)

        for seg in self.grid.segments:
            controller_id = self.ids.allocate("infra")
            controller = SegmentController(
                self.sim, self.backhaul, controller_id,
                np.random.default_rng([config.seed, 3000 + seg.index]),
                trace=self.trace, params=config.controller_params,
                policy_factory=policy_factory,
                segment_index=seg.index,
            )
            controller.dedup = self._shared_dedup
            self.controllers.append(controller)
            self.segment_ap_ids.append([])
            self._build_segment_aps(seg, controller, ap_params)

        self.clients: List[MobileClient] = []
        self.vehicles: List[CityVehicle] = []
        self._vehicle_by_node: Dict[int, CityVehicle] = {}
        self._client_seq = 0

        self.invariants: Optional[InvariantSuite] = None
        if config.check_invariants:
            self.invariants = InvariantSuite()
            self.invariants.attach(*self.controllers, *self.aps)

    # ------------------------------------------------------------- infra
    def _build_segment_aps(self, seg: RoadSegment,
                           controller: SegmentController,
                           ap_params: ApParams) -> None:
        city = self.config.city
        for i in range(city.aps_per_segment):
            position = self.grid.ap_position(seg, i)
            antenna = ParabolicAntenna.aimed_at(
                position, self.grid.ap_aim_point(seg, i)
            )
            node_id = self.ids.allocate("ap")
            ap_index = len(self.aps)
            ap = WgttAp(
                self.sim, self.medium, self.backhaul, node_id,
                controller.node_id, position, antenna,
                np.random.default_rng([self.config.seed, 4_000_000 + ap_index]),
                trace=self.trace, bssid=self.bssid, params=ap_params,
            )
            self.medium.retune(ap.radio, seg.channel)
            # City APs drop (rather than re-queue) aggregates that were
            # on the air when a flush ran: at fleet scale a post-flush
            # retry chain delivers frames deep out of order.
            ap.radio.strict_flush = True
            self.aps.append(ap)
            self.ap_positions.append(position)
            self.segment_ap_ids[seg.index].append(node_id)
            self._ap_index.insert(ap_index, position[0], position[1])
            controller.add_ap(node_id)

    @property
    def n_aps(self) -> int:
        return len(self.aps)

    # ----------------------------------------------------------- vehicles
    def plan_vehicle_route(self, min_duration_s: float) -> VehiclePlan:
        """A seeded random route for the next vehicle (one RNG stream per
        vehicle, so fleets are reproducible and order-independent)."""
        seq = self._client_seq + 1  # the seq add_vehicle will assign
        route_rng = np.random.default_rng([self.config.seed, 7_000_000 + seq])
        city = self.config.city
        from ..mobility.trajectory import mph_to_mps

        speed = mph_to_mps(city.speed_mph)
        route = random_route(
            self.grid, route_rng, min_duration_s=min_duration_s,
            speed_mps=speed,
        )
        return VehiclePlan(self.grid, route, speed)

    def _route_samples(self, plan: VehiclePlan) -> List[Tuple[float, float]]:
        """Points every ~10 m along the route (plus every waypoint)."""
        points: List[Tuple[float, float]] = []
        waypoints = plan.trajectory.waypoints
        for a, b in zip(waypoints, waypoints[1:]):
            points.append((a[0], a[1]))
            dx, dy = b[0] - a[0], b[1] - a[1]
            length = (dx * dx + dy * dy) ** 0.5
            steps = int(length // ROUTE_SAMPLE_STEP_M)
            for s in range(1, steps + 1):
                frac = s * ROUTE_SAMPLE_STEP_M / length
                points.append((a[0] + dx * frac, a[1] + dy * frac))
        points.append((waypoints[-1][0], waypoints[-1][1]))
        return points

    def add_vehicle(self, plan: VehiclePlan,
                    params: Optional[ClientParams] = None) -> CityVehicle:
        """Create a client on ``plan`` with spatially-gated links."""
        config = self.config
        city = config.city
        self._client_seq += 1
        seq = self._client_seq
        node_id = self.ids.allocate("client")
        client_params = params or config.client_params or ClientParams()
        client = MobileClient(
            self.sim, self.medium, node_id, plan.trajectory,
            np.random.default_rng([config.seed, 6_000_000 + seq]),
            trace=self.trace, params=client_params,
        )
        self.medium.retune(client.radio, plan.legs[0].channel)

        # Links only to APs the route ever brings within link_range_m.
        ap_indices = self._ap_index.query_path(
            self._route_samples(plan), city.link_range_m
        )
        linked_aps = []
        for j, ap_index in enumerate(ap_indices):
            ap = self.aps[ap_index]
            link = Link(
                ap_position=self.ap_positions[ap_index],
                ap_antenna=ap.radio.antenna,
                client_position_fn=plan.trajectory.position,
                speed_mps=plan.trajectory.speed_mps,
                rng=np.random.default_rng(
                    [config.seed, 5_000_000 + 1000 * seq + j]
                ),
                params=config.radio_params,
            )
            self.medium.add_link(ap.node_id, node_id, link)
            linked_aps.append(ap)
        pre_associate(client, linked_aps, self.bssid)

        # Register the vehicle (with election windows) on the controller
        # of every segment its route traverses.
        for seg_index in plan.segments_visited():
            controller = self.controllers[seg_index]
            first_ap_id = CityNodeIdAllocator._RANGES["ap"][0]
            seg_ap_positions = {
                ap_id: self.ap_positions[ap_id - first_ap_id]
                for ap_id in self.segment_ap_ids[seg_index]
            }
            context = PolicyContext(
                ap_positions=seg_ap_positions,
                position_fn=plan.trajectory.position,
                speed_mps=plan.trajectory.speed_mps,
                heading_sign=1.0,
            )
            controller.add_client(node_id, context=context)
        for leg in plan.legs:
            guard_end = max(leg.t_enter, leg.t_exit - ELECTION_GUARD_S)
            self.controllers[leg.segment].add_client_window(
                node_id, leg.t_enter, guard_end
            )

        # Leg-boundary handoffs.
        for k in range(1, len(plan.legs)):
            if plan.legs[k].segment == plan.legs[k - 1].segment:
                continue  # U-turn back onto the same array: nothing changes
            vehicle_ref = node_id
            self.sim.schedule_at(
                plan.legs[k].t_enter, self._leg_transition, vehicle_ref, k
            )
            self.sim.schedule_at(
                plan.legs[k].t_enter + FLUSH_RESWEEP_S,
                self._flush_old_segment, vehicle_ref, k,
            )

        vehicle = CityVehicle(seq, client, plan, [ap.node_id for ap in linked_aps])
        if self.invariants is not None:
            self.invariants.attach(client)
        self.clients.append(client)
        self.vehicles.append(vehicle)
        self._vehicle_by_node[node_id] = vehicle
        return vehicle

    def _ap_by_id(self, ap_id: int) -> WgttAp:
        # node ids are allocated densely from 1000 in self.aps order.
        return self.aps[ap_id - CityNodeIdAllocator._RANGES["ap"][0]]

    # ---------------------------------------------------------- handoffs
    def _leg_transition(self, node_id: int, k: int) -> None:
        vehicle = self._vehicle_by_node[node_id]
        old_leg = vehicle.plan.legs[k - 1]
        new_leg = vehicle.plan.legs[k]
        self._release_from_segment(vehicle, old_leg.segment)
        self.medium.retune(vehicle.client.radio, new_leg.channel)
        self.trace.emit(
            self.sim.now, "leg_transition", client=node_id,
            old_segment=old_leg.segment, new_segment=new_leg.segment,
            channel=new_leg.channel,
        )

    def _flush_old_segment(self, node_id: int, k: int) -> None:
        """Resweep: a switch handshake in flight at the boundary can set
        serving=True on an old-segment AP *after* the first flush."""
        vehicle = self._vehicle_by_node[node_id]
        self._release_from_segment(vehicle, vehicle.plan.legs[k - 1].segment)

    def _release_from_segment(self, vehicle: CityVehicle, seg_index: int) -> None:
        controller = self.controllers[seg_index]
        controller.release_client(vehicle.node_id)
        for ap_id in self.segment_ap_ids[seg_index]:
            controller._send(ap_id, FlushClient(client=vehicle.node_id))

    # ------------------------------------------------------------- server
    def _downlink_entry(self, packet: Packet) -> None:
        vehicle = self._vehicle_by_node.get(packet.dst)
        if vehicle is None:
            return
        leg = vehicle.plan.leg_at(self.sim.now)
        self.controllers[leg.segment].send_downlink(packet)

    def server_send(self, packet: Packet) -> None:
        """Downlink entry: server -> the active segment's controller."""
        self.sim.schedule(
            self.config.server_latency_s, self._downlink_entry, packet
        )

    def deliver_to_server(self, handler: Callable[[Packet, float], None]):
        """Wrap an uplink handler with the server-side latency."""

        def delayed(packet: Packet, _t: float) -> None:
            self.sim.schedule(
                self.config.server_latency_s,
                lambda: handler(packet, self.sim.now),
            )

        return delayed

    def register_uplink_handler(self, flow_id: int, handler) -> None:
        """Uplink flows terminate at whichever segment decodes them."""
        for controller in self.controllers:
            controller.register_uplink_handler(flow_id, handler)

    # ------------------------------------------------------------ queries
    def serving_ap(self, node_id: int) -> Optional[int]:
        for controller in self.controllers:
            state = controller.clients.get(node_id)
            if state is not None and state.serving_ap is not None:
                return state.serving_ap
        return None

    def resilience_counters(self) -> Dict[str, int]:
        """Invariant/handoff bookkeeping for ``DriveSummary.resilience``."""
        if self.invariants is None:
            return {}
        out: Dict[str, int] = {
            "client_flushes": sum(
                getattr(ap, "flushes_applied", 0) for ap in self.aps
            ),
        }
        out.update(self.invariants.counters())
        return out

    def run(self, until: float) -> None:
        self.sim.run(until=until)


def build_city_network(config) -> CityNetwork:
    """Build a city network from an ExperimentConfig with ``city`` set."""
    return CityNetwork(config)
