"""Network builder: assemble a full testbed (APs, controller, clients).

One call to :func:`build_network` reproduces the deployment of Fig. 9 --
eight roadside APs with parabolic antennas on a shared Ethernet backhaul,
a controller, and any number of vehicular clients -- in either WGTT or
Enhanced-802.11r mode.  Both modes share every substrate (PHY, MAC,
queues, transport); only the control plane differs, so measured deltas
isolate the paper's contribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

import numpy as np

from ..core.ap import ApParams, WgttAp
from ..core.association import pre_associate
from ..core.baseline import (
    BaselineAp,
    BaselineController,
    BaselinePolicyParams,
    Enhanced80211rPolicy,
    baseline_ap_params,
)
from ..core.client import ClientParams, MobileClient
from ..core.controller import ControllerParams, WgttController
from ..core.ha import ControllerCluster, HaParams, StandbyController, coerce_ha
from ..faults import FaultInjector, FaultScenario, coerce_scenario
from ..invariants import InvariantSuite
from ..mac.medium import Medium, MediumParams
from ..mobility.trajectory import RoadLayout, Trajectory
from ..net.addressing import NodeIdAllocator
from ..net.ethernet import Backhaul, BackhaulParams
from ..net.packet import Packet
from ..phy.antenna import ParabolicAntenna
from ..phy.channel import Link, RadioParams
from ..policies import (
    PolicyContext,
    PolicySpec,
    coerce_policy,
    create_policy,
    policy_class,
)
from ..sim.engine import Simulator
from ..sim.trace import TraceRecorder

__all__ = ["ExperimentConfig", "Network", "build_network"]


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one experimental condition."""

    mode: str = "wgtt"  # "wgtt" | "baseline"
    road: RoadLayout = field(default_factory=RoadLayout)
    seed: int = 0
    radio_params: RadioParams = field(default_factory=RadioParams)
    ap_params: Optional[ApParams] = None
    controller_params: ControllerParams = field(default_factory=ControllerParams)
    policy_params: BaselinePolicyParams = field(default_factory=BaselinePolicyParams)
    medium_params: MediumParams = field(default_factory=MediumParams)
    backhaul_params: BackhaulParams = field(default_factory=BackhaulParams)
    client_params: Optional[ClientParams] = None
    #: One-way latency between the local content server and the controller.
    server_latency_s: float = 1e-3
    #: Trace kinds to retain in memory (None = keep everything).
    trace_kinds: Optional[set] = None
    #: Per-AP 2.4 GHz channel assignment (None = all on channel 11, the
    #: testbed setting).  The multi-channel discussion of paper section 7:
    #: clients stay tuned to channel 11, so APs on other channels cannot
    #: serve or overhear them.
    channel_plan: Optional[List[int]] = None
    #: Fault-injection scenario (a :class:`repro.faults.FaultScenario`, a
    #: dict, or its JSON string).  Strictly opt-in: None leaves every
    #: fault code path unreachable and runs bit-identical to before the
    #: fault subsystem existed.
    fault_scenario: Optional[FaultScenario] = None
    #: Cap on stored trace records (ring buffer; None = unbounded).
    trace_max_records: Optional[int] = None
    #: Handover policy for the WGTT controller (a
    #: :class:`repro.policies.PolicySpec`, a dict, a registry name, or
    #: its JSON string).  None runs the paper's default
    #: ``wgtt-max-median`` selection, bit-identical to before the policy
    #: framework existed.  Baseline mode has its own client-side roaming
    #: policy (``policy_params``) and rejects this knob.
    policy: Optional[PolicySpec] = None
    #: Controller high availability (a :class:`repro.core.ha.HaParams`, a
    #: dict, or ``True`` for the defaults).  Strictly opt-in: None builds
    #: no standby, starts no heartbeats, and leaves every HA code path
    #: unreachable, so default drives stay bit-identical to the golden
    #: digests.
    ha: Optional[HaParams] = None
    #: Arm the :class:`repro.invariants.InvariantSuite` runtime monitors
    #: (no-duplicate-delivery, bounded reordering, index monotonicity,
    #: single-serving-AP) on every built component.
    check_invariants: bool = False
    #: City-scale scenario (a :class:`repro.city.CityConfig`, a dict, or
    #: its JSON string).  Strictly opt-in: None builds the single-road
    #: testbed exactly as before; a value routes :func:`build_network`
    #: to :class:`repro.city.CityNetwork` (road grid, per-segment
    #: controllers, medium buckets per (channel, cell)).
    #: ``road``/``channel_plan`` are ignored in city mode (the grid
    #: supplies both).
    city: Optional[object] = None

    def __post_init__(self) -> None:
        if self.mode not in ("wgtt", "baseline"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.city is not None:
            # Imported lazily: repro.city depends on this module.
            from ..city.config import coerce_city

            self.city = coerce_city(self.city)
            if self.mode != "wgtt":
                raise ValueError("city drives support wgtt mode only")
            if self.fault_scenario is not None or self.ha is not None:
                raise ValueError(
                    "city drives do not support fault_scenario/ha yet"
                )
        if self.fault_scenario is not None:
            self.fault_scenario = coerce_scenario(self.fault_scenario)
        if self.policy is not None:
            self.policy = coerce_policy(self.policy)
            if self.mode != "wgtt":
                raise ValueError(
                    "policy applies to the WGTT controller only; baseline "
                    "mode roams client-side via policy_params"
                )
            policy_class(self.policy.name)  # fail fast on unknown names
        if self.ha is not None:
            self.ha = coerce_ha(self.ha)
            if self.ha is not None and self.mode != "wgtt":
                raise ValueError(
                    "ha applies to the WGTT controller only; the baseline "
                    "has no checkpoint/failover protocol to run"
                )


class Network:
    """A built testbed instance."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.sim = Simulator()
        self.rng = np.random.default_rng(config.seed)
        self.trace = TraceRecorder(keep_kinds=config.trace_kinds,
                                   max_records=config.trace_max_records)
        self.medium = Medium(
            self.sim, np.random.default_rng([config.seed, 1]),
            trace=self.trace, params=config.medium_params,
        )
        self.backhaul = Backhaul(
            self.sim, np.random.default_rng([config.seed, 2]),
            params=config.backhaul_params,
        )
        self.ids = NodeIdAllocator()
        self.controller_id = self.ids.allocate("infra")
        self.server_id = self.ids.allocate("infra")
        self.bssid = self.ids.allocate("infra")  # shared WGTT BSSID
        self.road = config.road
        self.aps: List = []
        self.clients: List[MobileClient] = []
        self._client_seq = 0

        if config.mode == "wgtt":
            controller_params = config.controller_params
            if (config.fault_scenario is not None
                    and controller_params.ap_liveness_timeout_s is None
                    and config.fault_scenario.liveness_timeout_s is not None):
                # Under fault injection the controller needs health
                # tracking to recover; an explicit ControllerParams
                # setting still wins.
                controller_params = replace(
                    controller_params,
                    ap_liveness_timeout_s=config.fault_scenario.liveness_timeout_s,
                )
            policy_factory = None
            if config.policy is not None:
                spec = config.policy
                policy_factory = lambda: create_policy(spec)  # noqa: E731
            self.controller = WgttController(
                self.sim, self.backhaul, self.controller_id,
                np.random.default_rng([config.seed, 3]),
                trace=self.trace, params=controller_params,
                policy_factory=policy_factory,
            )
            ap_params = config.ap_params or ApParams()
        else:
            self.controller = BaselineController(
                self.sim, self.backhaul, self.controller_id,
                np.random.default_rng([config.seed, 3]), trace=self.trace,
            )
            ap_params = config.ap_params or baseline_ap_params()

        ap_cls = WgttAp if config.mode == "wgtt" else BaselineAp
        for i in range(self.road.n_aps):
            position = self.road.ap_position(i)
            antenna = ParabolicAntenna.aimed_at(position, self.road.ap_aim_point(i))
            node_id = self.ids.allocate("ap")
            ap = ap_cls(
                self.sim, self.medium, self.backhaul, node_id,
                self.controller_id, position, antenna,
                np.random.default_rng([config.seed, 10 + i]),
                trace=self.trace,
                bssid=self.bssid if config.mode == "wgtt" else node_id,
                params=ap_params,
            )
            if config.channel_plan is not None:
                self.medium.retune(
                    ap.radio, config.channel_plan[i % len(config.channel_plan)]
                )
            self.aps.append(ap)
            if config.mode == "wgtt":
                self.controller.add_ap(node_id)

        # HA layer (strictly opt-in; armed before the fault injector so a
        # scheduled controller_crash finds the heartbeat machinery running).
        self.standby: Optional[StandbyController] = None
        self.cluster: Optional[ControllerCluster] = None
        #: Downlink entry point bound once at build time: the cluster (so
        #: server traffic follows a failover) or the plain controller.
        self._downlink_entry = self.controller.send_downlink
        if config.mode == "wgtt" and config.ha is not None:
            ha = config.ha
            standby_id = None
            if ha.standby:
                standby_id = self.ids.allocate("infra")
                self.standby = StandbyController(
                    self.sim, self.backhaul, standby_id,
                    np.random.default_rng([config.seed, 4]),
                    trace=self.trace, params=controller_params,
                    policy_factory=policy_factory,
                )
                for ap in self.aps:
                    self.standby.add_ap(ap.node_id)
                self.cluster = ControllerCluster(self.controller, self.standby)
                self._downlink_entry = self.cluster.send_downlink
            self.controller.enable_ha(ha, standby_id=standby_id)
            if self.standby is not None:
                self.standby.enable_ha(ha)
            for ap in self.aps:
                # The AP gates its degraded tick on ha.ap_degraded itself;
                # local ESNR windows are fed either way so post-failover
                # DegradedReports carry real signal quality.
                ap.enable_ha(ha)

        self.invariants: Optional[InvariantSuite] = None
        if config.check_invariants:
            self.invariants = InvariantSuite()
            self.invariants.attach(self.controller, self.standby, *self.aps)

        self.fault_injector: Optional[FaultInjector] = None
        if config.fault_scenario is not None:
            self.fault_injector = FaultInjector(self, config.fault_scenario)
            self.fault_injector.arm()

    # --------------------------------------------------------------- clients
    def add_client(
        self,
        trajectory: Trajectory,
        params: Optional[ClientParams] = None,
        pre_associated: Optional[bool] = None,
    ) -> MobileClient:
        """Create a client on ``trajectory`` with links to every AP."""
        config = self.config
        self._client_seq += 1
        node_id = self.ids.allocate("client")
        client_params = params or config.client_params
        if client_params is None:
            # Baseline clients do not need CSI keepalives.
            probe = 0.02 if config.mode == "wgtt" else None
            client_params = ClientParams(probe_interval_s=probe)
        policy = None
        if config.mode == "baseline":
            policy = Enhanced80211rPolicy(config.policy_params)
        client = MobileClient(
            self.sim, self.medium, node_id, trajectory,
            np.random.default_rng([config.seed, 100 + self._client_seq]),
            trace=self.trace, params=client_params, policy=policy,
        )
        for i, ap in enumerate(self.aps):
            link = Link(
                ap_position=self.road.ap_position(i),
                ap_antenna=ap.radio.antenna,
                client_position_fn=trajectory.position,
                speed_mps=trajectory.speed_mps,
                rng=np.random.default_rng(
                    [config.seed, 1000 + 100 * self._client_seq + i]
                ),
                params=config.radio_params,
            )
            self.medium.add_link(ap.node_id, node_id, link)
        if pre_associated is None:
            pre_associated = config.mode == "wgtt"
        if pre_associated and config.mode == "wgtt":
            pre_associate(client, self.aps, self.bssid)
            signed = getattr(trajectory, "speed_signed_mps", trajectory.speed_mps)
            context = PolicyContext(
                ap_positions={
                    ap.node_id: self.road.ap_position(i)
                    for i, ap in enumerate(self.aps)
                },
                position_fn=trajectory.position,
                speed_mps=trajectory.speed_mps,
                heading_sign=-1.0 if signed < 0 else 1.0,
            )
            self.controller.add_client(node_id, context=context)
            if self.standby is not None:
                self.standby.add_client(node_id, context=context)
        if self.invariants is not None:
            self.invariants.attach(client)
        self.clients.append(client)
        return client

    # ---------------------------------------------------------------- server
    def server_send(self, packet: Packet) -> None:
        """Downlink entry: local content server -> controller (or cluster)."""
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

    # --------------------------------------------------------------- queries
    def resilience_counters(self) -> Dict[str, int]:
        """Fault/HA bookkeeping for ``DriveSummary.resilience``.

        Empty for plain drives (no HA, no faults, no monitors) so default
        summaries stay byte-identical to pre-HA ones.
        """
        if (self.config.ha is None and self.fault_injector is None
                and self.invariants is None):
            return {}
        out: Dict[str, int] = {}
        if hasattr(self.controller, "resilience_counters"):
            out.update(self.controller.resilience_counters())
            if self.standby is not None:
                # Post-takeover activity (beats, reconciliations) lands on
                # the standby; report the cluster total.
                for key, value in self.standby.resilience_counters().items():
                    out[key] = out.get(key, 0) + value
        else:  # baseline controller under fault injection
            out["downlink_dropped_dead"] = self.controller.downlink_dropped_dead
        if self.cluster is not None:
            out["failovers"] = self.cluster.failovers
        if self.standby is not None:
            out["standby_takeovers"] = self.standby.takeovers
            out["checkpoints_received"] = self.standby.checkpoints_received
        out["degraded_entries"] = sum(
            getattr(ap, "degraded_entries", 0) for ap in self.aps
        )
        out["degraded_exits"] = sum(
            getattr(ap, "degraded_exits", 0) for ap in self.aps
        )
        out["degraded_handovers"] = sum(
            getattr(ap, "degraded_handovers", 0) for ap in self.aps
        )
        out["client_flushes"] = sum(
            getattr(ap, "flushes_applied", 0) for ap in self.aps
        )
        if self.fault_injector is not None:
            out["fault_events_applied"] = self.fault_injector.applied_events
        if self.invariants is not None:
            out.update(self.invariants.counters())
        return out

    def links_for_client(self, client: MobileClient) -> List[Link]:
        out = []
        for ap in self.aps:
            pair = self.medium.link_between(ap.node_id, client.node_id)
            if pair is not None:
                out.append(pair[0])
        return out

    def run(self, until: float) -> None:
        self.sim.run(until=until)


def build_network(config: Optional[ExperimentConfig] = None, **overrides):
    """Build a testbed network from a config (or keyword overrides).

    Returns a :class:`Network`, or a :class:`repro.city.CityNetwork`
    when ``config.city`` is set.
    """
    if config is None:
        config = ExperimentConfig(**overrides)
    elif overrides:
        config = replace(config, **overrides)
    if config.city is not None:
        from ..city.builder import CityNetwork

        return CityNetwork(config)
    return Network(config)
