"""The WGTT controller (control plane of Fig. 5).

One machine on the Ethernet backhaul that

* consumes per-frame CSI reports from every AP, feeds them to the
  client's :class:`~repro.policies.HandoverPolicy`, and asks it which AP
  should serve (the default policy is the paper's max-median windowed
  ESNR selection);
* forwards every downlink packet, tagged with its 12-bit index number,
  to every AP within communication range of the client;
* runs the stop/start/ack switching protocol with the 30 ms
  retransmission timeout (one outstanding switch per client);
* de-duplicates uplink packets tunneled up by the APs and hands them to
  the server-side flow endpoints.

The controller owns every *protocol* concern -- the switch handshake,
the time hysteresis bounding the switch rate, and AP-health eviction --
so those guarantees hold for every policy in the zoo, not just the
default one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

import numpy as np

from ..net.ethernet import Backhaul
from ..net.packet import Packet
from ..sim.engine import Simulator
from ..sim.trace import TraceRecorder
from .checkpoint import ControllerCheckpoint
from .cyclic_queue import INDEX_MODULO, ring_distance
from .dedup import Deduplicator
from .messages import (
    ApHello,
    CheckpointMsg,
    ControllerHello,
    CsiReport,
    DegradedReport,
    FlushClient,
    Heartbeat,
    ServingUpdate,
    StartMsg,
    StopMsg,
    SwitchAck,
    ctrl_packet,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (policies -> core)
    from ..policies.base import HandoverPolicy, PolicyContext

__all__ = ["ControllerParams", "WgttController", "ClientState"]

UplinkHandler = Callable[[Packet, float], None]

#: Shared empty exclusion set (avoids a per-evaluation allocation).
_NO_EXCLUDE: frozenset = frozenset()


@dataclass
class ControllerParams:
    """Control-plane tuning knobs.

    ``selection_window_s`` is W of section 3.1.1 (Fig. 21 finds 10 ms
    optimal); ``hysteresis_s`` is the switching time hysteresis swept in
    Fig. 22; ``ack_timeout_s`` is the stop/start retransmission timeout of
    section 3.1.2 (30 ms in the paper).
    """

    selection_window_s: float = 0.010
    hysteresis_s: float = 0.050
    ack_timeout_s: float = 0.030
    #: Minimum window occupancy before an AP is a switch candidate.  The
    #: effective default for drives is 1 -- a single decoded frame makes
    #: an AP electable, which matters at picocell edges where windows are
    #: sparse -- and :class:`~repro.core.ap_selection.ApSelector` uses
    #: the same default so standalone selectors match controller drives.
    min_readings: int = 1
    selection_metric: str = "median"
    max_switch_attempts: int = 10
    #: AP health tracking (fault hardening, strictly opt-in): an AP whose
    #: last control-plane message (CSI report, switch ack, ...) is older
    #: than this is evicted from candidate sets, and the switch protocol
    #: routes around it.  ``None`` (the default) disables health tracking
    #: entirely, leaving the paper's behaviour untouched.
    ap_liveness_timeout_s: Optional[float] = None


@dataclass
class ClientState:
    policy: "HandoverPolicy"
    next_index: int = 0
    serving_ap: Optional[int] = None
    last_switch_time: float = -1e9
    #: (old_ap, new_ap, attempt, timer) while a switch is outstanding.
    switching: Optional[tuple] = None
    switch_count: int = 0
    no_coverage_drops: int = 0
    downlink_packets: int = 0
    #: True between a failover/cold-restart restore and the arrival of the
    #: serving AP's :class:`~repro.core.messages.DegradedReport` -- the
    #: restored serving/index state is a possibly-stale checkpoint view
    #: until the live AP confirms it.
    awaiting_reconcile: bool = False


class WgttController:
    """Central WGTT controller."""

    def __init__(
        self,
        sim: Simulator,
        backhaul: Backhaul,
        node_id: int,
        rng: np.random.Generator,
        trace: Optional[TraceRecorder] = None,
        params: Optional[ControllerParams] = None,
        policy_factory: Optional[Callable[[], "HandoverPolicy"]] = None,
    ):
        self.sim = sim
        self.backhaul = backhaul
        self.node_id = node_id
        self.rng = rng
        self.trace = trace if trace is not None else TraceRecorder(keep_kinds=set())
        self.params = params or ControllerParams()
        if policy_factory is None:
            # Imported here (not at module scope) to break the cycle:
            # repro.policies depends on repro.core for the ESNR tracker.
            from ..policies.wgtt import WgttMaxMedianPolicy

            policy_factory = WgttMaxMedianPolicy
        self.policy_factory = policy_factory
        self.clients: Dict[int, ClientState] = {}
        self.ap_ids: List[int] = []
        self.dedup = Deduplicator()
        self._uplink_handlers: Dict[int, UplinkHandler] = {}
        self._uplink_default: Optional[UplinkHandler] = None
        #: ap_id -> time of its last control-plane message (health signal).
        self.ap_last_seen: Dict[int, float] = {}
        #: APs currently evicted by the liveness timeout.
        self._evicted: set = set()
        #: False while crashed by fault injection (HA layer); every data
        #: and control path is gated on it, so a dead controller is inert
        #: without unscheduling its timers.
        self.alive = True
        #: Controller incarnation.  A warm-standby takeover or a cold
        #: restart bumps it; the invariant monitors key index-monotonicity
        #: checks on it, and heartbeats carry it so APs can tell a new
        #: controller from a recovered one.
        self.epoch = 0
        #: HA knobs (a :class:`~repro.core.ha.HaParams`); None keeps every
        #: HA code path unreachable -- the default drives never see it.
        self.ha = None
        #: The :class:`~repro.core.ha.ControllerCluster` when HA built a
        #: warm standby (mirrors uplink-handler registrations).
        self.cluster = None
        #: Armed :class:`~repro.invariants.InvariantSuite` (or None).
        self.invariants = None
        #: client -> PolicyContext, retained so a restore after a cold
        #: restart can rebind trajectory knowledge to fresh policies.
        self._contexts: Dict[int, "PolicyContext"] = {}
        self._standby_id: Optional[int] = None
        self._hb_seq = 0
        self._hb_task = None
        #: Downlink is held until this time after a takeover/restart while
        #: DegradedReports reconcile serving/index state.
        self._reconcile_until = -1.0
        self._reconcile_timer = None
        #: client -> {ap -> DegradedReport}: competing serving claims seen
        #: since the last (re)start; the highest-ESNR claimant wins.
        self._degraded_claims: Dict[int, Dict[int, DegradedReport]] = {}
        # HA bookkeeping surfaced through DriveSummary.resilience.
        self.heartbeats_sent = 0
        self.checkpoints_written = 0
        self.reconciled_clients = 0
        self.reconcile_flushes = 0
        self.downlink_dropped_dead = 0
        self.downlink_dropped_reconcile = 0
        #: True when the subclass hook is the base no-op, letting the
        #: downlink fan-out hand every target to one multicast call.
        self._pre_feed_noop = type(self)._pre_feed is WgttController._pre_feed
        backhaul.register(node_id, self.on_backhaul)

    # ----------------------------------------------------------------- setup
    def add_ap(self, ap_id: int) -> None:
        if ap_id not in self.ap_ids:
            self.ap_ids.append(ap_id)
            self.ap_last_seen[ap_id] = self.sim.now

    # -------------------------------------------------------------- health
    def ap_is_live(self, ap_id: int, now: float) -> bool:
        """False only when health tracking is on and the AP has gone quiet."""
        timeout = self.params.ap_liveness_timeout_s
        if timeout is None:
            return True
        last = self.ap_last_seen.get(ap_id)
        if last is None:
            return True  # unknown APs are out of scope for health tracking
        return now - last <= timeout

    def _sweep_dead_aps(self, now: float) -> None:
        """Evict newly-dead APs from every client's candidate windows."""
        timeout = self.params.ap_liveness_timeout_s
        if timeout is None:
            return
        for ap_id, last in self.ap_last_seen.items():
            if now - last > timeout:
                if ap_id not in self._evicted:
                    self._evicted.add(ap_id)
                    self.trace.emit(now, "ap_evicted", ap=ap_id)
                    for state in self.clients.values():
                        state.policy.drop_ap(ap_id)
            elif ap_id in self._evicted:
                self._evicted.discard(ap_id)
                self.trace.emit(now, "ap_readmitted", ap=ap_id)

    def add_client(
        self, client_id: int, context: Optional["PolicyContext"] = None
    ) -> ClientState:
        """Get-or-create the client's state (and its policy instance).

        ``context`` hands the policy infrastructure knowledge (AP
        positions, the client's trajectory); it may arrive on a later
        call than the one that created the state -- clients are created
        lazily from whichever of CSI/downlink/builder touches them first.
        """
        state = self.clients.get(client_id)
        if state is None:
            policy = self.policy_factory()
            policy.configure(
                window_s=self.params.selection_window_s,
                min_readings=self.params.min_readings,
                metric=self.params.selection_metric,
            )
            state = ClientState(policy=policy)
            self.clients[client_id] = state
        if context is not None:
            state.policy.bind(context)
            self._contexts[client_id] = context
        return state

    def register_uplink_handler(self, flow_id: int, handler: UplinkHandler) -> None:
        self._uplink_handlers[flow_id] = handler
        if self.cluster is not None:
            peer = self.cluster.other(self)
            if peer is not None:
                peer._uplink_handlers[flow_id] = handler

    def set_default_uplink_handler(self, handler: UplinkHandler) -> None:
        self._uplink_default = handler
        if self.cluster is not None:
            peer = self.cluster.other(self)
            if peer is not None:
                peer._uplink_default = handler

    # -------------------------------------------------------------- downlink
    def send_downlink(self, packet: Packet) -> None:
        """Entry point for server traffic destined to a client.

        Assigns the 12-bit index and multicasts to all in-range APs.  With
        no AP in range (client outside coverage) the packet is dropped,
        exactly as a real out-of-coverage client loses traffic.
        """
        if not self.alive:
            self.downlink_dropped_dead += 1
            return
        now = self.sim.now
        if now < self._reconcile_until:
            # Post-takeover reconciliation: index state may still be a
            # stale checkpoint view, so assigning now risks colliding
            # with ring slots the APs already hold.  UDP loses a few
            # packets; TCP retransmits.
            self.downlink_dropped_reconcile += 1
            return
        client = packet.dst
        state = self.add_client(client)
        self._sweep_dead_aps(now)
        targets = state.policy.in_range_aps(now)
        if self._evicted:
            targets = [ap for ap in targets if ap not in self._evicted]
        # The serving AP (and the AP a pending switch is moving to) must
        # receive every packet even through a momentary CSI gap, or its
        # ring develops holes.  Evicted APs are excluded: their rings are
        # unreachable anyway, and feeding them would only mask the outage.
        if (state.serving_ap is not None and state.serving_ap not in targets
                and state.serving_ap not in self._evicted):
            targets.append(state.serving_ap)
        if (state.switching is not None and state.switching[1] not in targets
                and state.switching[1] not in self._evicted):
            targets.append(state.switching[1])
        if not targets:
            state.no_coverage_drops += 1
            self.trace.emit(now, "dl_no_coverage", client=client)
            return
        packet.wgtt_index = state.next_index
        state.next_index = (state.next_index + 1) % INDEX_MODULO
        state.downlink_packets += 1
        if self.invariants is not None:
            self.invariants.on_index_assigned(
                now, client, self.epoch, packet.wgtt_index
            )
        multicast = self.backhaul.multicast
        if self._pre_feed_noop:
            multicast(self.node_id, targets, packet)
            return
        # One hop at a time, so a control message the hook sends to an AP
        # leaves (and, FIFO per pair, lands) ahead of the data it guards.
        for ap_id in targets:
            self._pre_feed(client, state, ap_id)
            multicast(self.node_id, (ap_id,), packet)

    def _pre_feed(self, client: int, state, ap_id: int) -> None:
        """Hook: about to hand the downlink packet to ``ap_id``.

        The base controller does nothing.  Subclasses whose clients can
        leave and re-enter an AP's coverage (city grids) use this to
        flush a ring that has been starved long enough for its contents
        to alias into the live index window.
        """

    # ---------------------------------------------------------------- uplink
    def on_backhaul(self, packet: Packet, src: int) -> None:
        if not self.alive:
            return
        if packet.protocol == "ctrl":
            self._handle_ctrl(packet.payload, src)
            return
        # Tunneled uplink data from an AP.
        packet.decapsulate()
        if not self.dedup.accept(packet):
            return
        t = self.sim.now
        self.trace.emit(t, "ul_delivered", client=packet.src, flow=packet.flow_id,
                        seq=packet.seq, via_ap=src, bytes=packet.size_bytes)
        handler = self._uplink_handlers.get(packet.flow_id, self._uplink_default)
        if handler is not None:
            handler(packet, t)

    # --------------------------------------------------------- control plane
    def _handle_ctrl(self, msg, src: int) -> None:
        if src in self.ap_last_seen:
            self.ap_last_seen[src] = self.sim.now
        if isinstance(msg, CsiReport):
            self._on_csi(msg, src)
        elif isinstance(msg, SwitchAck):
            self._on_switch_ack(msg)
        elif isinstance(msg, ApHello):
            self._on_ap_hello(msg, src)
        elif isinstance(msg, DegradedReport):
            self._on_degraded_report(msg)
        elif isinstance(msg, Heartbeat):
            self._on_peer_heartbeat(msg)
        elif isinstance(msg, CheckpointMsg):
            self._on_checkpoint(msg)

    def _on_csi(self, report: CsiReport, src_ap: int) -> None:
        reading = report.reading
        state = self.add_client(reading.client_id)
        t = self.sim.now
        esnr = reading.esnr_db()
        state.policy.observe(reading.ap_id, reading.time, esnr)
        self.trace.emit(t, "csi", client=reading.client_id, ap=reading.ap_id,
                        esnr=esnr)
        self._evaluate(reading.client_id, state, t)

    def _evaluate(self, client: int, state: ClientState, t: float) -> None:
        if state.switching is not None:
            return  # one outstanding switch per client (footnote 2)
        self._sweep_dead_aps(t)
        exclude = frozenset(self._evicted) if self._evicted else _NO_EXCLUDE
        best = state.policy.select(t, serving=state.serving_ap, exclude=exclude)
        if state.serving_ap is None:
            # Bootstrap: with nobody serving, any reading is better than
            # none, so elect on whatever the window holds.
            if best is None:
                candidates = [
                    ap for ap in state.policy.in_range_aps(t)
                    if ap not in self._evicted
                ]
                if not candidates:
                    return
                best = candidates[0]
            self._begin_switch(client, state, old_ap=None, new_ap=best, t=t)
            return
        if best is None or best == state.serving_ap:
            return
        if t - state.last_switch_time < self.params.hysteresis_s:
            return
        self._begin_switch(client, state, old_ap=state.serving_ap, new_ap=best, t=t)

    def _begin_switch(
        self,
        client: int,
        state: ClientState,
        old_ap: Optional[int],
        new_ap: int,
        t: float,
        attempt: int = 0,
    ) -> None:
        timer = self.sim.schedule(
            self.params.ack_timeout_s,
            self._switch_timeout,
            client,
            attempt,
        )
        state.switching = (old_ap, new_ap, attempt, timer)
        if attempt == 0:
            self.trace.emit(t, "switch_initiated", client=client,
                            old=old_ap, new=new_ap)
            # Tell everyone (including monitors, for BA forwarding) who
            # will be serving.
            for ap_id in self.ap_ids:
                self._send(ap_id, ServingUpdate(client=client, ap=new_ap))
        if old_ap is None:
            self._send(new_ap, StartMsg(client=client, index=state.next_index))
        else:
            self._send(old_ap, StopMsg(client=client, new_ap=new_ap, attempt=attempt))

    def _switch_timeout(self, client: int, attempt: int) -> None:
        if not self.alive:
            return
        state = self.clients.get(client)
        if state is None or state.switching is None:
            return
        old_ap, new_ap, current_attempt, _timer = state.switching
        if current_attempt != attempt:
            return
        t = self.sim.now
        self._sweep_dead_aps(t)
        if new_ap in self._evicted:
            # The switch target died while the handshake was in flight:
            # retransmitting at it is futile.  Abort and elect a live AP.
            state.switching = None
            self.trace.emit(t, "switch_target_dead", client=client, ap=new_ap)
            self._evaluate(client, state, t)
            return
        if attempt + 1 >= self.params.max_switch_attempts:
            # Give up: fall back to no serving AP; the next CSI report
            # will elect afresh.
            state.switching = None
            state.serving_ap = None
            self.trace.emit(t, "switch_failed", client=client)
            return
        if old_ap is not None and old_ap in self._evicted:
            # The old AP cannot process stop(c) any more, so its queue
            # head index is unrecoverable: bypass the handshake and start
            # the new AP directly at the next fresh index.
            self.trace.emit(t, "switch_reroute", client=client,
                            old=old_ap, new=new_ap)
            self._begin_switch(
                client, state, old_ap=None, new_ap=new_ap, t=t,
                attempt=attempt + 1,
            )
            return
        self.trace.emit(t, "switch_retransmit", client=client,
                        attempt=attempt + 1)
        self._begin_switch(
            client, state, old_ap=old_ap, new_ap=new_ap, t=t,
            attempt=attempt + 1,
        )

    def _on_switch_ack(self, msg: SwitchAck) -> None:
        state = self.clients.get(msg.client)
        if state is None or state.switching is None:
            return
        _old, new_ap, _attempt, timer = state.switching
        if msg.ap != new_ap:
            return
        timer.cancel()
        state.switching = None
        state.serving_ap = new_ap
        state.last_switch_time = self.sim.now
        state.switch_count += 1
        state.policy.on_switch(self.sim.now, new_ap)
        self.trace.emit(self.sim.now, "ap_switch", client=msg.client, ap=new_ap)

    def _send(self, dst: int, msg) -> None:
        self.backhaul.send(
            self.node_id, dst, ctrl_packet(self.node_id, dst, msg, self.sim.now)
        )

    # --------------------------------------------------------------- HA layer
    def enable_ha(self, ha, standby_id: Optional[int] = None) -> None:
        """Arm the HA layer: heartbeat APs (and checkpoint to a standby).

        Never called for default drives -- every timer and message below
        exists only once the builder passes ``ExperimentConfig(ha=...)``.
        """
        self.ha = ha
        self._standby_id = standby_id
        # Primary heartbeat and standby watchdog share the heartbeat
        # cadence, so they pool into one periodic heap event.
        self._hb_task = self.sim.periodic_group(
            ha.heartbeat_interval_s, key="ha.heartbeat"
        ).add(self._heartbeat_tick)

    def _should_beat(self) -> bool:
        if not self.alive:
            return False
        # Never beat while another controller in the cluster is active
        # (a recovered primary after a standby takeover stays passive --
        # failback is not supported).
        return self.cluster is None or self.cluster.active is self

    def _heartbeat_tick(self) -> None:
        if not self._should_beat():
            return
        self._hb_seq += 1
        self.heartbeats_sent += 1
        beat = Heartbeat(controller=self.node_id, epoch=self.epoch,
                         seq=self._hb_seq)
        for ap_id in self.ap_ids:
            self._send(ap_id, beat)
        if self._standby_id is not None:
            self._send(self._standby_id, beat)
            interval = max(1, self.ha.checkpoint_interval_beats)
            if self._hb_seq % interval == 0:
                snapshot = ControllerCheckpoint.capture(self)
                self.checkpoints_written += 1
                self._send(self._standby_id, CheckpointMsg(checkpoint=snapshot))

    def fail(self) -> None:
        """Fault injection: the controller process dies.

        Timers stay scheduled (the simulator has no ungrouped cancel) but
        every callback and message path is gated on ``alive``.
        """
        self.alive = False

    def restore(self) -> None:
        """Fault injection: the controller process comes back up.

        A cold restart loses all volatile protocol state: client records,
        in-flight switches, index positions.  The new incarnation bumps
        its epoch, tells every AP to flush stale rings (a cold controller
        reuses index numbers from 0, so surviving ring contents would
        replay as duplicates), and opens a reconciliation window during
        which degraded APs report what they were serving.
        """
        self.alive = True
        if self.cluster is not None and self.cluster.active is not self:
            # The standby took over while we were down; stay passive.
            return
        self.epoch += 1
        self._hb_seq = 0
        for state in self.clients.values():
            if state.switching is not None:
                state.switching[3].cancel()
        self.clients.clear()
        self._degraded_claims.clear()
        self._evicted.clear()
        now = self.sim.now
        for ap_id in self.ap_ids:
            self.ap_last_seen[ap_id] = now
        hello = ControllerHello(controller=self.node_id, epoch=self.epoch,
                                flush=True)
        for ap_id in self.ap_ids:
            self._send(ap_id, hello)
        if self.ha is not None:
            self._open_reconcile_window()

    def _open_reconcile_window(self) -> None:
        """Hold downlink until degraded APs have had a chance to report."""
        window = self.ha.reconcile_window_s
        self._reconcile_until = self.sim.now + window
        if self._reconcile_timer is not None:
            self._reconcile_timer.cancel()
        self._reconcile_timer = self.sim.schedule(window, self._finish_reconcile)

    def _on_ap_hello(self, msg: ApHello, src: int) -> None:
        """A rebooted AP announced itself: readmit it immediately."""
        now = self.sim.now
        self.ap_last_seen[msg.ap] = now
        if msg.ap in self._evicted:
            self._evicted.discard(msg.ap)
            self.trace.emit(now, "ap_readmitted", ap=msg.ap)

    def _on_peer_heartbeat(self, msg: Heartbeat) -> None:
        """Heartbeat from another controller (the standby overrides this)."""

    def _on_checkpoint(self, msg: CheckpointMsg) -> None:
        """Checkpoint stream from the primary (the standby overrides this)."""

    def _on_degraded_report(self, msg: DegradedReport) -> None:
        """An AP reported serving state held through a controller outage.

        Resolves three things: *who* serves the client (highest-ESNR
        claimant when a partition produced several), *where* index
        assignment resumes (the claimant's ``next_index``, so fresh
        packets never collide with stored ring slots), and the end of the
        client's ``awaiting_reconcile`` limbo.
        """
        if self.ha is None:
            return
        now = self.sim.now
        state = self.add_client(msg.client)
        claims = self._degraded_claims.setdefault(msg.client, {})
        claims[msg.ap] = msg
        best_ap = max(claims, key=lambda ap: claims[ap].esnr_db)
        if msg.ap != best_ap:
            # A stronger AP already holds this client: clear the weaker
            # claimant's ring so it can never replay stale packets.
            self._send(msg.ap, FlushClient(client=msg.client))
            return
        for ap_id in claims:
            if ap_id != best_ap:
                self._send(ap_id, FlushClient(client=msg.client))
        adopt = False
        if state.awaiting_reconcile or now <= self._reconcile_until:
            # Fresh takeover/restart: the report is ground truth, however
            # far the checkpointed (or zeroed) index view lags it.
            adopt = True
        elif (msg.next_index != state.next_index
              and ring_distance(state.next_index, msg.next_index)
              < INDEX_MODULO // 2):
            # Late report (e.g. a healed partition): only adopt a position
            # ahead of ours -- moving backward would reuse live indices.
            adopt = True
        if adopt and msg.next_index != state.next_index:
            state.next_index = msg.next_index
            if self.invariants is not None:
                self.invariants.on_index_adopted(
                    now, msg.client, self.epoch, msg.next_index
                )
        if state.switching is not None:
            state.switching[3].cancel()
            state.switching = None
        state.serving_ap = msg.ap
        state.last_switch_time = now
        if state.awaiting_reconcile:
            state.awaiting_reconcile = False
            self.reconciled_clients += 1
        for ap_id in self.ap_ids:
            self._send(ap_id, ServingUpdate(client=msg.client, ap=msg.ap))

    def _finish_reconcile(self) -> None:
        """Close the post-restart window; flush clients nobody vouched for.

        A client still ``awaiting_reconcile`` here means its checkpointed
        serving AP never confirmed (report lost, or the AP died with the
        primary).  The restored serving/index view cannot be trusted --
        acting on it risks a stale ``k`` replaying ring history -- so the
        client's ring is flushed everywhere and service re-bootstraps
        from the next CSI report.
        """
        if not self.alive:
            return
        self._reconcile_timer = None
        for client, state in self.clients.items():
            if not state.awaiting_reconcile:
                continue
            state.awaiting_reconcile = False
            state.serving_ap = None
            if state.switching is not None:
                state.switching[3].cancel()
                state.switching = None
            self.reconcile_flushes += 1
            for ap_id in self.ap_ids:
                self._send(ap_id, FlushClient(client=client))

    def resilience_counters(self) -> Dict[str, int]:
        """HA bookkeeping surfaced through ``DriveSummary.resilience``."""
        return {
            "heartbeats_sent": self.heartbeats_sent,
            "checkpoints_written": self.checkpoints_written,
            "reconciled_clients": self.reconciled_clients,
            "reconcile_flushes": self.reconcile_flushes,
            "downlink_dropped_dead": self.downlink_dropped_dead,
            "downlink_dropped_reconcile": self.downlink_dropped_reconcile,
        }

    # ------------------------------------------------------------- inspection
    def serving_ap(self, client: int) -> Optional[int]:
        state = self.clients.get(client)
        return state.serving_ap if state else None
