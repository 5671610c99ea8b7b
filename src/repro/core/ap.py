"""Access-point nodes.

:class:`BaseAp` owns an :class:`ApRadio` and the driver/NIC queue stages
shared by every AP flavour.  :class:`WgttAp` adds the WGTT data plane: the
per-client cyclic queue, the stop/start switching protocol, per-frame CSI
reporting, and block-ACK forwarding.  The Enhanced 802.11r baseline AP
lives in :mod:`repro.core.baseline`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..mac.frames import Beacon, BlockAck, MgmtFrame, Mpdu
from ..mac.medium import Medium
from ..mac.radio import Radio
from ..mac.rate_control import EsnrRateControl
from ..net.ethernet import Backhaul
from ..net.packet import Packet
from ..net.queues import DropTailQueue
from ..phy.antenna import ParabolicAntenna
from ..sim.engine import Simulator
from ..sim.trace import TraceRecorder
from .ap_selection import EsnrWindow
from .cyclic_queue import INDEX_MODULO, ArrivalLog, CyclicQueue
from .messages import (
    ApHello,
    AssocSync,
    BaForward,
    ControllerHello,
    CsiReport,
    DegradedEsnr,
    DegradedReport,
    FlushClient,
    Heartbeat,
    ServingUpdate,
    StartMsg,
    StopMsg,
    SwitchAck,
    ctrl_packet,
)

__all__ = ["ApParams", "ApRadio", "BaseAp", "WgttAp", "ClientPipeline"]

Vec3 = Tuple[float, float, float]


@dataclass
class ApParams:
    """Queue sizes and processing latencies of one AP.

    The stop-processing constants are calibrated against Table 1 of the
    paper: the measured stop->ack execution time is 17-21 ms across
    offered loads, dominated by the ioctl round trip into the kernel and
    the per-packet filtering of the driver transmit queue.
    """

    driver_queue_capacity: int = 200
    hw_queue_capacity: int = 32
    stop_proc_base_s: float = 12e-3
    stop_proc_per_pkt_s: float = 25e-6
    stop_proc_jitter_s: float = 2e-3
    start_proc_s: float = 1.5e-3
    #: After stop(c) the NIC hardware queue keeps draining for about this
    #: long (the paper measures ~6 ms); whatever is still pending is then
    #: flushed so the old AP stops burning airtime on its inferior link.
    stop_drain_window_s: float = 8e-3
    csi_report_min_interval_s: float = 1e-3
    ba_forwarding: bool = True
    beacon_interval_s: Optional[float] = None
    tx_power_dbm: float = 18.0
    #: "minstrel" (the drivers' default, as in the testbed) or "esnr"
    #: (oracle rate control fed by the CSI pipeline) -- used by the
    #: rate-adaptation-vs-AP-selection ablation.
    rate_control: str = "minstrel"


@dataclass
class ClientPipeline:
    """Per-client downlink queue stack inside one AP (Fig. 7)."""

    cyclic: CyclicQueue
    driver: DropTailQueue
    hw: DropTailQueue
    serving: bool = False


class ApRadio(Radio):
    """AP-side MAC: pulls from the owner's per-client NIC queues."""

    def __init__(self, owner: "BaseAp", **kwargs):
        self.owner = owner
        super().__init__(**kwargs)
        self._rr_cursor = 0

    def _select_peer(self) -> Optional[int]:
        clients = self.owner.clients_with_hw_backlog()
        if not clients:
            return None
        # Round-robin so one client's backlog cannot starve another.
        self._rr_cursor = (self._rr_cursor + 1) % len(clients)
        return clients[self._rr_cursor]

    def _pull_packets(self, peer_id: int, max_n: int) -> List[Packet]:
        return self.owner.pull_hw(peer_id, max_n)

    def _unpull_packet(self, peer_id: int, packet: Packet) -> None:
        self.owner.unpull_hw(peer_id, packet)

    def _deliver(self, packet: Packet, src: int, t: float) -> None:
        self.owner.on_uplink_data(packet, src, t)

    def _on_peer_frame_decoded(self, src: int, t: float) -> None:
        self.owner.on_client_frame_decoded(src, t)

    def on_overheard_block_ack(self, ba: BlockAck, t: float) -> None:
        self.owner.on_overheard_ba(ba, t)

    def on_mgmt(self, frame: MgmtFrame, src: int, t: float) -> None:
        self.owner.on_mgmt(frame, src, t)

    def _on_mpdu_acked(self, peer_id: int, mpdu: Mpdu, t: float) -> None:
        self.owner.on_downlink_acked(peer_id, mpdu.packet, t)


class BaseAp:
    """Common AP machinery: radio, queue stages, backhaul, beacons."""

    #: Backhaul multicast sink ``(packet, src, arrival_t)``; None takes a
    #: delivery event per multicast packet (see ``Backhaul.register``).
    _accept_downlink = None

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        backhaul: Backhaul,
        node_id: int,
        controller_id: int,
        position: Vec3,
        antenna: ParabolicAntenna,
        rng: np.random.Generator,
        trace: Optional[TraceRecorder] = None,
        bssid: Optional[int] = None,
        params: Optional[ApParams] = None,
        monitor: bool = False,
    ):
        self.sim = sim
        self.medium = medium
        self.backhaul = backhaul
        self.node_id = node_id
        self.controller_id = controller_id
        self.position_v = position
        self.rng = rng
        self.trace = trace if trace is not None else TraceRecorder(keep_kinds=set())
        self.params = params or ApParams()
        if self.params.rate_control == "esnr":
            rate_factory = EsnrRateControl
        else:
            rate_factory = None  # Radio defaults to MinstrelLite
        self.radio = ApRadio(
            owner=self,
            sim=sim,
            medium=medium,
            node_id=node_id,
            rng=rng,
            is_ap=True,
            position_fn=lambda t: position,
            trace=self.trace,
            bssid=bssid,
            antenna=antenna,
            tx_power_dbm=self.params.tx_power_dbm,
            monitor=monitor,
            rate_ctrl_factory=rate_factory,
        )
        self.pipelines: Dict[int, ClientPipeline] = {}
        #: client -> node id of the AP currently serving it.
        self.serving_map: Dict[int, Optional[int]] = {}
        #: False while crashed by fault injection; gates every data/control
        #: path so a dead AP is inert without unscheduling its timers.
        self.alive = True
        #: Armed :class:`~repro.invariants.InvariantSuite` (or None).
        self.invariants = None
        backhaul.register(node_id, self.on_backhaul, self._accept_downlink)
        if self.params.beacon_interval_s:
            # Jittered start so the eight APs' beacons interleave.
            sim.schedule(
                float(rng.uniform(0.0, self.params.beacon_interval_s)),
                self._beacon_tick,
            )
        self.downlink_delivered = 0

    # ------------------------------------------------------------- pipelines
    def add_client(self, client_id: int) -> ClientPipeline:
        """Get-or-create the client's pipeline."""
        pipe = self.pipelines.get(client_id)
        if pipe is None:
            pipe = ClientPipeline(
                cyclic=CyclicQueue(),
                driver=DropTailQueue(self.params.driver_queue_capacity, name="driver"),
                hw=DropTailQueue(self.params.hw_queue_capacity, name="hw"),
            )
            self.pipelines[client_id] = pipe
        return pipe

    def clients_with_hw_backlog(self) -> List[int]:
        return [c for c, p in self.pipelines.items() if len(p.hw) > 0]

    def pull_hw(self, client_id: int, max_n: int) -> List[Packet]:
        pipe = self.pipelines.get(client_id)
        if pipe is None:
            return []
        out = []
        for _ in range(max_n):
            packet = pipe.hw.dequeue()
            if packet is None:
                break
            out.append(packet)
        self._refill(client_id)
        return out

    def unpull_hw(self, client_id: int, packet: Packet) -> None:
        pipe = self.pipelines.get(client_id)
        if pipe is not None:
            pipe.hw.requeue_front(packet)

    def _refill(self, client_id: int) -> None:
        """Move packets down the stack: cyclic -> driver -> NIC."""
        pipe = self.pipelines.get(client_id)
        if pipe is None:
            return
        if pipe.serving:
            while not pipe.driver.is_full:
                packet = pipe.cyclic.pop_next()
                if packet is None:
                    break
                pipe.driver.enqueue(packet)
        while not pipe.hw.is_full:
            packet = pipe.driver.dequeue()
            if packet is None:
                break
            pipe.hw.enqueue(packet)

    # ----------------------------------------------------------- fault hooks
    def fail(self) -> None:
        """Crash the AP: radio off, every data/control path inert.

        Queue contents are retained only so that :meth:`restore` can model
        a cold reboot explicitly; nothing is transmitted or received while
        down.  Idempotent.
        """
        if not self.alive:
            return
        if self.invariants is not None:
            now = self.sim.now
            for client, pipe in self.pipelines.items():
                if pipe.serving:
                    self.invariants.on_serving_stop(now, self.node_id, client)
        self.alive = False
        self.radio.power_off()

    def restore(self) -> None:
        """Reboot a crashed AP with cold state (empty queues, no clients).

        Association/serving state rebuilds through the normal control
        plane (AssocSync replication, start(c, k) handoffs).  Idempotent.
        """
        if self.alive:
            return
        self.alive = True
        for client in list(self.pipelines):
            self.radio.reset_peer(client)
        self.pipelines.clear()
        self.serving_map.clear()
        self.radio.power_on()
        self._on_restored()

    def _on_restored(self) -> None:
        """Hook: liveness re-registration after a reboot (per AP flavour)."""

    # --------------------------------------------------------------- beacons
    def _beacon_tick(self) -> None:
        if self.alive:
            self.radio.send_beacon(Beacon(src=self.node_id, bssid=self.radio.bssid))
        self.sim.schedule(self.params.beacon_interval_s, self._beacon_tick)

    # ------------------------------------------------------------ data plane
    def on_uplink_data(self, packet: Packet, client: int, t: float) -> None:
        """A client data packet was decoded: tunnel it to the controller."""
        if not self.alive:
            return
        packet.encapsulate(self.node_id, self.controller_id)
        self.backhaul.send(self.node_id, self.controller_id, packet)

    def on_downlink_acked(self, client: int, packet: Packet, t: float) -> None:
        self.downlink_delivered += 1

    def on_client_frame_decoded(self, client: int, t: float) -> None:
        """Hook: WGTT APs report CSI from here."""

    def on_overheard_ba(self, ba: BlockAck, t: float) -> None:
        """Hook: WGTT APs forward overheard BAs from here."""

    def on_mgmt(self, frame: MgmtFrame, src: int, t: float) -> None:
        """Hook: association handling (overridden per AP flavour)."""

    # --------------------------------------------------------------- control
    def on_backhaul(self, packet: Packet, src: int) -> None:
        if not self.alive:
            return  # crashed: packets already in flight die at the NIC
        if packet.protocol == "ctrl":
            self.handle_ctrl(packet.payload, src)
        else:
            self.handle_downlink_data(packet, src)

    def handle_ctrl(self, msg, src: int) -> None:
        raise NotImplementedError

    def handle_downlink_data(self, packet: Packet, src: int) -> None:
        raise NotImplementedError

    def send_ctrl(self, dst: int, msg) -> None:
        if not self.alive:
            return  # e.g. a delayed stop->start forward after a crash
        self.backhaul.send(
            self.node_id, dst, ctrl_packet(self.node_id, dst, msg, self.sim.now)
        )


class WgttAp(BaseAp):
    """A WGTT access point (sections 3 and 4.2 of the paper)."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("monitor", True)
        super().__init__(*args, **kwargs)
        self._last_csi_report: Dict[int, float] = {}
        #: HA knobs (:class:`~repro.core.ha.HaParams`); None keeps every
        #: degraded-mode code path unreachable on default drives.
        self.ha = None
        #: True while the AP serves autonomously (controller presumed dead).
        self.degraded = False
        self._hb_last = 0.0
        self._ha_task = None
        #: Local per-client ESNR windows (fed only when HA is armed);
        #: degraded mode selects on these instead of controller CSI.
        self._local_esnr: Dict[int, EsnrWindow] = {}
        #: client -> {ap -> (time, esnr_db)} gossip heard while degraded.
        self._gossip: Dict[int, Dict[int, Tuple[float, float]]] = {}
        self._last_local_handover: Dict[int, float] = {}
        self.degraded_entries = 0
        self.degraded_exits = 0
        self.degraded_handovers = 0
        self.flushes_applied = 0
        #: Multicast packets not yet folded into the rings (non-serving
        #: clients only; see :meth:`_accept_downlink`).
        self._arrivals = ArrivalLog()

    # ------------------------------------------------------ lazy arrival
    def _accept_downlink(self, packet: Packet, src: int, t: float) -> None:
        """Backhaul multicast sink: ``packet`` reaches this AP at ``t``.

        Only a serving AP acts on arrival (ring insert, refill, kick), so
        only it gets a wake-up event.  Every other AP logs the shared
        packet and folds it into the ring on its next read
        (:meth:`_absorb_arrived`); a later ``start(c, k)`` turns whatever
        is still in flight into wake-ups.
        """
        pipe = self.pipelines.get(packet.dst)
        if pipe is not None and pipe.serving:
            self.sim.schedule_at(t, self.on_backhaul, packet, src)
            return
        arrivals = self._arrivals
        arrivals.post(t, packet, src)
        if len(arrivals) > INDEX_MODULO:
            self._absorb_arrived()  # bound the log on a never-read AP

    def _absorb_arrived(self) -> None:
        """Fold every logged packet due by now into its client's ring.

        Called before any ring read, pipeline creation, flush, crash or
        reboot, so the rings always match what per-packet arrival events
        would have built.  Packets that landed while the AP was down died
        at its NIC: :meth:`fail` absorbs up to the crash, so anything
        due while still down is dropped.
        """
        arrived = self._arrivals.pop_arrived(self.sim.now)
        if not arrived or not self.alive:
            return
        pipelines = self.pipelines
        for _t, packet, _src in arrived:
            pipe = pipelines.get(packet.dst)
            if pipe is None:
                pipe = self.add_client(packet.dst)
            pipe.cyclic.insert(packet)

    def add_client(self, client_id: int) -> ClientPipeline:
        if client_id not in self.pipelines:
            # Earlier arrivals create their pipelines first, keeping the
            # pipeline (round-robin) order of per-packet delivery.
            self._absorb_arrived()
        return super().add_client(client_id)

    def fail(self) -> None:
        self._absorb_arrived()
        super().fail()

    def restore(self) -> None:
        if not self.alive:
            self._last_csi_report.clear()
            self._absorb_arrived()
        super().restore()

    def _on_restored(self) -> None:
        # Stale degraded-mode bookkeeping from before the crash must not
        # make the rebooted AP instantly declare the controller dead (the
        # heartbeat clock restarts now), nor steer local handovers on
        # pre-crash evidence.
        self._hb_last = self.sim.now
        self.degraded = False
        self._local_esnr.clear()
        self._gossip.clear()
        self._last_local_handover.clear()
        # Announce the reboot so the controller's liveness tracking
        # readmits this AP immediately instead of holding it evicted
        # until a CSI report happens to get through.
        self.send_ctrl(self.controller_id, ApHello(ap=self.node_id))

    # ------------------------------------------------------------- HA layer
    def enable_ha(self, ha) -> None:
        """Arm degraded-mode fallback (never called on default drives)."""
        self.ha = ha
        self._hb_last = self.sim.now
        if ha.ap_degraded:
            # All APs share one degraded-mode cadence: a PeriodicGroup
            # puts a single event on the heap per tick instead of one
            # per AP (they all use the same config interval).
            self._ha_task = self.sim.periodic_group(
                ha.degraded_eval_interval_s, key="ha.ap_degraded"
            ).add(self._ha_tick)

    def _ha_tick(self) -> None:
        if not self.alive or self.ha is None:
            return
        now = self.sim.now
        if not self.degraded:
            if now - self._hb_last > self.ha.dead_after_s:
                self._enter_degraded(now)
        else:
            self._degraded_evaluate(now)

    def _enter_degraded(self, now: float) -> None:
        """Missed heartbeats: fall back to autonomous serving.

        Keep transmitting for currently-served clients and run a local
        gossip-fed handover (the Enhanced-802.11r discipline) until a
        controller reappears.
        """
        self.degraded = True
        self.degraded_entries += 1
        self.trace.emit(now, "ap_degraded_enter", ap=self.node_id)

    def _exit_degraded(self, now: float) -> None:
        self.degraded = False
        self.degraded_exits += 1
        self._gossip.clear()
        self.trace.emit(now, "ap_degraded_exit", ap=self.node_id)

    def _on_heartbeat(self, msg: Heartbeat) -> None:
        now = self.sim.now
        self._hb_last = now
        self.controller_id = msg.controller
        if self.degraded:
            # The ControllerHello may have been lost: re-subordinate off
            # the heartbeat itself and report what we are serving.
            self._exit_degraded(now)
            self._send_degraded_reports(now)

    def _on_controller_hello(self, msg: ControllerHello) -> None:
        """A controller (re)appeared: re-register and reconcile.

        Setting ``controller_id`` re-addresses the CSI/uplink tunnels to
        the new incarnation (a standby has a different node id).  A cold
        restart (``flush=True``) restarts index assignment at 0, so ring
        state for clients this AP is *not* serving is discarded; serving
        claims survive and are reported for the controller to arbitrate.
        """
        now = self.sim.now
        self._hb_last = now
        self.controller_id = msg.controller
        if msg.flush:
            self._absorb_arrived()
            for client, pipe in list(self.pipelines.items()):
                if not pipe.serving:
                    self._flush_client(client)
        if self.degraded:
            self._exit_degraded(now)
        self._send_degraded_reports(now)

    def _send_degraded_reports(self, now: float) -> None:
        """Tell the controller what this AP is serving and where the ring is."""
        self._absorb_arrived()
        for client, pipe in self.pipelines.items():
            if not pipe.serving:
                continue
            if len(pipe.driver) > 0:
                read_index = pipe.driver.peek().wgtt_index
            else:
                read_index = pipe.cyclic.read_index
            window = self._local_esnr.get(client)
            esnr = window.median(now) if window is not None else None
            self.send_ctrl(
                self.controller_id,
                DegradedReport(
                    client=client,
                    ap=self.node_id,
                    read_index=read_index,
                    next_index=pipe.cyclic.next_insert_index,
                    esnr_db=esnr if esnr is not None else -999.0,
                ),
            )

    def _flush_client(self, client: Optional[int]) -> None:
        """Drop all queue/serving state for ``client`` (None = every client).

        Packets still in flight to this AP survive: they land in the
        fresh ring, exactly as they would have after a real flush.
        """
        self._absorb_arrived()
        if client is None:
            for client_id in list(self.pipelines):
                self._flush_client(client_id)
            return
        pipe = self.pipelines.get(client)
        if pipe is None:
            return
        if pipe.serving and self.invariants is not None:
            self.invariants.on_serving_stop(self.sim.now, self.node_id, client)
        pipe.serving = False
        pipe.driver.drain()
        pipe.hw.drain()
        self.radio.flush_retries(client)
        # clear() keeps the insert cursor; a genuinely fresh ring is needed
        # so a cold controller restarting at index 0 never meets leftovers.
        pipe.cyclic = CyclicQueue()
        self.serving_map.pop(client, None)
        self.flushes_applied += 1

    def _note_local_esnr(self, client: int, t: float, esnr: float) -> None:
        window = self._local_esnr.get(client)
        if window is None:
            window = EsnrWindow(window_s=0.010)
            self._local_esnr[client] = window
        window.add(t, esnr)
        if self.degraded:
            msg = DegradedEsnr(client=client, ap=self.node_id,
                               esnr_db=esnr, time=t)
            for ap_id in self._other_ap_ids():
                self.send_ctrl(ap_id, msg)

    def _on_degraded_esnr(self, msg: DegradedEsnr) -> None:
        self._gossip.setdefault(msg.client, {})[msg.ap] = (msg.time, msg.esnr_db)

    def _degraded_evaluate(self, now: float) -> None:
        """Local handover loop: hand clients to a clearly-stronger neighbour."""
        ha = self.ha
        for client, pipe in list(self.pipelines.items()):
            if not pipe.serving:
                continue
            window = self._local_esnr.get(client)
            mine = window.median(now) if window is not None else None
            best_ap = None
            best_esnr = None
            for ap_id, (t, esnr) in self._gossip.get(client, {}).items():
                if now - t > 0.25:
                    continue  # stale gossip: that AP stopped hearing the client
                if best_esnr is None or esnr > best_esnr:
                    best_ap, best_esnr = ap_id, esnr
            if best_ap is None:
                continue
            if mine is not None and best_esnr - mine < ha.degraded_margin_db:
                continue
            last = self._last_local_handover.get(client, -1e9)
            if now - last < ha.degraded_hysteresis_s:
                continue
            self._local_handover(client, pipe, best_ap, now)

    def _local_handover(self, client: int, pipe: ClientPipeline,
                        new_ap: int, now: float) -> None:
        """Degraded-mode handover: local stop(c) -> start(c, k) at the peer.

        Reuses the exact stop semantics of :meth:`_handle_stop` (driver-head
        k, drain, delayed StartMsg) so the index handoff stays lossless and
        duplicate-free even with no controller arbitrating.
        """
        self._absorb_arrived()
        self._last_local_handover[client] = now
        self.degraded_handovers += 1
        self.trace.emit(now, "degraded_handover", ap=self.node_id,
                        client=client, new=new_ap)
        if self.invariants is not None:
            self.invariants.on_serving_stop(now, self.node_id, client)
        pipe.serving = False
        if len(pipe.driver) > 0:
            k = pipe.driver.peek().wgtt_index
        else:
            k = pipe.cyclic.read_index
        n_filtered = len(pipe.driver)
        pipe.driver.drain()
        delay = (
            self.params.stop_proc_base_s
            + self.params.stop_proc_per_pkt_s * n_filtered
            + float(self.rng.uniform(0.0, self.params.stop_proc_jitter_s))
        )
        self.sim.schedule(
            delay, self.send_ctrl, new_ap, StartMsg(client=client, index=k)
        )
        self.sim.schedule(
            self.params.stop_drain_window_s, self._flush_after_stop, client
        )
        self.serving_map[client] = new_ap

    # ------------------------------------------------------------ downlink
    def handle_downlink_data(self, packet: Packet, src: int) -> None:
        """Wake-up: a downlink packet reached this (serving) AP."""
        self._absorb_arrived()
        client = packet.dst
        pipe = self.pipelines.get(client)
        if pipe is None:
            pipe = self.add_client(client)
        pipe.cyclic.insert(packet)
        if pipe.serving:
            self._refill(client)
            self.radio.kick()

    # ------------------------------------------------------------- control
    def handle_ctrl(self, msg, src: int) -> None:
        if isinstance(msg, StopMsg):
            self._handle_stop(msg)
        elif isinstance(msg, StartMsg):
            self._handle_start(msg)
        elif isinstance(msg, ServingUpdate):
            self.serving_map[msg.client] = msg.ap
        elif isinstance(msg, BaForward):
            ba = BlockAck(
                src=msg.client,
                dst=self.node_id,
                start_seq=msg.start_seq,
                bitmap=msg.bitmap,
            )
            self.radio.apply_forwarded_block_ack(ba, self.sim.now)
            self.trace.emit(self.sim.now, "ba_forward_applied", ap=self.node_id,
                            client=msg.client)
        elif isinstance(msg, AssocSync):
            self.add_client(msg.client)
        elif isinstance(msg, Heartbeat):
            self._on_heartbeat(msg)
        elif isinstance(msg, ControllerHello):
            self._on_controller_hello(msg)
        elif isinstance(msg, DegradedEsnr):
            self._on_degraded_esnr(msg)
        elif isinstance(msg, FlushClient):
            self._flush_client(msg.client)

    def _handle_stop(self, msg: StopMsg) -> None:
        """stop(c): cease serving, hand the queue state to the new AP.

        The NIC hardware queue keeps draining over the air (the paper lets
        this ~6 ms backlog go out on the old link); the driver queue is
        filtered out, and its head index k is sent to the new AP after the
        kernel-query delay that Table 1 measures.
        """
        self._absorb_arrived()
        client = msg.client
        pipe = self.pipelines.get(client)
        if pipe is None:
            pipe = self.add_client(client)
        if pipe.serving and self.invariants is not None:
            self.invariants.on_serving_stop(self.sim.now, self.node_id, client)
        pipe.serving = False
        if len(pipe.driver) > 0:
            k = pipe.driver.peek().wgtt_index
        else:
            k = pipe.cyclic.read_index
        n_filtered = len(pipe.driver)
        pipe.driver.drain()
        delay = (
            self.params.stop_proc_base_s
            + self.params.stop_proc_per_pkt_s * n_filtered
            + float(self.rng.uniform(0.0, self.params.stop_proc_jitter_s))
        )
        self.trace.emit(self.sim.now, "stop_processed", ap=self.node_id,
                        client=client, k=k, filtered=n_filtered)
        self.sim.schedule(
            delay, self.send_ctrl, msg.new_ap, StartMsg(client=client, index=k)
        )
        self.sim.schedule(
            self.params.stop_drain_window_s, self._flush_after_stop, client
        )

    def _flush_after_stop(self, client: int) -> None:
        """End the post-stop drain: drop anything still bound for ``client``."""
        pipe = self.pipelines.get(client)
        if pipe is None or pipe.serving:
            return  # a start(c, k) took over in the meantime
        pipe.hw.drain()
        self.radio.flush_retries(client)

    def _handle_start(self, msg: StartMsg) -> None:
        """start(c, k): begin transmitting from ring index k immediately."""
        self._absorb_arrived()
        client = msg.client
        pipe = self.pipelines.get(client)
        if pipe is None:
            pipe = self.add_client(client)
        pipe.driver.drain()
        pipe.hw.drain()
        pipe.cyclic.set_read_index(msg.index)
        # A serving AP acts on every arrival: wake up for the packets
        # still in flight to it.
        for t, packet, src in self._arrivals.pop_client(client):
            self.sim.schedule_at(t, self.on_backhaul, packet, src)
        if not pipe.serving and self.invariants is not None:
            self.invariants.on_serving_start(self.sim.now, self.node_id, client)
        pipe.serving = True
        self.serving_map[client] = self.node_id
        self.trace.emit(self.sim.now, "start_processed", ap=self.node_id,
                        client=client, k=msg.index)
        self.sim.schedule(self.params.start_proc_s, self._start_serving, client)

    def _start_serving(self, client: int) -> None:
        pipe = self.pipelines.get(client)
        if pipe is None or not pipe.serving:
            return
        self._refill(client)
        self.radio.kick()
        self.send_ctrl(
            self.controller_id, SwitchAck(client=client, ap=self.node_id)
        )

    # -------------------------------------------------------------- CSI path
    def on_client_frame_decoded(self, client: int, t: float) -> None:
        """Measure CSI of a decoded client frame and report it (rate-limited)."""
        pair = self.medium.link_between(self.node_id, client)
        if pair is None:
            return  # not a client (e.g. another AP's BA)
        last = self._last_csi_report.get(client, -1.0)
        if t - last < self.params.csi_report_min_interval_s:
            return
        self._last_csi_report[client] = t
        link, _uplink = pair
        reading = link.measure_csi(t, self.node_id, client)
        # Feed the local rate controller too (a no-op for Minstrel; the
        # ESNR-oracle controller keys its MCS choice on this).
        esnr = reading.esnr_db()
        self.radio.peer(client).rate_ctrl.on_esnr(esnr)
        if self.ha is not None:
            self._note_local_esnr(client, t, esnr)
        self.send_ctrl(self.controller_id, CsiReport(reading=reading))

    # ------------------------------------------------------- BA forwarding
    def on_overheard_ba(self, ba: BlockAck, t: float) -> None:
        if not self.params.ba_forwarding:
            return
        client = ba.src
        if self.medium.link_between(self.node_id, client) is None:
            return  # BA from another AP, not from a client
        serving = self.serving_map.get(client)
        if serving is None or serving == self.node_id:
            return
        self.trace.emit(t, "ba_forwarded", from_ap=self.node_id, to_ap=serving,
                        client=client)
        self.send_ctrl(
            serving,
            BaForward(client=client, start_seq=ba.start_seq, bitmap=ba.bitmap),
        )

    # ---------------------------------------------------------- association
    def on_mgmt(self, frame: MgmtFrame, src: int, t: float) -> None:
        if frame.kind in ("assoc_req", "reassoc_req") and frame.dst in (
            self.node_id,
            self.radio.bssid,
        ):
            # Thin-AP association: accept and replicate to the other APs.
            self.add_client(src)
            self.radio.send_mgmt(
                MgmtFrame(src=self.node_id, dst=src, kind="assoc_resp")
            )
            sync = AssocSync(client=src, aid=src)
            for ap_id in self._other_ap_ids():
                self.send_ctrl(ap_id, sync)

    def _other_ap_ids(self) -> List[int]:
        return [
            r.node_id
            for r in self.medium.radios()
            if r.is_ap and r.node_id != self.node_id
            and self.backhaul.is_registered(r.node_id)
        ]
