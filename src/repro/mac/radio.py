"""Station MAC: aggregation, block-ACK exchange, retransmission.

:class:`Radio` implements the parts of the 802.11n data path that APs and
clients share: winning medium access, building A-MPDUs under the airtime
and count caps, the stop-and-wait block-ACK exchange, per-MPDU
retransmission with a retry limit, receiver-side duplicate filtering, and
BA generation.  AP- and client-specific behaviour (queue stacks, CSI
reporting, association) lives in subclasses under :mod:`repro.core`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from ..net.packet import Packet
from ..phy.antenna import OmniAntenna
from ..phy.mcs import McsEntry
from ..sim.engine import EventHandle, Simulator
from ..sim.trace import TraceRecorder
from .airtime import DEFAULT_TIMING, MacTiming, ampdu_airtime_s, block_ack_airtime_s
from .block_ack import BlockAckScoreboard
from .frames import Ampdu, Beacon, BlockAck, MgmtFrame, Mpdu
from .medium import Medium
from .rate_control import MinstrelLite, RateController
from .reorder import RxReorderBuffer

__all__ = ["Radio", "PeerState"]

#: Receiver-side duplicate window (sequence numbers remembered per peer).
RX_DEDUP_WINDOW = 512

#: Per-MPDU software retry limit (ath9k-like).
DEFAULT_RETRY_LIMIT = 10


class PeerState:
    """Per-peer transmit state: sequence space, scoreboard, retries, rate."""

    def __init__(self, rate_ctrl: RateController):
        self.seq_counter_value = 0
        self.scoreboard = BlockAckScoreboard()
        self.rate_ctrl = rate_ctrl
        self.retry_queue: Deque[Mpdu] = deque()
        #: seq -> Mpdu for the aggregate currently awaiting its BA.
        self.outstanding: Dict[int, Mpdu] = {}
        self.mpdus_sent = 0
        self.mpdus_acked = 0
        self.mpdus_dropped = 0
        self.ba_timeouts = 0
        #: Armed by flush_retries: MPDUs that come back unacked after the
        #: flush (they were already on the air when it ran) are dropped
        #: instead of re-queued.  Cleared when fresh data is built for
        #: the peer, i.e. this station legitimately serves it again.
        self.drop_requeues = False

    def next_seq(self) -> int:
        seq = self.seq_counter_value
        self.seq_counter_value = (seq + 1) % 4096
        return seq


class Radio:
    """One 802.11 station (base class for AP and client radios).

    Subclass hooks
    --------------
    ``_select_peer()``
        Which peer the next data aggregate should go to (None = no data).
    ``_pull_packets(peer, max_n)``
        Pop up to ``max_n`` packets destined to ``peer`` from the
        station's queue stack.
    ``_deliver(packet, src, t)``
        A data packet was decoded and passed the duplicate filter.
    ``_on_peer_frame_decoded(src, t)``
        Any frame from ``src`` was decoded (APs hook CSI reporting here).
    ``on_mgmt(frame, src, t)`` / ``on_beacon(beacon, src, t)``
        Management traffic.
    """

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        node_id: int,
        rng: np.random.Generator,
        is_ap: bool,
        position_fn: Callable[[float], Tuple[float, float, float]],
        trace: Optional[TraceRecorder] = None,
        bssid: Optional[int] = None,
        antenna=None,
        tx_power_dbm: float = 18.0,
        timing: MacTiming = DEFAULT_TIMING,
        rate_ctrl_factory: Optional[Callable[[], RateController]] = None,
        retry_limit: int = DEFAULT_RETRY_LIMIT,
        monitor: bool = False,
        channel: int = 11,
    ):
        self.sim = sim
        self.medium = medium
        self.node_id = node_id
        self.rng = rng
        self.is_ap = is_ap
        self.position = position_fn
        self.trace = trace if trace is not None else TraceRecorder(keep_kinds=set())
        self.bssid = bssid if bssid is not None else node_id
        self.antenna = antenna or OmniAntenna(0.0)
        self.tx_power_dbm = tx_power_dbm
        self.timing = timing
        self.retry_limit = retry_limit
        self.monitor = monitor
        #: 2.4 GHz channel number.  The testbed runs everything on channel
        #: 11; the multi-channel extension (paper section 7) assigns
        #: alternating channels to adjacent APs.
        self.channel = channel
        self._rate_ctrl_factory = rate_ctrl_factory or (
            lambda: MinstrelLite(self.rng)
        )
        self.peers: Dict[int, PeerState] = {}
        self._mgmt_queue: Deque[MgmtFrame] = deque()
        self._beacon_queue: Deque[Beacon] = deque()
        self._rx_reorder: Dict[int, RxReorderBuffer] = {}
        self._awaiting_ba: Optional[Tuple[int, Ampdu]] = None
        self._ba_timer: Optional[EventHandle] = None
        self.enabled = True
        #: Opt-in (city builder arms it on APs): after flush_retries, an
        #: aggregate that was already on the air when the flush ran is
        #: dropped on BA timeout instead of re-queued.  Off by default so
        #: single-road drives stay bit-identical to the golden digests.
        self.strict_flush = False
        medium.register_radio(self)

    # ------------------------------------------------------------- peer state
    def peer(self, peer_id: int) -> PeerState:
        state = self.peers.get(peer_id)
        if state is None:
            state = PeerState(self._rate_ctrl_factory())
            self.peers[peer_id] = state
        return state

    def reset_peer(self, peer_id: int) -> None:
        """Drop all transmit state towards a peer (association change)."""
        self.peers.pop(peer_id, None)
        if self._awaiting_ba is not None and self._awaiting_ba[0] == peer_id:
            self._clear_ba_wait()

    def flush_retries(self, peer_id: int) -> int:
        """Discard queued retransmissions towards a peer.

        Used after a WGTT stop(c): once the NIC backlog has drained, the
        old AP must not keep retrying on its inferior link -- the new AP
        owns delivery from index k onward.  Returns how many were dropped.
        """
        state = self.peers.get(peer_id)
        if state is None:
            return 0
        dropped = len(state.retry_queue)
        state.scoreboard.forget([m.seq for m in state.retry_queue])
        state.mpdus_dropped += dropped
        state.retry_queue.clear()
        # An aggregate already on the air survives the flush; without
        # this latch its BA timeout would re-queue the stale MPDUs and
        # this station would retry them long after delivery moved on
        # (deep reordering at the client under saturation).
        if self.strict_flush:
            state.drop_requeues = True
        return dropped

    # ----------------------------------------------------------- power state
    def power_off(self) -> None:
        """Take the station off the air (fault injection: AP crash).

        A disabled radio neither transmits (``kick``/``build_transmission``
        bail out) nor decodes (``on_frame`` bails out).  Queued management
        frames and the pending block-ACK exchange die with the power.
        """
        self.enabled = False
        self._mgmt_queue.clear()
        self._beacon_queue.clear()
        self._clear_ba_wait()

    def power_on(self) -> None:
        """Bring a powered-off station back (fault injection: AP restart)."""
        self.enabled = True
        self.kick()

    # ------------------------------------------------------------ tx plumbing
    def kick(self) -> None:
        """Notify the MAC that there may be something to send."""
        if not self.enabled:
            return
        if self._awaiting_ba is not None:
            return  # stop-and-wait: finish the current exchange first
        if self._mgmt_queue or self._beacon_queue or self._has_data():
            self.medium.request_access(self)

    def send_mgmt(self, frame: MgmtFrame) -> None:
        self._mgmt_queue.append(frame)
        self.kick()

    def send_beacon(self, beacon: Beacon) -> None:
        self._beacon_queue.append(beacon)
        self.kick()

    def _has_data(self) -> bool:
        if any(state.retry_queue for state in self.peers.values()):
            return True
        return self._select_peer() is not None

    def build_transmission(self):
        """Called by the medium when this station wins channel access.

        Returns ``(frame, mcs_or_None)`` or None when there is nothing to
        send (the trigger condition evaporated while contending).
        """
        if not self.enabled:
            return None
        if self._beacon_queue:
            return self._beacon_queue.popleft(), None
        if self._mgmt_queue:
            return self._mgmt_queue.popleft(), None
        if self._awaiting_ba is not None:
            return None
        ampdu = self._build_data_ampdu()
        if ampdu is None:
            return None
        return ampdu, ampdu.mcs

    def _retry_peer(self) -> Optional[int]:
        for peer_id, state in self.peers.items():
            if state.retry_queue:
                return peer_id
        return None

    def _build_data_ampdu(self) -> Optional[Ampdu]:
        peer_id = self._retry_peer()
        if peer_id is None:
            peer_id = self._select_peer()
        if peer_id is None:
            return None
        state = self.peer(peer_id)
        retry_level = state.retry_queue[0].retries if state.retry_queue else 0
        mcs = state.rate_ctrl.choose(retry_level)
        mpdus: List[Mpdu] = []
        payloads: List[int] = []
        # Retries first (they hold the lowest sequence numbers).
        while state.retry_queue and len(mpdus) < self.timing.max_ampdu_frames:
            candidate = state.retry_queue[0]
            if not self._fits(payloads, candidate.payload_bytes, mcs):
                break
            state.retry_queue.popleft()
            mpdus.append(candidate)
            payloads.append(candidate.payload_bytes)
        while len(mpdus) < self.timing.max_ampdu_frames:
            pulled = self._pull_packets(peer_id, 1)
            if not pulled:
                break
            packet = pulled[0]
            if not self._fits(payloads, packet.size_bytes, mcs) and mpdus:
                self._unpull_packet(peer_id, packet)
                break
            mpdus.append(Mpdu(packet=packet, seq=state.next_seq()))
            payloads.append(packet.size_bytes)
            state.drop_requeues = False
        if not mpdus:
            return None
        return Ampdu(
            src=self.node_id,
            dst=peer_id,
            mpdus=mpdus,
            mcs=mcs,
            uplink=not self.is_ap,
        )

    def _fits(self, payloads: List[int], extra: int, mcs: McsEntry) -> bool:
        airtime = ampdu_airtime_s(payloads + [extra], mcs, self.timing)
        return airtime <= self.timing.max_ampdu_airtime_s

    # Subclass hooks -------------------------------------------------------
    def _select_peer(self) -> Optional[int]:
        return None

    def _pull_packets(self, peer_id: int, max_n: int) -> List[Packet]:
        return []

    def _unpull_packet(self, peer_id: int, packet: Packet) -> None:
        """Return a pulled packet that did not fit (subclasses override)."""

    def _deliver(self, packet: Packet, src: int, t: float) -> None:
        pass

    def _on_peer_frame_decoded(self, src: int, t: float) -> None:
        pass

    def on_mgmt(self, frame: MgmtFrame, src: int, t: float) -> None:
        pass

    def on_beacon(self, beacon: Beacon, src: int, t: float) -> None:
        pass

    def on_overheard_block_ack(self, ba: BlockAck, t: float) -> None:
        """Monitor-mode hook: a BA addressed to someone else was decoded."""

    def _ba_response_delay(self) -> float:
        """SIFS, plus the microsecond jitter APs exhibit (section 5.3.2)."""
        if self.is_ap:
            return self.timing.sifs_s + float(
                self.rng.uniform(0.0, self.medium.params.ba_jitter_s)
            )
        return self.timing.sifs_s

    # --------------------------------------------------------- medium events
    def on_transmission_started(self, tx) -> None:
        frame = tx.frame
        if isinstance(frame, Ampdu):
            state = self.peer(frame.dst)
            seqs = frame.seqs()
            state.scoreboard.record_sent(seqs)
            for mpdu in frame.mpdus:
                state.outstanding[mpdu.seq] = mpdu
                mpdu.retries += 1
            state.mpdus_sent += len(seqs)
            self._awaiting_ba = (frame.dst, frame)
            self.trace.emit(
                self.sim.now, "ampdu_tx",
                node=self.node_id, dst=frame.dst, mcs=frame.mcs.index,
                rate_mbps=frame.mcs.phy_rate_mbps, n_mpdus=frame.n_mpdus,
                uplink=frame.uplink,
            )

    def on_transmission_complete(self, tx) -> None:
        frame = tx.frame
        if isinstance(frame, Ampdu):
            # Arm the BA timeout: SIFS + jitter window + BA airtime + slack.
            timeout = (
                self.timing.sifs_s
                + self.medium.params.ba_jitter_s
                + block_ack_airtime_s(self.timing)
                + 60e-6
            )
            self._ba_timer = self.sim.schedule(timeout, self._ba_timeout, frame)
        else:
            self.sim.schedule(0.0, self.kick)

    def on_frame(self, frame, src: int, outcome, t: float) -> None:
        """Entry point from the medium for every decodable frame."""
        if not self.enabled:
            return
        if isinstance(frame, Ampdu):
            self._on_data_ampdu(frame, src, outcome, t)
        elif isinstance(frame, BlockAck):
            # Any decoded frame from a peer is a channel measurement
            # opportunity (the CSI tool measures *every* incoming frame).
            self._on_peer_frame_decoded(frame.src, t)
            if frame.dst == self.node_id or frame.dst == self.bssid:
                self._on_block_ack(frame, t)
            elif self.monitor:
                self.on_overheard_block_ack(frame, t)
        elif isinstance(frame, MgmtFrame):
            self._on_peer_frame_decoded(src, t)
            self.on_mgmt(frame, src, t)
        elif isinstance(frame, Beacon):
            self.on_beacon(frame, src, t)

    # ------------------------------------------------------------- data path
    def _on_data_ampdu(self, frame: Ampdu, src: int, outcome: Dict[int, bool], t: float) -> None:
        decoded = [m for m in frame.mpdus if outcome.get(m.seq)]
        addressed_to_me = frame.dst == self.node_id or frame.dst == self.bssid
        if decoded:
            self._on_peer_frame_decoded(src, t)
        if not addressed_to_me:
            # Monitor path: data overheard but not ours; APs may still use
            # the decode event for CSI (handled above).
            return
        if decoded:
            reorder = self._rx_reorder.get(src)
            if reorder is None:
                # 802.11n receive reorder buffer: releases MPDUs to the
                # upper layers in sequence order despite link retries.
                reorder = RxReorderBuffer(
                    self.sim,
                    lambda pkt, _src=src: self._deliver(pkt, _src, self.sim.now),
                )
                self._rx_reorder[src] = reorder
            for mpdu in decoded:
                reorder.on_mpdu(mpdu.seq, mpdu.packet)
            # APs acknowledge as the BSSID: the client sees one AP identity
            # no matter which physical AP answered (thin-AP illusion).
            ba = BlockAck.for_seqs(
                src=self.bssid if self.is_ap else self.node_id,
                dst=src,
                seqs=[m.seq for m in decoded],
                start_seq=frame.mpdus[0].seq,
            )
            self.medium.send_response(self, ba, self._ba_response_delay())

    def _on_block_ack(self, ba: BlockAck, t: float) -> None:
        if self._awaiting_ba is None:
            # Late or forwarded BA; still apply to cancel queued retries.
            self._apply_ba(ba, t, live=False)
            return
        peer_id, _frame = self._awaiting_ba
        self._apply_ba(ba, t, live=(ba.src == peer_id))

    def apply_forwarded_block_ack(self, ba: BlockAck, t: float) -> None:
        """Apply a BA that arrived over the backhaul (WGTT forwarding)."""
        self._apply_ba(ba, t, live=self._awaiting_ba is not None)

    def _ba_peer_state(self, ba: BlockAck) -> Optional[Tuple[int, PeerState]]:
        # The BA's src is the acknowledging station.  Downlink: src is the
        # client.  Uplink: the AP answers with src == bssid, so the client
        # resolves it to its serving peer.
        if ba.src in self.peers:
            return ba.src, self.peers[ba.src]
        if self._awaiting_ba is not None:
            peer_id = self._awaiting_ba[0]
            if peer_id in self.peers:
                return peer_id, self.peers[peer_id]
        return None

    def _apply_ba(self, ba: BlockAck, t: float, live: bool) -> None:
        resolved = self._ba_peer_state(ba)
        if resolved is None:
            return
        peer_id, state = resolved
        result = state.scoreboard.apply_block_ack(ba)
        if result is None:
            return  # duplicate BA (air + backhaul copies)
        acked, _unacked = result
        for seq in acked:
            mpdu = state.outstanding.pop(seq, None)
            if mpdu is not None:
                state.mpdus_acked += 1
                self._on_mpdu_acked(peer_id, mpdu, t)
            else:
                self._cancel_retry(state, seq, peer_id, t)
        if live and self._awaiting_ba is not None and self._awaiting_ba[0] == peer_id:
            _pid, frame = self._awaiting_ba
            n_sent = frame.n_mpdus
            acked_seqs = set(acked)
            n_acked = sum(1 for m in frame.mpdus if m.seq in acked_seqs)
            state.rate_ctrl.on_result(frame.mcs, n_sent, n_acked)
            # Whatever was not acked goes to the retry queue now.
            self._queue_retries(peer_id, state, frame, t)
            self._clear_ba_wait()
            self.sim.schedule(0.0, self.kick)

    def _cancel_retry(self, state: PeerState, seq: int, peer_id: int, t: float) -> None:
        for mpdu in list(state.retry_queue):
            if mpdu.seq == seq:
                state.retry_queue.remove(mpdu)
                state.mpdus_acked += 1
                self._on_mpdu_acked(peer_id, mpdu, t)
                return

    def _queue_retries(self, peer_id: int, state: PeerState, frame: Ampdu, t: float) -> None:
        for mpdu in frame.mpdus:
            if mpdu.seq not in state.outstanding:
                continue
            del state.outstanding[mpdu.seq]
            if mpdu.retries >= self.retry_limit or state.drop_requeues:
                state.mpdus_dropped += 1
                state.scoreboard.forget([mpdu.seq])
                self._on_mpdu_dropped(peer_id, mpdu, t)
            else:
                state.retry_queue.append(mpdu)

    def _ba_timeout(self, frame: Ampdu) -> None:
        if self._awaiting_ba is None or self._awaiting_ba[1] is not frame:
            return
        peer_id = frame.dst
        state = self.peer(peer_id)
        state.ba_timeouts += 1
        state.rate_ctrl.on_result(frame.mcs, frame.n_mpdus, 0)
        self.trace.emit(self.sim.now, "ba_timeout", node=self.node_id, peer=peer_id)
        self._queue_retries(peer_id, state, frame, self.sim.now)
        self._clear_ba_wait()
        self.kick()

    def _clear_ba_wait(self) -> None:
        self._awaiting_ba = None
        if self._ba_timer is not None:
            self._ba_timer.cancel()
            self._ba_timer = None

    # ---------------------------------------------------------- subclass API
    def _on_mpdu_acked(self, peer_id: int, mpdu: Mpdu, t: float) -> None:
        pass

    def _on_mpdu_dropped(self, peer_id: int, mpdu: Mpdu, t: float) -> None:
        pass
