"""The shared wireless channel.

All APs and clients operate on one 2.4 GHz channel (channel 11 in the
testbed).  The medium model provides:

* **Channel access** -- CSMA/CA with DIFS + uniform backoff.  Carrier
  sense has finite range (computed from mean received power against a CS
  threshold), so spatially separated exchanges proceed concurrently --
  this is what differentiates the paper's parallel-driving and
  opposing-driving scenarios (Fig. 20).
* **The vulnerable window** -- a station that starts transmitting cannot
  be sensed for one slot; a second station starting within that slot
  collides rather than defers.
* **Reception** -- per-MPDU Bernoulli delivery from the link's
  instantaneous ESNR, SINR capture checks against overlapping
  transmissions, and delivery to monitor-mode interfaces (the WGTT block
  ACK forwarding path overhears through these).
* **Responses** -- block ACKs are scheduled SIFS after the data (plus a
  microsecond-scale jitter for AP responders), transmitted without
  contention inside the initiator's NAV window.  Multiple APs answering
  the same uplink aggregate can therefore collide at the client, which is
  exactly the effect Table 3 quantifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..phy.channel import Link
from ..phy.mcs import MCS_TABLE, McsEntry, pdr
from ..phy.pathloss import LogDistancePathLoss
from ..sim.engine import EventHandle, Simulator
from ..sim.trace import TraceRecorder
from .airtime import (
    BLOCK_ACK_BYTES,
    DEFAULT_TIMING,
    MacTiming,
    ampdu_airtime_s,
    beacon_airtime_s,
    block_ack_airtime_s,
    control_frame_airtime_s,
    MGMT_BYTES,
)
from .frames import Ampdu, Beacon, BlockAck, MgmtFrame

__all__ = ["Medium", "MediumParams", "Transmission"]

Frame = Union[Ampdu, BlockAck, MgmtFrame, Beacon]

#: Robust MCS used to model decoding of legacy-rate control/mgmt frames.
CTRL_MCS = MCS_TABLE[0]


@dataclass
class MediumParams:
    """Knobs of the channel-access and capture model."""

    cs_threshold_dbm: float = -82.0
    capture_margin_db: float = 10.0
    #: Minimum mean SNR for a receiver to even attempt decoding (cheap cull).
    decode_floor_db: float = -3.0
    #: AP block-ACK response jitter upper bound (the paper measured the
    #: HT-immediate BA turnaround varying on a microsecond scale).  Wide
    #: enough that two responders' starts rarely fall within the preamble
    #: detection window, so deferral -- not collision -- is the norm.
    ba_jitter_s: float = 150e-6
    rx_processing_s: float = 0.0


@dataclass(slots=True, eq=False)
class Transmission:
    """One frame on the air (compared by identity)."""

    radio: "object"  # repro.mac.radio.Radio (duck-typed to avoid a cycle)
    frame: Frame
    t_start: float
    data_end: float
    nav_end: float
    is_response: bool = False

    def overlaps(self, other: "Transmission") -> bool:
        return self.t_start < other.data_end and other.t_start < self.data_end


class Medium:
    """Single-channel wireless medium with spatial carrier sense."""

    def __init__(
        self,
        sim: Simulator,
        rng: np.random.Generator,
        trace: Optional[TraceRecorder] = None,
        timing: MacTiming = DEFAULT_TIMING,
        params: Optional[MediumParams] = None,
    ):
        self.sim = sim
        self.rng = rng
        self.trace = trace if trace is not None else TraceRecorder(keep_kinds=set())
        self.timing = timing
        self.params = params or MediumParams()
        self._radios: Dict[int, object] = {}
        #: node -> peer -> (Link, uplink?).  AP/client pairs are the only
        #: radio channels with a full fading model; infra-infra and
        #: client-client coupling use mean path loss (they matter only for
        #: carrier sense/capture).  ``add_link`` files each link under both
        #: ends, so a lookup is two dict probes with no tuple key.
        self._peers: Dict[int, Dict[int, Tuple[Link, bool]]] = {}
        # AP-AP coupling: the array shares one building face, so APs hear
        # each other through near-line-of-sight leakage regardless of where
        # their parabolic antennas point (0 dBi effective gain, free-space
        # exponent).  Client-client coupling is street-level omni.
        self._infra_pathloss = LogDistancePathLoss(exponent=2.0)
        self._street_pathloss = LogDistancePathLoss(exponent=2.8, extra_loss_db=10.0)
        self._active: List[Transmission] = []
        self._pending_access: Dict[int, EventHandle] = {}
        self._retry_cw: Dict[int, int] = {}
        # Statistics
        self.data_transmissions = 0
        self.response_transmissions = 0
        self.responses_suppressed = 0
        self.collisions = 0

    # ---------------------------------------------------------- registration
    def register_radio(self, radio) -> None:
        if radio.node_id in self._radios:
            raise ValueError(f"radio {radio.node_id} already registered")
        self._radios[radio.node_id] = radio

    def add_link(self, ap_id: int, client_id: int, link: Link) -> None:
        self._peers.setdefault(ap_id, {})[client_id] = (link, False)
        # A link added in the (ap_id, client_id) direction keeps
        # precedence over the reverse view of another link.
        reverse = self._peers.setdefault(client_id, {})
        known = reverse.get(ap_id)
        if known is None or known[1]:
            reverse[ap_id] = (link, True)

    def link_between(self, node_a: int, node_b: int) -> Optional[Tuple[Link, bool]]:
        """Return (link, uplink?) for an AP/client pair, else None.

        ``uplink`` is True when ``node_a`` (the transmitter) is the client.
        """
        peers = self._peers.get(node_a)
        return None if peers is None else peers.get(node_b)

    def radios(self) -> List[object]:
        return list(self._radios.values())

    # -------------------------------------------------------------- RF maths
    def rx_power_dbm(self, tx_radio, rx_radio, t: float) -> float:
        """Mean received power of ``tx_radio``'s signal at ``rx_radio``."""
        pair = self.link_between(tx_radio.node_id, rx_radio.node_id)
        if pair is not None:
            link, uplink = pair
            return link.rx_power_dbm(t, uplink=uplink)
        tx_pos = tx_radio.position(t)
        rx_pos = rx_radio.position(t)
        d = math.dist(tx_pos, rx_pos)
        if tx_radio.is_ap and rx_radio.is_ap:
            # Leakage path between co-sited APs: pattern-independent.
            return tx_radio.tx_power_dbm - self._infra_pathloss.loss_db(d)
        # Client-client: omni antennas at street level.
        return tx_radio.tx_power_dbm - self._street_pathloss.loss_db(d)

    @staticmethod
    def _same_channel(a, b) -> bool:
        return getattr(a, "channel", 11) == getattr(b, "channel", 11)

    def _audible(self, tx_radio, rx_radio, t: float) -> bool:
        if tx_radio is rx_radio:
            return False
        if not self._same_channel(tx_radio, rx_radio):
            return False  # 2.4 GHz channels 1/6/11 are orthogonal
        return self.rx_power_dbm(tx_radio, rx_radio, t) > self.params.cs_threshold_dbm

    # ------------------------------------------------------- candidate hooks
    # Subclasses with spatial partitioning (repro.city.ShardedMedium)
    # override these five hooks to bound the sets scanned by carrier
    # sense, capture, and reception.  The base implementations return the
    # global sets in insertion order, so the default single-road medium
    # is bit-identical to the pre-hook code.
    def _activate(self, tx: Transmission) -> None:
        """Record ``tx`` as on the air."""
        self._active.append(tx)

    def _deactivate(self, tx: Transmission) -> None:
        """Remove ``tx`` from the on-air set (idempotent)."""
        try:
            self._active.remove(tx)
        except ValueError:  # pragma: no cover - defensive
            pass

    def _active_near(self, radio) -> List[Transmission]:
        """Active transmissions that could be audible at ``radio``."""
        return self._active

    def _interference_candidates(self, tx: Transmission, rx_radio) -> List[Transmission]:
        """Active transmissions that could interfere with ``tx`` at ``rx_radio``."""
        return self._active

    def _receiver_candidates(self, tx: Transmission) -> List[object]:
        """Radios that could possibly hear ``tx``."""
        return list(self._radios.values())

    def busy_until(self, radio, t: float) -> float:
        """Latest NAV end among transmissions audible to ``radio``."""
        busy = t
        for tx in self._active_near(radio):
            if tx.radio is radio:
                busy = max(busy, tx.nav_end)
            elif tx.nav_end > t and self._audible(tx.radio, radio, t):
                busy = max(busy, tx.nav_end)
        return busy

    # --------------------------------------------------------- channel access
    def request_access(self, radio) -> None:
        """Ask for a transmit opportunity; the medium will call
        ``radio.build_transmission()`` when the station wins access.

        Idempotent while a request is outstanding.
        """
        if radio.node_id in self._pending_access:
            return
        self._retry_cw.setdefault(radio.node_id, self.timing.cw_min)
        handle = self.sim.schedule(0.0, self._attempt, radio)
        self._pending_access[radio.node_id] = handle

    def cancel_access(self, radio) -> None:
        handle = self._pending_access.pop(radio.node_id, None)
        if handle is not None:
            handle.cancel()

    def _attempt(self, radio) -> None:
        now = self.sim.now
        busy = self.busy_until(radio, now)
        if busy > now + 1e-12:
            # Defer: come back when the channel frees up.  Every station
            # parked behind the same NAV edge wakes at the same instant, so
            # the whole contention round is coalesced into one heap event;
            # stations re-attempt (and draw backoff) in the order they
            # deferred, exactly as N separate wake-ups would have.
            self._pending_access[radio.node_id] = self.sim.schedule_batch_at(
                busy + 1e-9, self._attempt, radio, key=self
            )
            return
        cw = self._retry_cw.get(radio.node_id, self.timing.cw_min)
        backoff_slots = int(self.rng.integers(0, cw))
        start = now + self.timing.difs_s + backoff_slots * self.timing.slot_s
        self._pending_access[radio.node_id] = self.sim.schedule_at(
            start, self._start_tx, radio
        )

    def _start_tx(self, radio) -> None:
        now = self.sim.now
        self._pending_access.pop(radio.node_id, None)
        # Re-check the channel.  A transmission that started more than one
        # slot ago is sensed (defer); one inside the vulnerable window is
        # not (we transmit anyway and may collide).
        for tx in self._active_near(radio):
            if tx.nav_end > now and tx.t_start < now - self.timing.slot_s:
                if self._audible(tx.radio, radio, now):
                    self._pending_access[radio.node_id] = self.sim.schedule(
                        0.0, self._attempt, radio
                    )
                    return
        descriptor = radio.build_transmission()
        if descriptor is None:
            return  # nothing to send any more
        frame, mcs = descriptor
        self._transmit(radio, frame, mcs)

    # ----------------------------------------------------------- transmission
    def _frame_airtime(self, frame: Frame, mcs: Optional[McsEntry]) -> float:
        if isinstance(frame, Ampdu):
            assert mcs is not None
            return ampdu_airtime_s(
                [m.payload_bytes for m in frame.mpdus], mcs, self.timing
            )
        if isinstance(frame, BlockAck):
            return block_ack_airtime_s(self.timing)
        if isinstance(frame, Beacon):
            return beacon_airtime_s(self.timing)
        return control_frame_airtime_s(MGMT_BYTES, self.timing)

    def _transmit(self, radio, frame: Frame, mcs: Optional[McsEntry]) -> None:
        now = self.sim.now
        airtime = self._frame_airtime(frame, mcs)
        data_end = now + airtime
        nav_end = data_end
        if isinstance(frame, Ampdu):
            # Reserve room for the BA exchange inside the NAV.
            nav_end += (
                self.timing.sifs_s
                + self.params.ba_jitter_s
                + block_ack_airtime_s(self.timing)
            )
        tx = Transmission(radio, frame, now, data_end, nav_end)
        self._activate(tx)
        self.data_transmissions += 1
        self.sim.schedule_at(data_end, self._complete, tx, mcs)
        self.sim.schedule_at(nav_end + 1e-9, self._cleanup, tx)
        # Access won: reset this station's contention window.
        self._retry_cw[radio.node_id] = self.timing.cw_min
        radio.on_transmission_started(tx)

    def send_response(self, radio, frame: Frame, delay_s: float) -> None:
        """Send a control response (block ACK) ``delay_s`` after now.

        Responses skip contention: 802.11 responses go out SIFS after the
        soliciting frame, inside its NAV reservation.
        """
        self.sim.schedule(delay_s, self._transmit_response, radio, frame)

    def _transmit_response(self, radio, frame: Frame) -> None:
        now = self.sim.now
        # Responder-side deferral: when several APs decode the same uplink
        # aggregate, the one whose turnaround jitter fires later *hears*
        # the earlier BA already on the air (co-sited APs are mutually
        # audible) and suppresses its own -- the mechanism the paper
        # credits for the near-zero collision rate of Table 3.  Only
        # starts within the preamble-detection window can still collide.
        detect_window = 2e-6
        for other in self._active_near(radio):
            if (
                other.is_response
                and other.data_end > now
                and other.t_start <= now - detect_window
                and self._audible(other.radio, radio, now)
            ):
                self.responses_suppressed += 1
                return
        airtime = self._frame_airtime(frame, None)
        tx = Transmission(radio, frame, now, now + airtime, now + airtime, is_response=True)
        self._activate(tx)
        self.response_transmissions += 1
        self.sim.schedule_at(tx.data_end, self._complete, tx, None)
        self.sim.schedule_at(tx.nav_end + 1e-9, self._cleanup, tx)

    def _cleanup(self, tx: Transmission) -> None:
        self._deactivate(tx)

    # -------------------------------------------------------------- reception
    def _interferers(self, tx: Transmission, rx_radio, t: float) -> List[Transmission]:
        out = []
        for other in self._interference_candidates(tx, rx_radio):
            if other is tx or other.radio is tx.radio or other.radio is rx_radio:
                continue
            if not self._same_channel(other.radio, rx_radio):
                continue
            if other.overlaps(tx):
                out.append(other)
        return out

    def _captured(self, tx: Transmission, rx_radio, t: float) -> bool:
        """True when ``rx_radio`` can decode ``tx`` despite any overlap."""
        interferers = self._interferers(tx, rx_radio, t)
        if not interferers:
            return True
        p_sig = self.rx_power_dbm(tx.radio, rx_radio, t)
        p_int_max = max(
            self.rx_power_dbm(o.radio, rx_radio, t) for o in interferers
        )
        # Interference far below the CS threshold cannot break reception.
        if p_int_max < self.params.cs_threshold_dbm - 10.0:
            return True
        if p_sig - p_int_max >= self.params.capture_margin_db:
            return True
        self.collisions += 1
        self.trace.emit(t, "phy_collision", rx=rx_radio.node_id, tx=tx.radio.node_id)
        return False

    def _candidate_receivers(self, tx: Transmission) -> List[object]:
        # The frame's type is fixed across the scan, so branch on it once
        # and run a type-specialised loop (same membership, same order).
        frame = tx.frame
        tx_radio = tx.radio
        same_channel = self._same_channel
        out = []
        if isinstance(frame, Beacon):
            for radio in self._receiver_candidates(tx):
                if radio is tx_radio or radio.is_ap:
                    continue
                if same_channel(tx_radio, radio):
                    out.append(radio)
        elif isinstance(frame, MgmtFrame):
            # Management frames are processed by any station that can
            # decode them (the baseline forwards overheard assoc frames).
            for radio in self._receiver_candidates(tx):
                if radio is not tx_radio and same_channel(tx_radio, radio):
                    out.append(radio)
        else:
            dst = frame.dst
            from_client = not tx_radio.is_ap
            for radio in self._receiver_candidates(tx):
                if radio is tx_radio:
                    continue
                if not same_channel(tx_radio, radio):
                    continue  # a receiver tuned elsewhere hears nothing
                if dst == radio.node_id or dst == getattr(radio, "bssid", None):
                    out.append(radio)
                elif from_client and getattr(radio, "monitor", False):
                    # Monitor interfaces only care about client-originated
                    # frames (uplink data and the client's block ACKs).
                    out.append(radio)
        return out

    def _complete(self, tx: Transmission, mcs: Optional[McsEntry]) -> None:
        t = self.sim.now
        frame = tx.frame
        tx_id = tx.radio.node_id
        floor = self.params.decode_floor_db
        rng_random = self.rng.random
        link_between = self.link_between
        is_ampdu = isinstance(frame, Ampdu)
        if is_ampdu:
            # All PHY quantities of a data frame are sampled at the frame
            # midpoint: the floor cull, the capture check, and the ESNR the
            # per-MPDU Bernoulli draws use.  One instant per frame means the
            # link memo serves every nested lookup after the first.
            sample_t = tx.t_start + (tx.data_end - tx.t_start) / 2.0
            mpdu_sizes = [(m.seq, m.payload_bytes) for m in frame.mpdus]
        else:
            # Control/management frames sample at the preamble (t_start),
            # where detection physically happens; the RSSI proxy below
            # already did, so floor + capture + quality share one memo key.
            sample_t = tx.t_start
            ctrl_bytes = BLOCK_ACK_BYTES if isinstance(frame, BlockAck) else MGMT_BYTES
        for radio in self._candidate_receivers(tx):
            pair = link_between(tx_id, radio.node_id)
            if pair is None:
                # Infra-infra/client-client: only mgmt matters and only at
                # extreme proximity; skip (backhaul carries infra traffic).
                continue
            link, uplink = pair
            if link.mean_snr_db(sample_t, uplink=uplink) < floor:
                continue
            if not self._captured(tx, radio, sample_t):
                if is_ampdu:
                    radio.on_frame(frame, tx_id, {s: False for s in frame.seqs()}, t)
                continue
            if is_ampdu:
                esnr = link.esnr_db(sample_t, uplink=uplink)
                outcomes = {}
                pdr_by_size: Dict[int, float] = {}
                for seq, n_bytes in mpdu_sizes:
                    p = pdr_by_size.get(n_bytes)
                    if p is None:
                        p = pdr(esnr, mcs, n_bytes=n_bytes)
                        pdr_by_size[n_bytes] = p
                    outcomes[seq] = bool(rng_random() < p)
                radio.on_frame(frame, tx_id, outcomes, t)
            else:
                # The wideband RSSI proxy (flat fading gain) is accurate
                # enough here and far cheaper than a full ESNR evaluation.
                quality = link.rssi_db(sample_t, uplink=uplink)
                ok = rng_random() < pdr(quality, CTRL_MCS, n_bytes=ctrl_bytes)
                if ok:
                    radio.on_frame(frame, tx_id, True, t)
        tx.radio.on_transmission_complete(tx)
