"""The shared wireless channel.

All APs and clients of the testbed operate on one 2.4 GHz channel
(channel 11); the multi-channel extension (paper section 7) and the
city grid give adjacent arrays different channels.  The medium model
provides:

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

**Spatial partition.**  Radios and on-air transmissions are bucketed per
``(channel, cell_x, cell_y)`` on a square grid of edge ``cell_m``.
Carrier sense, capture and receiver enumeration scan the 3x3
neighbourhood of the querying radio's bucket, so a city's event cost
follows local density rather than city size.  The neighbourhood is the
cross-bucket coupling: a transmission in a boundary cell appears in
queries from every adjacent cell, so deferral, the vulnerable window and
capture work across cell edges exactly as within one cell.  The
neighbourhood reaches one to two cells past the querying radio (75-150 m
at the city default of 75 m), beyond street-level carrier sense
(~43 m); the physics it cuts off is same-channel AP-to-AP leakage
beyond that reach, which the free-space infra path would otherwise
carry above the carrier-sense threshold for hundreds of metres.
Mobile radios are re-bucketed every :data:`REBUCKET_INTERVAL_S`; a
channel change goes through :meth:`Medium.retune`, which re-keys at once.

The default ``cell_m=inf`` puts every radio of a channel in one bucket,
whose neighbourhood is itself.  Its lists hold exactly the radios and
transmissions a global scan would keep after its same-channel filter, in
the same order as long as every retune follows its radio's registration
(as the builders do), and motion never changes the cell, so no
re-bucketing tick runs: the single-road drive fires the same events and
draws the same random numbers as a medium with no partition at all.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

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

#: Period of the mobile-radio re-bucketing tick: bounds a moving radio's
#: bucket staleness to ~1 m of motion, which the 3x3 neighbourhood absorbs.
REBUCKET_INTERVAL_S = 0.1

BucketKey = Tuple[int, int, int]  # (channel, cell_x, cell_y)

#: 3x3 neighbourhood offsets in fixed scan order (determinism).
_NEIGHBORHOOD = tuple((dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1))


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
    #: The medium bucket this transmission is on the air in.
    bucket: Optional["_Bucket"] = None

    def overlaps(self, other: "Transmission") -> bool:
        return self.t_start < other.data_end and other.t_start < self.data_end


class _Bucket:
    """Radios and on-air transmissions of one (channel, cell)."""

    __slots__ = ("key", "radios", "active", "near")

    def __init__(self, key: BucketKey):
        self.key = key
        #: node_id -> radio, insertion-ordered (dict semantics).
        self.radios: Dict[int, object] = {}
        #: Transmissions currently on the air from radios in this cell.
        self.active: List[Transmission] = []
        #: The 3x3 neighbourhood as bucket objects, built on first query.
        self.near: Optional[List["_Bucket"]] = None


class Medium:
    """Wireless medium with spatial carrier sense, bucketed per
    ``(channel, cell)`` on a grid of edge ``cell_m``."""

    def __init__(
        self,
        sim: Simulator,
        rng: np.random.Generator,
        trace: Optional[TraceRecorder] = None,
        timing: MacTiming = DEFAULT_TIMING,
        params: Optional[MediumParams] = None,
        cell_m: float = math.inf,
    ):
        if not cell_m > 0:
            raise ValueError("cell_m must be positive")
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
        self.cell_m = float(cell_m)
        self._buckets: Dict[BucketKey, _Bucket] = {}
        self._radio_bucket: Dict[int, _Bucket] = {}
        #: Radios that move (clients), re-bucketed by the periodic tick.
        self._mobile: List[object] = []
        self._pending_access: Dict[int, EventHandle] = {}
        self._retry_cw: Dict[int, int] = {}
        # Statistics
        self.data_transmissions = 0
        self.response_transmissions = 0
        self.responses_suppressed = 0
        self.collisions = 0
        self.rebuckets = 0
        if math.isfinite(self.cell_m):
            # An infinite cell never changes with motion: no tick needed.
            sim.call_every(REBUCKET_INTERVAL_S, self._rebucket_mobile)

    # ---------------------------------------------------------- registration
    def register_radio(self, radio) -> None:
        if radio.node_id in self._radios:
            raise ValueError(f"radio {radio.node_id} already registered")
        self._radios[radio.node_id] = radio
        self._rekey(radio)
        if not radio.is_ap:
            self._mobile.append(radio)

    def retune(self, radio, channel: int) -> None:
        """Move ``radio`` to ``channel`` and re-key its bucket at once."""
        radio.channel = channel
        self._rekey(radio)

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

    # ------------------------------------------------------------ buckets
    def _rekey(self, radio) -> _Bucket:
        """File ``radio`` under its current (channel, cell); return the bucket."""
        x, y, _ = radio.position(self.sim.now)
        key = (
            getattr(radio, "channel", 11),
            math.floor(x / self.cell_m),
            math.floor(y / self.cell_m),
        )
        old = self._radio_bucket.get(radio.node_id)
        if old is not None:
            if old.key == key:
                return old
            del old.radios[radio.node_id]
            self.rebuckets += 1
        bucket = self._bucket(key)
        bucket.radios[radio.node_id] = radio
        self._radio_bucket[radio.node_id] = bucket
        return bucket

    def _rebucket_mobile(self) -> None:
        for radio in self._mobile:
            self._rekey(radio)

    def _bucket(self, key: BucketKey) -> _Bucket:
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = _Bucket(key)
        return bucket

    def _near(self, bucket: _Bucket) -> List[_Bucket]:
        """Build ``bucket``'s 3x3 neighbourhood, or just ``bucket`` for
        an infinite cell.  Bucket objects are never replaced, so the list
        stays valid for the life of the run (callers read ``bucket.near``
        first and call this only while it is unset)."""
        if math.isfinite(self.cell_m):
            channel, cx, cy = bucket.key
            bucket.near = [
                self._bucket((channel, cx + dx, cy + dy))
                for dx, dy in _NEIGHBORHOOD
            ]
        else:
            bucket.near = [bucket]
        return bucket.near

    def _activate(self, tx: Transmission) -> None:
        """Put ``tx`` on the air in its radio's bucket."""
        # A mobile radio's bucket is at most one tick stale (~1 m of
        # motion); the 3x3 neighbourhood absorbs a one-cell-late key.
        bucket = self._radio_bucket[tx.radio.node_id]
        bucket.active.append(tx)
        tx.bucket = bucket

    def _active_near(self, radio) -> List[Transmission]:
        """On-air transmissions that could be audible at ``radio``."""
        bucket = self._radio_bucket[radio.node_id]
        near = bucket.near or self._near(bucket)
        if len(near) == 1:
            return near[0].active
        out: List[Transmission] = []
        for bucket in near:
            if bucket.active:
                out.extend(bucket.active)
        return out

    def _radios_near(self, tx: Transmission) -> Iterable[object]:
        """Radios that could possibly hear ``tx``."""
        near = tx.bucket.near or self._near(tx.bucket)
        if len(near) == 1:
            return near[0].radios.values()
        out: List[object] = []
        for bucket in near:
            if bucket.radios:
                out.extend(bucket.radios.values())
        return out

    def shard_stats(self) -> Dict[str, int]:
        """Bucket occupancy counters for the benchmarks."""
        occupied = [b for b in self._buckets.values() if b.radios]
        return {
            "shards": len(self._buckets),
            "occupied_shards": len(occupied),
            "max_radios_per_shard": max(
                (len(b.radios) for b in occupied), default=0
            ),
            "rebuckets": self.rebuckets,
        }

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
        tx.bucket.active.remove(tx)

    # -------------------------------------------------------------- reception
    def _interferers(self, tx: Transmission, rx_radio, t: float) -> List[Transmission]:
        out = []
        for other in self._active_near(rx_radio):
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
            for radio in self._radios_near(tx):
                if radio is tx_radio or radio.is_ap:
                    continue
                if same_channel(tx_radio, radio):
                    out.append(radio)
        elif isinstance(frame, MgmtFrame):
            # Management frames are processed by any station that can
            # decode them (the baseline forwards overheard assoc frames).
            for radio in self._radios_near(tx):
                if radio is not tx_radio and same_channel(tx_radio, radio):
                    out.append(radio)
        else:
            dst = frame.dst
            from_client = not tx_radio.is_ap
            for radio in self._radios_near(tx):
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
