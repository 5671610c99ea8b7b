"""Differential test: lazy downlink arrival against per-copy delivery.

The controller's multicast hands one shared packet to every in-range AP.
A serving AP gets a wake-up event per packet; every other AP logs the
packet with its arrival time and folds it into its ring on the next read.

The reference model below is a :class:`WgttAp` without a multicast sink,
so the backhaul gives it one delivery event per (packet, AP) hop: every
copy lands in the ring at its arrival time.  Hypothesis drives both
through the same random interleaving of multicasts, stop/start, flushes,
controller hellos and AP crashes on a jittery, lossy 3-AP backhaul, and
the rings must agree at every control-plane read.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.ap import WgttAp
from repro.core.cyclic_queue import INDEX_MODULO
from repro.core.messages import (
    AssocSync,
    ControllerHello,
    FlushClient,
    StartMsg,
    StopMsg,
    ctrl_packet,
)
from repro.mac.medium import Medium
from repro.net.ethernet import Backhaul, BackhaulParams
from repro.net.packet import Packet
from repro.phy.antenna import ParabolicAntenna
from repro.sim.engine import Simulator

CONTROLLER = 1
STANDBY = 2  # a second downlink sender, as after an HA takeover
AP_IDS = (100, 101, 102)
CLIENTS = (500, 501)


class _RadioStub:
    """No MAC: the rings are the object under test."""

    def kick(self):
        pass

    def flush_retries(self, client):
        pass

    def reset_peer(self, client):
        pass

    def power_off(self):
        pass

    def power_on(self):
        pass


class _Recording:
    """Snapshots every ring after each control-plane message."""

    def handle_ctrl(self, msg, src):
        super().handle_ctrl(msg, src)
        self.log.append(snapshot(self, type(msg).__name__))


class LazyAp(_Recording, WgttAp):
    pass


class EagerAp(_Recording, WgttAp):
    """Reference model: a delivery event for every multicast copy."""

    _accept_downlink = None


def snapshot(ap, what):
    ap._absorb_arrived()  # a ring read, as every AP-side reader does
    rings = []
    for client, pipe in ap.pipelines.items():
        rings.append((
            client,
            pipe.serving,
            pipe.cyclic.read_index,
            pipe.cyclic.next_insert_index,
            tuple(pipe.cyclic.pending()),
            tuple(p.uid for p in pipe.driver),
        ))
    return (round(ap.sim.now, 12), ap.node_id, what, ap.alive, tuple(rings))


def build(ap_cls, seed):
    sim = Simulator()
    backhaul = Backhaul(sim, np.random.default_rng(seed), params=BackhaulParams(
        jitter_s=100e-6, link_jitter_s=1.5e-3, loss_probability=0.1,
    ))
    backhaul.register(CONTROLLER, lambda packet, src: None)
    backhaul.register(STANDBY, lambda packet, src: None)
    medium = Medium(sim, np.random.default_rng(8))
    aps = {}
    for i, node_id in enumerate(AP_IDS):
        position = (20.0 * i, 0.0, 4.0)
        ap = ap_cls(
            sim, medium, backhaul, node_id, CONTROLLER, position,
            ParabolicAntenna.aimed_at(position, (20.0 * i, 10.0, 1.0)),
            np.random.default_rng(20 + i),
        )
        ap.radio = _RadioStub()
        ap.log = []
        aps[node_id] = ap
    return sim, backhaul, aps


ap_ids = st.sampled_from(AP_IDS)
clients = st.sampled_from(CLIENTS)
senders = st.sampled_from((CONTROLLER, STANDBY))
#: Control messages also come from peer APs (a stop handler's start(c, k)
#: forward), whose backhaul path is not FIFO with the data.
ctrl_senders = st.sampled_from((CONTROLLER, STANDBY) + AP_IDS)
multicasts = st.tuples(
    st.just("multicast"), clients,
    st.lists(ap_ids, min_size=1, max_size=3, unique=True),
    st.integers(1, 6), senders)
steps = st.one_of(
    multicasts, multicasts, multicasts,
    st.tuples(st.just("stop"), clients, ap_ids, ap_ids, ctrl_senders),
    st.tuples(st.just("start"), clients, ap_ids, st.integers(0, 8),
              ctrl_senders),
    st.tuples(st.just("flush"), st.one_of(st.none(), clients), ap_ids,
              ctrl_senders),
    st.tuples(st.just("hello"), ctrl_senders),
    st.tuples(st.just("assoc"), clients, ap_ids, ctrl_senders),
    st.tuples(st.just("fail"), ap_ids),
    st.tuples(st.just("restore"), ap_ids),
)
#: Mostly inside the 0.3-1.9 ms backhaul latency, so messages overtake
#: packets still in flight.
gaps = st.sampled_from((0.0, 50e-6, 150e-6, 300e-6, 600e-6, 1e-3, 2e-3,
                        15e-3))


def make_packets(script):
    """One shared packet object per multicast, indexed per client."""
    next_index = {c: 0 for c in CLIENTS}
    packets = []
    for _gap, step in script:
        batch = []
        if step[0] == "multicast":
            client = step[1]
            for _ in range(step[3]):
                packet = Packet(size_bytes=1200, src=9, dst=client)
                packet.wgtt_index = next_index[client]
                next_index[client] = (next_index[client] + 1) % INDEX_MODULO
                batch.append(packet)
        packets.append((batch, dict(next_index)))
    return packets


def play(ap_cls, script, packets, seed=7):
    sim, backhaul, aps = build(ap_cls, seed)

    def ctrl(src, dst, msg):
        backhaul.send(src, dst, ctrl_packet(src, dst, msg, sim.now))

    def run_step(step, batch, next_index):
        kind = step[0]
        if kind == "multicast":
            _, _client, targets, _n, src = step
            for packet in batch:
                backhaul.multicast(src, targets, packet)
        elif kind == "stop":
            _, client, ap, new_ap, src = step
            ctrl(src, ap, StopMsg(client=client, new_ap=new_ap))
        elif kind == "start":
            _, client, ap, back, src = step
            k = (next_index[client] - back) % INDEX_MODULO
            ctrl(src, ap, StartMsg(client=client, index=k))
        elif kind == "flush":
            _, client, ap, src = step
            ctrl(src, ap, FlushClient(client=client))
        elif kind == "assoc":
            _, client, ap, src = step
            ctrl(src, ap, AssocSync(client=client, aid=client))
        elif kind == "hello":
            for ap in AP_IDS:
                ctrl(step[1], ap, ControllerHello(
                    controller=CONTROLLER, epoch=1, flush=True))
        else:
            ap = aps[step[1]]
            getattr(ap, kind)()
            ap.log.append(snapshot(ap, kind))

    t = 0.0
    for (gap, step), (batch, next_index) in zip(script, packets):
        t += gap
        sim.schedule_at(t, run_step, step, batch, next_index)
    sim.run(until=t + 0.1)
    for ap in aps.values():
        ap.log.append(snapshot(ap, "end"))
    return aps, sim.events_fired


def _mc(client, targets, n, src=CONTROLLER):
    return ("multicast", client, targets, n, src)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(script=st.lists(st.tuples(gaps, steps), min_size=1, max_size=40),
       seed=st.integers(0, 2**16))
# Packets that land on a crashed AP die there, even after a reboot.
@example(script=[(0.0, ("fail", 100)), (1e-3, _mc(500, [100], 3)),
                 (5e-3, ("restore", 100))], seed=7)
# Two senders: posts arrive out of order and must be sorted in.
@example(script=[(0.0, _mc(500, [100], 3)),
                 (0.0, _mc(500, [100], 3, STANDBY)),
                 (0.0, _mc(500, [100], 3))], seed=7)
# Arrivals create pipelines in arrival order, ahead of a later AssocSync.
@example(script=[(0.0, _mc(500, [100], 1)),
                 (2e-3, ("assoc", 501, 100, 100))], seed=7)
# A stop at a non-serving AP reads k from a ring fed by arrivals only.
@example(script=[(0.0, ("start", 500, 100, 0, CONTROLLER)),
                 (2e-3, _mc(500, [100, 101, 102], 3)),
                 (3e-3, ("stop", 500, 100, 101, CONTROLLER)),
                 (3e-3, _mc(500, [102], 1)),
                 (0.0, _mc(500, [100, 102], 2)),
                 (3e-3, ("stop", 500, 100, 102, CONTROLLER))], seed=0)
# A start(c, k) from a peer overtakes packets still in flight: they wake.
@example(script=[(0.0, _mc(500, [100], 3)),
                 (0.0, ("start", 500, 100, 3, 101))], seed=1)
# A wake-up sent while serving lands after a packet logged once stopped.
@example(script=[(0.0, ("start", 500, 100, 0, CONTROLLER)),
                 (3e-3, _mc(500, [100], 2, STANDBY)),
                 (0.0, ("stop", 500, 100, 101, 101)),
                 (1e-3, _mc(500, [100], 2))], seed=25)
def test_lazy_arrival_matches_per_copy_delivery(script, seed):
    packets = make_packets(script)
    lazy, lazy_events = play(LazyAp, script, packets, seed)
    eager, eager_events = play(EagerAp, script, packets, seed)
    for node_id in AP_IDS:
        assert lazy[node_id].log == eager[node_id].log
    assert lazy_events <= eager_events


def test_only_the_serving_ap_gets_arrival_events():
    script = [
        (0.0, ("start", 500, 100, 0, CONTROLLER)),
        (2e-3, _mc(500, [100, 101, 102], 5)),
        (5e-3, ("stop", 500, 100, 101, CONTROLLER)),
        (30e-3, _mc(500, [100, 101, 102], 5)),
    ]
    packets = make_packets(script)
    lazy, lazy_events = play(LazyAp, script, packets)
    eager, eager_events = play(EagerAp, script, packets)
    for node_id in AP_IDS:
        assert lazy[node_id].log == eager[node_id].log
    # The switch worked: AP 101 now serves the client.
    final = dict((r[0], r) for r in lazy[101].log[-1][4])
    assert final[500][1] is True
    assert lazy_events < eager_events
