"""Unit tests for the Ethernet backhaul."""

import numpy as np
import pytest

from repro.net.ethernet import Backhaul, BackhaulParams
from repro.net.packet import TUNNEL_HEADER_BYTES, Packet
from repro.sim.engine import Simulator


def make_backhaul(seed=0, **params):
    sim = Simulator()
    bh = Backhaul(sim, np.random.default_rng(seed), params=BackhaulParams(**params))
    return sim, bh


def packet(n=100):
    return Packet(size_bytes=n, src=1, dst=2)


def test_delivery_with_latency():
    sim, bh = make_backhaul(jitter_s=0.0)
    got = []
    bh.register(2, lambda p, src: got.append((sim.now, src)))
    bh.register(1, lambda p, src: None)
    bh.send(1, 2, packet())
    sim.run()
    assert len(got) == 1
    t, src = got[0]
    assert src == 1
    assert t >= bh.params.base_latency_s


def test_unknown_destination_raises():
    sim, bh = make_backhaul()
    bh.register(1, lambda p, s: None)
    with pytest.raises(KeyError):
        bh.send(1, 99, packet())


def test_duplicate_registration_rejected():
    _sim, bh = make_backhaul()
    bh.register(1, lambda p, s: None)
    with pytest.raises(ValueError):
        bh.register(1, lambda p, s: None)


def test_fifo_per_pair_despite_jitter():
    """Switched Ethernet must never reorder one flow (regression: cyclic
    queue holes came from jitter-induced reordering)."""
    sim, bh = make_backhaul(jitter_s=500e-6)
    got = []
    bh.register(2, lambda p, src: got.append(p.seq))
    bh.register(1, lambda p, s: None)
    for i in range(200):
        p = packet()
        p.seq = i
        sim.schedule(i * 1e-6, bh.send, 1, 2, p)
    sim.run()
    assert got == list(range(200))


def test_loss_probability():
    sim, bh = make_backhaul(loss_probability=1.0)
    got = []
    bh.register(2, lambda p, src: got.append(p))
    bh.register(1, lambda p, s: None)
    bh.send(1, 2, packet())
    sim.run()
    assert got == []
    assert bh.packets_lost == 1


def test_serialization_delay_scales_with_size():
    sim1, bh1 = make_backhaul(jitter_s=0.0, bandwidth_bps=1e6)
    arrivals = {}
    bh1.register(2, lambda p, src: arrivals.setdefault(p.size_bytes, sim1.now))
    bh1.register(1, lambda p, s: None)
    bh1.send(1, 2, packet(100))
    sim1.run()
    sim1_small = arrivals[100]
    bh1.send(1, 2, packet(10000))
    sim1.run()
    assert arrivals[10000] - sim1_small > 0.07  # ~79 ms more at 1 Mb/s


def test_broadcast_reaches_everyone_but_sender():
    sim, bh = make_backhaul()
    got = []
    for node in (1, 2, 3):
        bh.register(node, lambda p, src, node=node: got.append(node))
    bh.broadcast(1, lambda: packet())
    sim.run()
    assert sorted(got) == [2, 3]


def test_counters():
    sim, bh = make_backhaul()
    bh.register(2, lambda p, s: None)
    bh.register(1, lambda p, s: None)
    bh.send(1, 2, packet(150))
    assert bh.packets_sent == 1
    assert bh.bytes_sent == 150


def test_is_registered():
    _sim, bh = make_backhaul()
    bh.register(5, lambda p, s: None)
    assert bh.is_registered(5)
    assert not bh.is_registered(6)


# -------------------------------------------------------- per-link jitter
def _delivery_times(seed, link_jitter_s, n=20):
    sim, bh = make_backhaul(seed=seed, jitter_s=0.0,
                            link_jitter_s=link_jitter_s)
    got = []
    bh.register(1, lambda p, s: None)
    bh.register(2, lambda p, s: got.append(sim.now))
    bh.register(3, lambda p, s: got.append(sim.now))
    for i in range(n):
        bh.send(1, 2, packet())
        bh.send(1, 3, packet())
    sim.run()
    return got


def test_link_jitter_disabled_by_default_draws_nothing():
    """link_jitter_s=0 must not consume RNG: schedules stay bit-identical."""
    assert _delivery_times(7, 0.0) == _delivery_times(7, 0.0)
    sim, bh = make_backhaul(seed=7, link_jitter_s=0.0)
    bh.register(1, lambda p, s: None)
    bh.register(2, lambda p, s: None)
    before = bh.rng.bit_generator.state["state"]["state"]
    bh.send(1, 2, packet())
    # Only the forwarding-jitter draw happened (same as without the knob).
    sim2, bh2 = make_backhaul(seed=7)
    bh2.register(1, lambda p, s: None)
    bh2.register(2, lambda p, s: None)
    bh2.send(1, 2, packet())
    assert (bh.rng.bit_generator.state["state"]["state"]
            == bh2.rng.bit_generator.state["state"]["state"])
    assert before != bh.rng.bit_generator.state["state"]["state"]


def test_link_jitter_deterministic_for_fixed_seed():
    a = _delivery_times(3, 50e-6)
    b = _delivery_times(3, 50e-6)
    assert a == b
    # A different seed draws different pair offsets.
    c = _delivery_times(4, 50e-6)
    assert a != c


def test_link_jitter_offset_is_persistent_per_pair():
    sim, bh = make_backhaul(seed=1, jitter_s=0.0, link_jitter_s=200e-6)
    bh.register(1, lambda p, s: None)
    bh.register(2, lambda p, s: None)
    first = bh._link_offset(1, 2)
    assert 0.0 <= first <= 200e-6
    # Re-querying never redraws; the reverse direction is its own link.
    assert bh._link_offset(1, 2) == first
    reverse = bh._link_offset(2, 1)
    assert bh._link_offset(2, 1) == reverse
    assert len(bh._pair_offset) == 2


# ------------------------------------------------------------- jitter draws
def test_random_times_width_matches_uniform_draw():
    """The backhaul draws jitter as ``rng.random() * x``; NumPy's
    ``uniform(0.0, x)`` is ``0.0 + x * u`` on the same stream.  Pin the
    equivalence bit for bit, so a NumPy change fails here instead of
    silently drifting every golden drive."""
    widths = [100e-6, 400e-6, 2e-3, 0.0, 1.0, 12.5]
    a = np.random.default_rng(1234)
    b = np.random.default_rng(1234)
    for i in range(600):
        x = widths[i % len(widths)]
        assert a.random() * x == float(b.uniform(0.0, x))
    assert a.bit_generator.state == b.bit_generator.state


# --------------------------------------------------------------- multicast
def _multicast_pair(**params):
    """(send-per-copy backhaul, multicast backhaul) on the same seed."""
    out = []
    for _ in range(2):
        sim, bh = make_backhaul(seed=5, **params)
        got = []
        bh.register(1, lambda p, s: None)
        for node in (2, 3, 4):
            bh.register(node, lambda p, s, node=node, sim=sim, got=got:
                        got.append((sim.now, node, p.uid)))
        out.append((sim, bh, got))
    return out


def test_multicast_adjudicates_each_hop_like_a_tunneled_send():
    (sim_a, send_bh, got_a), (sim_b, mc_bh, got_b) = _multicast_pair(
        link_jitter_s=300e-6, loss_probability=0.3)
    for i in range(50):
        p = packet(1200)
        for dst in (2, 3, 4):
            copy = Packet(size_bytes=p.size_bytes, src=p.src, dst=p.dst,
                          uid=p.uid)
            copy.encapsulate(1, dst)
            send_bh.send(1, dst, copy)
        mc_bh.multicast(1, (2, 3, 4), p)
    sim_a.run()
    sim_b.run()
    assert got_a == got_b
    for counter in ("packets_sent", "packets_lost", "bytes_sent"):
        assert getattr(send_bh, counter) == getattr(mc_bh, counter)
    assert mc_bh.bytes_sent == 150 * (1200 + TUNNEL_HEADER_BYTES)
    assert send_bh.rng.bit_generator.state == mc_bh.rng.bit_generator.state


def test_multicast_hands_sinks_the_shared_packet_and_arrival_time():
    sim, bh = make_backhaul(seed=2)
    posted, delivered = [], []
    bh.register(1, lambda p, s: None)
    bh.register(2, lambda p, s: delivered.append(p),
                downlink=lambda p, s, t: posted.append((p, s, t)))
    bh.register(3, lambda p, s: delivered.append(p))
    p = packet()
    bh.multicast(1, (2, 3), p)
    # The sink hears about the packet at send time, with a future arrival.
    assert [(q, s) for q, s, _t in posted] == [(p, 1)]
    assert posted[0][2] > sim.now
    sim.run()
    # Node 3 has no sink: it gets the same object through a delivery event.
    assert delivered == [p]
    assert not p.is_tunneled and p.size_bytes == 100


def test_multicast_to_unknown_node_raises():
    _sim, bh = make_backhaul()
    bh.register(1, lambda p, s: None)
    with pytest.raises(KeyError):
        bh.multicast(1, (99,), packet())
