"""Pure-unit tests for Medium internals using stub radios (no full net)."""

import numpy as np
import pytest

from repro.mac.frames import Beacon
from repro.mac.medium import Medium, Transmission
from repro.phy.antenna import OmniAntenna, ParabolicAntenna
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder


class StubRadio:
    def __init__(self, node_id, pos, is_ap=True, tx_power=18.0, channel=11,
                 antenna=None):
        self.node_id = node_id
        self._pos = pos
        self.is_ap = is_ap
        self.tx_power_dbm = tx_power
        self.channel = channel
        self.antenna = antenna or OmniAntenna(0.0)
        self.monitor = False
        self.bssid = node_id
        self.frames = []

    def position(self, t):
        return self._pos

    def on_frame(self, frame, src, outcome, t):
        self.frames.append((frame, src, outcome))

    def build_transmission(self):
        return None

    def on_transmission_started(self, tx):
        pass

    def on_transmission_complete(self, tx):
        pass


def make_medium(**kwargs):
    sim = Simulator()
    medium = Medium(sim, np.random.default_rng(0), trace=TraceRecorder(),
                    **kwargs)
    return sim, medium


def test_register_duplicate_radio_rejected():
    _sim, medium = make_medium()
    r = StubRadio(1, (0, 0, 0))
    medium.register_radio(r)
    with pytest.raises(ValueError):
        medium.register_radio(StubRadio(1, (1, 1, 1)))


def test_ap_ap_leakage_power_decays_with_distance():
    _sim, medium = make_medium()
    a = StubRadio(1, (0.0, 0.0, 3.0))
    near = StubRadio(2, (7.5, 0.0, 3.0))
    far = StubRadio(3, (60.0, 0.0, 3.0))
    for r in (a, near, far):
        medium.register_radio(r)
    assert medium.rx_power_dbm(a, near, 0.0) > medium.rx_power_dbm(a, far, 0.0)


def test_ap_ap_leakage_ignores_antenna_pattern():
    """Co-sited APs hear each other regardless of where their parabolic
    antennas point (regression: pattern-based coupling made APs mutually
    inaudible and old/new serving APs collided)."""
    _sim, medium = make_medium()
    ant = ParabolicAntenna(boresight=(0, 1, 0))
    a = StubRadio(1, (0.0, 0.0, 3.0), antenna=ant)
    b = StubRadio(2, (7.5, 0.0, 3.0), antenna=ant)
    medium.register_radio(a)
    medium.register_radio(b)
    assert medium.rx_power_dbm(a, b, 0.0) > medium.params.cs_threshold_dbm


def test_client_client_street_coupling():
    _sim, medium = make_medium()
    a = StubRadio(1, (0.0, 2.0, 1.5), is_ap=False, tx_power=15.0)
    near = StubRadio(2, (3.0, 5.5, 1.5), is_ap=False)
    far = StubRadio(3, (80.0, 5.5, 1.5), is_ap=False)
    for r in (a, near, far):
        medium.register_radio(r)
    assert medium.rx_power_dbm(a, near, 0.0) > medium.params.cs_threshold_dbm
    assert medium.rx_power_dbm(a, far, 0.0) < medium.params.cs_threshold_dbm


def test_different_channels_not_audible():
    _sim, medium = make_medium()
    a = StubRadio(1, (0.0, 0.0, 3.0), channel=11)
    b = StubRadio(2, (1.0, 0.0, 3.0), channel=6)
    c = StubRadio(3, (1.0, 1.0, 3.0), channel=11)
    for r in (a, b, c):
        medium.register_radio(r)
    assert not medium._audible(a, b, 0.0)  # orthogonal channels
    assert medium._audible(a, c, 0.0)      # same channel, adjacent


def test_busy_until_reflects_audible_transmissions():
    sim, medium = make_medium()
    a = StubRadio(1, (0.0, 0.0, 3.0))
    b = StubRadio(2, (5.0, 0.0, 3.0))
    medium.register_radio(a)
    medium.register_radio(b)

    tx = Transmission(a, Beacon(src=1, bssid=1), 0.0, 0.001, 0.002)
    medium._activate(tx)
    assert medium.busy_until(b, 0.0) == pytest.approx(0.002)
    # After NAV end, idle again.
    assert medium.busy_until(b, 0.003) == 0.003


def test_request_access_idempotent():
    sim, medium = make_medium()
    a = StubRadio(1, (0.0, 0.0, 3.0))
    medium.register_radio(a)
    medium.request_access(a)
    medium.request_access(a)
    assert len(medium._pending_access) == 1


def test_cancel_access():
    sim, medium = make_medium()
    a = StubRadio(1, (0.0, 0.0, 3.0))
    medium.register_radio(a)
    medium.request_access(a)
    medium.cancel_access(a)
    assert a.node_id not in medium._pending_access


def test_link_between_direct_entry_beats_reverse_view():
    """(a, b) added directly wins over the reverse view of a (b, a) link,
    whichever was added first; re-adding a pair replaces its link."""
    _sim, medium = make_medium()
    ab, ba, ba2 = object(), object(), object()
    medium.add_link(1, 2, ab)
    medium.add_link(2, 1, ba)
    assert medium.link_between(1, 2) == (ab, False)
    assert medium.link_between(2, 1) == (ba, False)
    medium.add_link(2, 1, ba2)
    assert medium.link_between(2, 1) == (ba2, False)
    assert medium.link_between(1, 2) == (ab, False)
    medium.add_link(3, 4, ab)
    medium.add_link(3, 4, ba)
    assert medium.link_between(4, 3) == (ba, True)
    assert medium.link_between(1, 3) is None
    assert medium.link_between(9, 1) is None


def test_retune_rekeys_bucket():
    _sim, medium = make_medium(cell_m=45.0)
    a = StubRadio(1, (100.0, 10.0, 3.0), channel=11)
    b = StubRadio(2, (110.0, 10.0, 3.0), channel=6)
    medium.register_radio(a)
    medium.register_radio(b)
    old = medium._radio_bucket[a.node_id]
    assert old.key == (11, 2, 0)
    medium.retune(a, 6)
    new = medium._radio_bucket[a.node_id]
    assert a.channel == 6 and new.key == (6, 2, 0)
    assert a.node_id not in old.radios
    assert list(new.radios.values()) == [b, a]
    assert medium.rebuckets == 1


def test_mobile_radio_rebucketed_by_tick():
    sim, medium = make_medium(cell_m=45.0)
    client = StubRadio(1, (40.0, 0.0, 1.5), is_ap=False)
    medium.register_radio(client)
    assert medium._radio_bucket[1].key == (11, 0, 0)
    client._pos = (50.0, 0.0, 1.5)
    sim.run(until=0.15)
    assert medium._radio_bucket[1].key == (11, 1, 0)


def test_infinite_cell_is_one_bucket_per_channel():
    sim, medium = make_medium()
    radios = [StubRadio(i, (300.0 * i, -50.0 * i, 3.0), channel=11)
              for i in range(1, 4)]
    for r in radios:
        medium.register_radio(r)
    assert set(medium._buckets) == {(11, 0, 0)}
    assert sim.pending_events == 0  # no re-bucketing tick
    tx = Transmission(radios[0], Beacon(src=1, bssid=1), 0.0, 0.001, 0.002)
    medium._activate(tx)
    # The neighbourhood is the bucket itself: its lists, not copies.
    bucket = medium._buckets[(11, 0, 0)]
    assert medium._active_near(radios[2]) is bucket.active
    assert list(medium._radios_near(tx)) == radios


def test_channel_plan_drive_buckets_follow_radio_channel():
    from repro.experiments.builder import ExperimentConfig, build_network

    net = build_network(ExperimentConfig(mode="wgtt", seed=0,
                                         channel_plan=[1, 6, 11]))
    medium = net.medium
    assert [ap.radio.channel for ap in net.aps[:3]] == [1, 6, 11]
    for ap in net.aps:
        assert medium._radio_bucket[ap.node_id].key[0] == ap.radio.channel
    # Each bucket lists its channel's radios in registration order, the
    # order a global scan with a same-channel filter would visit them.
    for key, bucket in medium._buckets.items():
        assert list(bucket.radios.values()) == [
            r for r in medium.radios() if r.channel == key[0]
        ]
