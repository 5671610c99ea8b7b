"""Unit tests for the runtime invariant monitors (repro.invariants)."""

import copy

import pytest

from repro.core.cyclic_queue import INDEX_MODULO
from repro.experiments.runners import run_single_drive
from repro.invariants import InvariantSuite, InvariantViolation
from repro.net.packet import Packet


def udp(seq, flow=1):
    return Packet(size_bytes=1476, src=0, dst=9, protocol="udp",
                  flow_id=flow, seq=seq)


# -------------------------------------------------------------- delivery
def test_unique_deliveries_pass():
    suite = InvariantSuite()
    for seq in range(20):
        suite.on_delivery(0.1 * seq, 9, udp(seq))
    assert suite.ok
    assert suite.checks == 20


def test_duplicate_uid_flagged():
    suite = InvariantSuite()
    packet = udp(5)
    suite.on_delivery(1.0, 9, packet)
    suite.on_delivery(1.1, 9, packet)
    assert not suite.ok
    assert "duplicate delivery" in suite.violations[0]


def test_ring_clone_shares_uid_and_is_flagged():
    # Every in-range AP's ring holds the same downlink packet object, so
    # any second delivery of it -- here modelled by a shallow copy with
    # the same uid -- is the duplicate the cyclic index dedup must
    # prevent.
    suite = InvariantSuite()
    packet = udp(5)
    clone = copy.copy(packet)
    assert clone.uid == packet.uid
    suite.on_delivery(1.0, 9, packet)
    suite.on_delivery(1.2, 9, clone)
    assert suite.violation_count == 1


def test_same_uid_to_different_clients_ok():
    suite = InvariantSuite()
    packet = udp(5)
    suite.on_delivery(1.0, 9, packet)
    suite.on_delivery(1.0, 10, copy.copy(packet))
    assert suite.ok


# ------------------------------------------------------------- reordering
def test_reorder_within_window_tolerated():
    suite = InvariantSuite(reorder_window=512)
    suite.on_delivery(1.0, 9, udp(1000))
    suite.on_delivery(1.1, 9, udp(600))  # regression of 400 < 512
    assert suite.ok


def test_reorder_beyond_window_flagged():
    suite = InvariantSuite(reorder_window=512)
    suite.on_delivery(1.0, 9, udp(1000))
    suite.on_delivery(1.1, 9, udp(400))  # regression of 600 > 512
    assert not suite.ok
    assert "reordering beyond window" in suite.violations[0]


def test_reorder_tracked_per_flow():
    suite = InvariantSuite(reorder_window=10)
    suite.on_delivery(1.0, 9, udp(1000, flow=1))
    suite.on_delivery(1.1, 9, udp(0, flow=2))  # different flow: fine
    assert suite.ok


def test_non_udp_packets_skip_seq_check():
    suite = InvariantSuite(reorder_window=10)
    a = Packet(size_bytes=100, src=0, dst=9, protocol="tcp", flow_id=1, seq=1000)
    b = Packet(size_bytes=100, src=0, dst=9, protocol="tcp", flow_id=1, seq=1)
    suite.on_delivery(1.0, 9, a)
    suite.on_delivery(1.1, 9, b)
    assert suite.ok  # TCP retransmissions legitimately regress


# ---------------------------------------------------------------- indices
def test_index_sequence_wraps_mod_4096():
    suite = InvariantSuite()
    suite.on_index_assigned(1.0, 9, 0, INDEX_MODULO - 2)
    suite.on_index_assigned(1.1, 9, 0, INDEX_MODULO - 1)
    suite.on_index_assigned(1.2, 9, 0, 0)  # the 12-bit wrap
    suite.on_index_assigned(1.3, 9, 0, 1)
    assert suite.ok


def test_index_gap_flagged():
    suite = InvariantSuite()
    suite.on_index_assigned(1.0, 9, 0, 5)
    suite.on_index_assigned(1.1, 9, 0, 7)
    assert not suite.ok
    assert "index monotonicity" in suite.violations[0]


def test_index_sequences_independent_per_epoch():
    # A cold-restarted controller restarts assignment at 0 under a new
    # epoch; that must not read as a regression of the old sequence.
    suite = InvariantSuite()
    suite.on_index_assigned(1.0, 9, 0, 500)
    suite.on_index_assigned(2.0, 9, 1, 0)
    suite.on_index_assigned(2.1, 9, 1, 1)
    assert suite.ok


def test_adopted_index_restarts_expectation():
    # Reconciliation adopts the surviving AP's next_index mid-sequence.
    suite = InvariantSuite()
    suite.on_index_assigned(1.0, 9, 2, 100)
    suite.on_index_adopted(2.0, 9, 2, 4000)
    suite.on_index_assigned(2.1, 9, 2, 4000)
    suite.on_index_assigned(2.2, 9, 2, 4001)
    assert suite.ok


# ---------------------------------------------------------------- serving
def test_single_serving_ap_enforced():
    suite = InvariantSuite()
    suite.on_serving_start(1.0, 3, 9)
    suite.on_serving_stop(1.5, 3, 9)
    suite.on_serving_start(1.5, 4, 9)
    assert suite.ok
    suite.on_serving_start(2.0, 5, 9)  # second AP without a stop
    assert not suite.ok
    assert "multiple serving APs" in suite.violations[0]
    assert suite.serving_aps(9) == {4, 5}


def test_serving_stop_unknown_client_is_noop():
    suite = InvariantSuite()
    suite.on_serving_stop(1.0, 3, 42)
    assert suite.ok


# ------------------------------------------------------------- accounting
def test_violation_storage_is_capped_but_counting_continues():
    suite = InvariantSuite(max_violations=8)
    packet = udp(1)
    suite.on_delivery(0.0, 9, packet)
    for i in range(12):
        suite.on_delivery(0.1 * i, 9, packet)
    assert suite.violation_count == 12
    assert len(suite.violations) == 8
    assert "and 4 more" in suite.report()


def test_assert_ok_raises_with_report():
    suite = InvariantSuite()
    suite.assert_ok()  # clean suite: no raise
    packet = udp(1)
    suite.on_delivery(0.0, 9, packet)
    suite.on_delivery(0.1, 9, packet)
    with pytest.raises(InvariantViolation, match="duplicate delivery"):
        suite.assert_ok()
    assert isinstance(InvariantViolation("x"), AssertionError)


def test_counters_and_report_shapes():
    suite = InvariantSuite()
    suite.on_delivery(0.0, 9, udp(0))
    assert suite.counters() == {"invariant_checks": 1,
                                "invariant_violations": 0}
    assert "invariants ok" in suite.report()


def test_attach_sets_hook_attribute():
    class Component:
        invariants = None

    suite = InvariantSuite()
    a, b = Component(), Component()
    suite.attach(a, None, b)
    assert a.invariants is suite and b.invariants is suite


# ----------------------------------------------------------- end-to-end
def test_clean_drive_passes_all_invariants():
    result = run_single_drive(
        mode="wgtt", speed_mph=15.0, traffic="udp", udp_rate_mbps=20.0,
        seed=2, duration_s=4.0, check_invariants=True,
    )
    net = result.net
    inv = net.invariants
    assert inv is not None
    assert inv is net.controller.invariants
    assert inv is result.client.invariants
    assert inv.checks > 1000
    assert inv.ok, inv.report()
    counters = net.resilience_counters()
    assert counters["invariant_checks"] == inv.checks
    assert counters["invariant_violations"] == 0
