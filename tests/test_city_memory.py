"""Memory gate: a city's set-up cost follows traffic, not coverage.

The city builder pre-associates every vehicle with every AP its route
passes, so each AP holds an (AP, vehicle) pipeline -- a WGTT cyclic
queue plus driver and NIC queues -- for every vehicle in range.  A ring
allocates its 4,096 slots on its first downlink packet, so a pipeline
that never carries one must stay small.  The bounds are bytes counted by
``tracemalloc`` for CPython objects, the same on any host.
"""

import inspect
import tracemalloc

import pytest

from repro.city import CityConfig
from repro.city.builder import build_city_network
from repro.core.ap import BaseAp
from repro.core.cyclic_queue import INDEX_MODULO, CyclicQueue
from repro.experiments.builder import ExperimentConfig
from repro.net.packet import Packet

#: Ceiling on what one (AP, vehicle) pipeline may allocate at set-up.
PIPELINE_BYTES_MAX = 4 * 1024
SLOT_ARRAY_BYTES = INDEX_MODULO * 8  # one pointer per slot


def _allocated_in(snapshot, code) -> int:
    """Bytes live in ``snapshot`` whose call stack passed through the
    source lines of ``code`` (a function or class)."""
    filename = inspect.getsourcefile(code)
    lines, first = inspect.getsourcelines(code)
    last = first + len(lines) - 1
    return sum(
        trace.size for trace in snapshot.traces
        if any(frame.filename == filename and first <= frame.lineno <= last
               for frame in trace.traceback)
    )


@pytest.fixture(scope="module")
def city_setup():
    """Build a 3x3 city and its fleet under tracemalloc, without simulating."""
    city = CityConfig(rows=3, cols=3, aps_per_segment=4, n_vehicles=24,
                      cell_m=45.0)
    tracemalloc.start(16)
    try:
        net = build_city_network(ExperimentConfig(seed=7, city=city))
        for _ in range(city.n_vehicles):
            net.add_vehicle(net.plan_vehicle_route(min_duration_s=6.0))
        snapshot = tracemalloc.take_snapshot()
        # One downlink packet into one ring: the measurement must see it.
        ap = next(a for a in net.aps if a.pipelines)
        ring = next(iter(ap.pipelines.values())).cyclic
        packet = Packet(size_bytes=1500, src=1, dst=2)
        packet.wgtt_index = 0
        ring.insert(packet)
        fed = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert net.sim.events_fired == 0
    return net, snapshot, fed


def test_pipeline_setup_bytes_bounded(city_setup):
    net, snapshot, _fed = city_setup
    n_pipelines = sum(len(ap.pipelines) for ap in net.aps)
    assert n_pipelines >= 5 * len(net.vehicles)  # each vehicle sees many APs
    pipeline_bytes = _allocated_in(snapshot, BaseAp.add_client)
    assert pipeline_bytes > 0
    assert pipeline_bytes / n_pipelines <= PIPELINE_BYTES_MAX, (
        f"{pipeline_bytes / n_pipelines:.0f} B per (AP, vehicle) pipeline"
    )


def test_unfed_rings_hold_no_slot_storage(city_setup):
    _net, snapshot, fed = city_setup
    assert _allocated_in(snapshot, CyclicQueue) == 0
    assert _allocated_in(fed, CyclicQueue) >= SLOT_ARRAY_BYTES
