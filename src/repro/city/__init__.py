"""City-scale simulation subsystem.

Scales the single-road testbed to a road grid: waypoint vehicle
mobility with seeded intersection turns, spatially-indexed link
construction, and one WGTT controller shard per road segment.  The
collision domain is the one :class:`repro.mac.medium.Medium`, built with
``CityConfig.cell_m`` so it buckets radios per (channel, cell) instead of
the single road's one cell per channel.  See ``EXPERIMENTS.md``
("City-scale drives") for the scenario spec and the scaling benchmark.
"""

from .builder import (
    CityNetwork,
    CityNodeIdAllocator,
    CityVehicle,
    SegmentController,
    build_city_network,
)
from .config import DEFAULT_CHANNELS, CityConfig, coerce_city
from .grid import RoadGrid, RoadSegment
from .mobility import TURN_WEIGHTS, Leg, VehiclePlan, random_route
from .runner import attach_city_flow, run_city_drive
from .spatial import SpatialIndex

__all__ = [
    "CityConfig",
    "CityNetwork",
    "CityNodeIdAllocator",
    "CityVehicle",
    "DEFAULT_CHANNELS",
    "Leg",
    "RoadGrid",
    "RoadSegment",
    "SegmentController",
    "SpatialIndex",
    "TURN_WEIGHTS",
    "VehiclePlan",
    "attach_city_flow",
    "build_city_network",
    "coerce_city",
    "random_route",
    "run_city_drive",
]
