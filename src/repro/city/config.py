"""Declarative city-scenario specification.

:class:`CityConfig` follows the :class:`repro.faults.FaultScenario`
pattern: a frozen dataclass that round-trips through JSON with a
canonical serialisation, so a city spec can live in a file, travel
through the CLI (``drive --city``), join a sweep grid, and key the
persistent result cache (``city=<hash>``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional, Tuple, Union

__all__ = ["CityConfig", "coerce_city", "DEFAULT_CHANNELS"]

#: Default channel palette: the three orthogonal 2.4 GHz channels plus
#: four 5 GHz channels.  Seven colours are enough for any greedy
#: colouring of a grid's segment-adjacency graph (max degree 6).
DEFAULT_CHANNELS: Tuple[int, ...] = (1, 6, 11, 36, 40, 44, 48)


@dataclass(frozen=True)
class CityConfig:
    """A road-grid drive scenario.

    The grid has ``rows x cols`` intersections spaced ``block_m`` apart;
    every adjacent pair of intersections is joined by one road segment
    carrying ``aps_per_segment`` roadside APs (its own picocell array,
    controller shard, and colour-assigned channel).  ``n_vehicles``
    clients drive seeded random routes through the grid at
    ``speed_mph``, turning at intersections with the transit-survey
    weights (16/32 straight, 7/32 left, 7/32 right, 2/32 back).
    """

    rows: int = 3
    cols: int = 3
    block_m: float = 120.0
    aps_per_segment: int = 8
    n_vehicles: int = 20
    speed_mph: float = 15.0
    channels: Tuple[int, ...] = field(default_factory=lambda: DEFAULT_CHANNELS)
    #: Spatial-hash cell edge for the medium's buckets and the AP index.
    #: ``math.inf`` puts a whole channel in one bucket (one global
    #: collision domain per channel).
    cell_m: float = 75.0
    #: Links are only constructed between a client and APs that come
    #: within this range of its route (the spatial index query radius).
    #: A range beyond the grid diagonal links every client to every AP.
    link_range_m: float = 60.0

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be >= 1")
        if self.rows == 1 and self.cols == 1:
            raise ValueError("a 1x1 grid has no road segments")
        if self.block_m <= 0:
            raise ValueError("block_m must be positive")
        if self.aps_per_segment < 1:
            raise ValueError("aps_per_segment must be >= 1")
        if self.n_vehicles < 1:
            raise ValueError("n_vehicles must be >= 1")
        if self.speed_mph <= 0:
            raise ValueError("speed_mph must be positive")
        channels = tuple(int(c) for c in self.channels)
        if not channels:
            raise ValueError("need at least one channel")
        object.__setattr__(self, "channels", channels)
        if self.cell_m <= 0:
            raise ValueError("cell_m must be positive")
        if self.link_range_m <= 0:
            raise ValueError("link_range_m must be positive")

    # ------------------------------------------------------------ derived
    @property
    def n_segments(self) -> int:
        return self.rows * (self.cols - 1) + self.cols * (self.rows - 1)

    @property
    def n_aps(self) -> int:
        return self.n_segments * self.aps_per_segment

    # ------------------------------------------------------- serialisation
    def to_dict(self) -> Dict[str, Any]:
        """Dict form omitting fields left at their defaults."""
        out: Dict[str, Any] = {}
        defaults = CityConfig()
        for f in fields(self):
            value = getattr(self, f.name)
            if value != getattr(defaults, f.name):
                out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, compact separators."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CityConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown CityConfig fields: {sorted(unknown)}")
        kwargs = dict(data)
        if "channels" in kwargs:
            kwargs["channels"] = tuple(kwargs["channels"])
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "CityConfig":
        return cls.from_dict(json.loads(text))

    def key_hash(self, length: int = 10) -> str:
        """Short stable hash for cache keys and labels."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:length]


def coerce_city(
    value: Union[None, CityConfig, str, Dict[str, Any]],
) -> Optional[CityConfig]:
    """Accept a CityConfig, a dict, or a JSON string; pass None through."""
    if value is None or isinstance(value, CityConfig):
        return value
    if isinstance(value, str):
        return CityConfig.from_json(value)
    if isinstance(value, dict):
        return CityConfig.from_dict(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a CityConfig")
