"""Columnar result store: packed ``.npz`` shards with a manifest.

The JSON result cache is one file per job -- perfect for memoising a
single drive, hopeless for *querying* a 10^5--10^6-job study (a million
``open()`` calls before the first number).  :class:`ColumnarStore` packs
summaries into ``.npz`` shards of ``shard_size`` jobs each: scalar
fields become typed columns, ragged fields (throughput bins, switch
events) become flat arrays plus offset vectors, and small dict fields
travel as JSON-string columns.  Reading any column across the whole
study costs one ``np.load`` per *shard*, not per job.

The store is lossless: :meth:`ColumnarStore.summaries` reconstructs
:class:`~repro.orchestration.summary.DriveSummary` objects whose
``to_dict()`` round-trips byte-identical to what was appended (floats
are stored as float64, i.e. exactly).

Layout::

    <root>/
        manifest.json        # schema, shard list, total job count
        shard-00000.npz      # columns for jobs [0, shard_size)
        shard-00001.npz      # ...

Appends buffer in memory and flush a full shard at a time;
:meth:`ColumnarStore.flush` closes a partial tail shard.  The manifest
is rewritten atomically after each shard lands, so a reader always sees
a consistent prefix of the sweep -- the property the streaming
aggregator relies on mid-run.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

from .summary import DriveSummary

__all__ = ["ColumnarStore", "migrate_json_cache", "STORE_VERSION"]

#: Bump alongside CACHE_SCHEMA_VERSION when the summary schema changes;
#: mismatched manifests are rejected on open rather than misread.
STORE_VERSION = 6

DEFAULT_SHARD_SIZE = 1024

#: DriveSummary scalar fields stored as float64 columns.
_FLOAT_COLS = (
    "speed_mph", "udp_rate_mbps", "duration_s", "measure_t0", "measure_t1",
    "throughput_mbps", "coverage_throughput_mbps", "coverage_t0",
    "coverage_t1", "bin_s", "wall_clock_s",
)
#: DriveSummary scalar fields stored as int64 columns.
_INT_COLS = (
    "seed", "switch_count", "events_fired", "dropped_records",
    "n_vehicles", "n_segments",
)
#: DriveSummary string fields stored as unicode columns.
_STR_COLS = ("job_key", "mode", "traffic", "policy")
#: Dict-valued fields stored as JSON-string columns.
_JSON_COLS = ("trace_counters", "resilience", "per_segment_mbps")

#: Sentinel for "no serving AP" in the switch-event AP column.
_NO_AP = -1


def _atomic_json(path: Path, payload: Dict[str, Any]) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _pack(summaries: List[DriveSummary]) -> Dict[str, np.ndarray]:
    """Columnise one shard's worth of summaries."""
    cols: Dict[str, np.ndarray] = {}
    for name in _FLOAT_COLS:
        cols[name] = np.array([getattr(s, name) for s in summaries],
                              dtype=np.float64)
    for name in _INT_COLS:
        cols[name] = np.array([getattr(s, name) for s in summaries],
                              dtype=np.int64)
    for name in _STR_COLS:
        cols[name] = np.array([getattr(s, name) for s in summaries],
                              dtype=np.str_)
    for name in _JSON_COLS:
        cols[name] = np.array(
            [json.dumps(getattr(s, name), sort_keys=True,
                        separators=(",", ":")) for s in summaries],
            dtype=np.str_,
        )
    # Ragged columns: flat values + (n_jobs + 1) offsets.
    bin_off = np.zeros(len(summaries) + 1, dtype=np.int64)
    sw_off = np.zeros(len(summaries) + 1, dtype=np.int64)
    for i, s in enumerate(summaries):
        bin_off[i + 1] = bin_off[i] + len(s.bin_centres)
        sw_off[i + 1] = sw_off[i] + len(s.switch_events)
    cols["bin_offsets"] = bin_off
    cols["switch_offsets"] = sw_off
    cols["bin_centres"] = np.array(
        [t for s in summaries for t in s.bin_centres], dtype=np.float64)
    cols["bin_mbps"] = np.array(
        [v for s in summaries for v in s.bin_mbps], dtype=np.float64)
    cols["switch_times"] = np.array(
        [t for s in summaries for t, _ap in s.switch_events],
        dtype=np.float64)
    cols["switch_aps"] = np.array(
        [_NO_AP if ap is None else ap
         for s in summaries for _t, ap in s.switch_events], dtype=np.int64)
    return cols


def _unpack(data, i: int) -> DriveSummary:
    """Rebuild summary ``i`` of a loaded shard."""
    kwargs: Dict[str, Any] = {}
    for name in _FLOAT_COLS:
        kwargs[name] = float(data[name][i])
    for name in _INT_COLS:
        kwargs[name] = int(data[name][i])
    for name in _STR_COLS:
        kwargs[name] = str(data[name][i])
    for name in _JSON_COLS:
        kwargs[name] = json.loads(str(data[name][i]))
    kwargs["per_segment_mbps"] = {
        int(k): float(v) for k, v in kwargs["per_segment_mbps"].items()
    }
    b0, b1 = int(data["bin_offsets"][i]), int(data["bin_offsets"][i + 1])
    kwargs["bin_centres"] = [float(t) for t in data["bin_centres"][b0:b1]]
    kwargs["bin_mbps"] = [float(v) for v in data["bin_mbps"][b0:b1]]
    s0, s1 = int(data["switch_offsets"][i]), int(data["switch_offsets"][i + 1])
    kwargs["switch_events"] = [
        (float(t), None if ap == _NO_AP else int(ap))
        for t, ap in zip(data["switch_times"][s0:s1],
                         data["switch_aps"][s0:s1])
    ]
    return DriveSummary(**kwargs)


class ColumnarStore:
    """Append-mostly columnar summary store (see module docstring)."""

    def __init__(self, root: os.PathLike,
                 shard_size: int = DEFAULT_SHARD_SIZE):
        if shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.shard_size = shard_size
        self._buffer: List[DriveSummary] = []
        #: np.load calls made so far -- the "no per-job opens" receipts.
        self.files_opened = 0
        manifest_path = self.root / "manifest.json"
        if manifest_path.exists():
            with open(manifest_path) as fh:
                self.manifest = json.load(fh)
            if self.manifest.get("store_version") != STORE_VERSION:
                raise ValueError(
                    f"store at {self.root} has store_version "
                    f"{self.manifest.get('store_version')}, "
                    f"this code expects {STORE_VERSION}"
                )
            self.shard_size = int(self.manifest["shard_size"])
        else:
            self.manifest = {
                "store_version": STORE_VERSION,
                "shard_size": shard_size,
                "shards": [],
                "total_jobs": 0,
            }

    # ----------------------------------------------------------- append
    def append(self, summary: DriveSummary) -> None:
        self._buffer.append(summary)
        if len(self._buffer) >= self.shard_size:
            self._flush_shard()

    def extend(self, summaries) -> None:
        for s in summaries:
            self.append(s)

    def flush(self) -> None:
        """Close the partial tail shard (call once at end of sweep)."""
        if self._buffer:
            self._flush_shard()

    def _flush_shard(self) -> None:
        index = len(self.manifest["shards"])
        name = f"shard-{index:05d}.npz"
        cols = _pack(self._buffer)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".npz.tmp")
        os.close(fd)
        try:
            with open(tmp, "wb") as fh:
                np.savez_compressed(fh, **cols)
            os.replace(tmp, self.root / name)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.manifest["shards"].append(
            {"name": name, "n_jobs": len(self._buffer)})
        self.manifest["total_jobs"] += len(self._buffer)
        _atomic_json(self.root / "manifest.json", self.manifest)
        self._buffer = []

    # ------------------------------------------------------------ read
    def __len__(self) -> int:
        return int(self.manifest["total_jobs"]) + len(self._buffer)

    def query(self, *columns: str) -> Dict[str, np.ndarray]:
        """Concatenated columns across every flushed shard.

        One ``np.load`` per shard, no per-job I/O.  Ragged columns come
        back flat; ask for the matching ``*_offsets`` column to slice
        them per job.
        """
        out: Dict[str, List[np.ndarray]] = {c: [] for c in columns}
        for shard in self.manifest["shards"]:
            with np.load(self.root / shard["name"]) as data:
                self.files_opened += 1
                for c in columns:
                    if c not in data:
                        raise KeyError(f"unknown column {c!r}")
                    out[c].append(data[c])
        return {
            c: (np.concatenate(parts) if parts
                else np.empty(0))
            for c, parts in out.items()
        }

    def summaries(self) -> Iterator[DriveSummary]:
        """Reconstruct every stored summary, shard by shard."""
        for shard in self.manifest["shards"]:
            with np.load(self.root / shard["name"]) as data:
                self.files_opened += 1
                loaded = {k: data[k] for k in data.files}
            for i in range(int(shard["n_jobs"])):
                yield _unpack(loaded, i)

    @property
    def n_shards(self) -> int:
        return len(self.manifest["shards"])


def migrate_json_cache(cache_root: os.PathLike, store: ColumnarStore,
                       limit: Optional[int] = None) -> int:
    """Pack JSON-era per-job cache entries into ``store``.

    Walks a ``.repro_cache/``-layout tree (``??/<hash>.json``), appends
    each entry's summary, and flushes.  Entries that fail to parse are
    skipped, not fatal -- the cache may legitimately hold foreign-schema
    files.  Returns the number of summaries migrated; entries are read
    in sorted path order so the resulting shard layout is deterministic.
    """
    root = Path(cache_root)
    migrated = 0
    for path in sorted(root.glob("*/*.json")):
        if limit is not None and migrated >= limit:
            break
        try:
            with open(path) as fh:
                record = json.load(fh)
            summary = DriveSummary.from_dict(record["summary"])
        except (OSError, ValueError, KeyError, TypeError):
            continue
        store.append(summary)
        migrated += 1
    store.flush()
    return migrated
