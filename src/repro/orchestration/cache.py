"""Persistent on-disk result cache.

Sweeps are embarrassingly repeatable: the same (mode, speed, traffic,
seed) grid is re-run every time a benchmark suite or CLI sweep executes.
:class:`ResultCache` stores each job's :class:`DriveSummary` as JSON
under ``.repro_cache/``, keyed by a SHA-256 of the job's canonical config
plus a *code-version salt*, so a second run skips simulation entirely.

Layout::

    .repro_cache/
        ab/ab12cd...ef.json     # two-level fan-out on the hash prefix

Invalidation
------------
The salt folds in :data:`repro.__version__` and
:data:`CACHE_SCHEMA_VERSION`; bump either (any release, or any change to
the summary schema) and every old entry misses.  ``REPRO_CACHE_DIR``
overrides the default root; ``REPRO_CACHE_DISABLE=1`` turns the cache
into a no-op.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional

from .. import __version__
from .spec import JobSpec
from .summary import DriveSummary

__all__ = ["CACHE_SCHEMA_VERSION", "ResultCache", "default_code_salt"]

#: Bump when the DriveSummary schema or job canonicalisation changes.
#: 2: JobSpec grew ``policy``; DriveSummary grew ``policy``.
#: 3: DriveSummary grew ``dropped_records``/``resilience``;
#:    ExperimentConfig grew ``ha``/``check_invariants``.
#: 4: JobSpec grew ``city``; DriveSummary grew ``n_vehicles``/
#:    ``n_segments``/``per_segment_mbps``.
#: 5: the distributed-sweep era: results also live in the columnar
#:    store (``store.STORE_VERSION`` tracks this number), SweepSpec grew
#:    ``fault_campaign``, and queue-backed runs share cache entries with
#:    serial ones -- old-schema entries must never be resurrected into
#:    that shared pool.
#: 6: lazy downlink arrival: ``DriveSummary.events_fired`` dropped for
#:    every WGTT downlink drive (non-serving APs no longer fire an event
#:    per packet), so schema-5 counts must not mix with new ones.
CACHE_SCHEMA_VERSION = 6

DEFAULT_CACHE_DIR = ".repro_cache"


def default_code_salt() -> str:
    """Salt folded into every cache key; changes invalidate the cache."""
    return f"repro-{__version__}-schema{CACHE_SCHEMA_VERSION}"


class ResultCache:
    """A content-addressed store of :class:`DriveSummary` objects.

    ``root=None`` builds a disabled cache: every ``get`` misses and every
    ``put`` is dropped, so call sites need no conditionals.
    """

    def __init__(self, root: Optional[os.PathLike] = DEFAULT_CACHE_DIR,
                 salt: Optional[str] = None):
        self.root = Path(root) if root is not None else None
        self.salt = salt if salt is not None else default_code_salt()
        self.hits = 0
        self.misses = 0
        self.writes = 0

    @classmethod
    def from_env(cls, root: Optional[os.PathLike] = None) -> "ResultCache":
        """Build a cache honouring ``REPRO_CACHE_DIR`` / ``REPRO_CACHE_DISABLE``."""
        if os.environ.get("REPRO_CACHE_DISABLE"):
            return cls(root=None)
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
        return cls(root=root)

    @property
    def enabled(self) -> bool:
        return self.root is not None

    # ------------------------------------------------------------- keying
    def key_hash(self, job: JobSpec) -> str:
        payload = json.dumps(
            {"job": job.canonical(), "salt": self.salt},
            sort_keys=True, default=str,
        ).encode()
        return hashlib.sha256(payload).hexdigest()

    def path_for(self, job: JobSpec) -> Optional[Path]:
        if self.root is None:
            return None
        digest = self.key_hash(job)
        return self.root / digest[:2] / f"{digest}.json"

    # ------------------------------------------------------------ get/put
    def get(self, job: JobSpec) -> Optional[DriveSummary]:
        """The cached summary for ``job``, or None on a miss.

        Corrupt or unreadable entries count as misses and are removed so
        a later ``put`` can heal them.
        """
        path = self.path_for(job)
        if path is None or not path.exists():
            self.misses += 1
            return None
        try:
            with open(path) as fh:
                data = json.load(fh)
            summary = DriveSummary.from_dict(data["summary"])
        except (OSError, ValueError, KeyError, TypeError):
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return summary

    def put(self, job: JobSpec, summary: DriveSummary) -> None:
        """Store ``summary`` atomically (write-to-temp then rename)."""
        path = self.path_for(job)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        record: Dict[str, Any] = {
            "salt": self.salt,
            "job": job.canonical(),
            "summary": summary.to_dict(),
        }
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(record, fh)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.writes += 1

    # ------------------------------------------------------------- stats
    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "writes": self.writes}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        root = self.root if self.root is not None else "<disabled>"
        return (f"<ResultCache root={root} hits={self.hits} "
                f"misses={self.misses} writes={self.writes}>")
