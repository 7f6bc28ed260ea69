"""Disk-backed persistent tier under the in-process memo caches.

The PR-2 fast lane removed redundant work *within* one process; this
module makes that work *shared and durable*.  A :class:`PersistentStore`
is a content-addressed file store — one pickled entry per cache key
under a versioned namespace — that the :class:`~repro.perf.MemoCache`
layer consults on an in-memory miss and fills on every fresh compute.
Worker processes spawned by ``Campaign.run(jobs=N)`` attach to the same
directory, so the first worker to compile an options point prices it
for the whole fleet, and a second CLI invocation starts with everything
the first one learned.

Design points (mirroring the run cache in
:mod:`repro.experiments.cache`, which stores whole ``RunResult`` rows
the same way):

* **content addressing** — an entry's file name is the SHA-256 of the
  ``repr`` of its memo key.  Every persisted cache keys on frozen
  dataclass trees (kernel IR, compile options, calibrated configs) or
  plain tuples of primitives, whose reprs are deterministic across
  processes and invocations.
* **versioned namespace** — entries live under
  ``<root>/<namespace>/<cache>/<digest[:2]>/<digest>.pkl`` where the
  namespace encodes :data:`PERSIST_SCHEMA` and the library version:
  upgrading either orphans (rather than corrupts) the old tier.
* **atomic write-rename** — entries are staged to a per-process temp
  name and published with ``os.replace``, so concurrent writers of the
  same key are safe: one of the complete entries wins, readers never
  observe a partial file.
* **stale-schema invalidation & corruption tolerance** — an entry that
  fails to unpickle, carries the wrong schema/cache/key, or was
  truncated mid-write is evicted, counted as ``invalidated`` and
  recomputed; a broken tier can never break a result.

The tier stores *negative* entries too: a pickled
:class:`~repro.perf._CachedError` (a register-exhausted compile) is
replayed as the original raise, so the tuner's infeasibility memo
survives across processes.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import shutil
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

#: bump to orphan every existing entry (key semantics or layout change);
#: 2: ``GpuLaunchTiming`` lost its ``occupancy`` / ``distribution`` fields
PERSIST_SCHEMA = 2

#: module-level miss sentinel (never pickled, never a valid payload)
MISS = object()


def _namespace() -> str:
    """Current store namespace: schema + library version."""
    from .. import __version__

    return f"v{PERSIST_SCHEMA}-{__version__}"


def key_digest(key: object) -> str:
    """Stable content address of one memo key.

    Keys are frozen-dataclass trees, enums and primitive tuples whose
    ``repr`` is deterministic (no ids, no unordered collections —
    :func:`repro.perf.content_key` already canonicalized dicts and
    sets), so hashing the repr gives equal digests for equal keys in
    every process.
    """
    return hashlib.sha256(repr(key).encode()).hexdigest()


@dataclass
class TierStats:
    """Disk-tier accounting for one cache (parallel to ``CacheStats``)."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    invalidated: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


class PersistentStore:
    """Content-addressed pickle store shared through the filesystem.

    ``load`` counts exactly one of ``hits``/``misses`` per call (an
    invalidated entry additionally bumps ``invalidated`` and is evicted
    before the miss is reported); ``store`` bumps ``writes``.  Counters
    are kept per cache name so the two-tier breakdown surfaces in
    :func:`repro.perf.counters`.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).expanduser()
        self.namespace = _namespace()
        try:
            (self.root / self.namespace).mkdir(parents=True, exist_ok=True)
        except FileExistsError:
            raise NotADirectoryError(
                f"perf cache root {self.root} exists and is not a directory"
            ) from None
        self.stats: dict[str, TierStats] = {}
        #: set to the triggering error text once a write hit resource
        #: exhaustion (ENOSPC / EACCES / ...); every further ``store``
        #: is a no-op from then on — the tier keeps *serving* entries,
        #: it just stops growing (cold-never-wrong, now also
        #: full-never-fatal)
        self.degraded_reason: str | None = None

    # ------------------------------------------------------------------
    def tier_stats(self, name: str) -> TierStats:
        found = self.stats.get(name)
        if found is None:
            found = self.stats[name] = TierStats()
        return found

    def path_for(self, name: str, digest: str) -> Path:
        """Entry file for one cache's key digest (two-level fan-out)."""
        return self.root / self.namespace / name / digest[:2] / f"{digest}.pkl"

    # ------------------------------------------------------------------
    def load(self, name: str, key: object) -> object:
        """The persisted value for ``key``, or the :data:`MISS` sentinel.

        Any read failure — missing file, truncated pickle, foreign
        schema, digest mismatch — degrades to a miss; corrupt entries
        are evicted so the recompute's ``store`` heals the tier.
        """
        stats = self.tier_stats(name)
        digest = key_digest(key)
        path = self.path_for(name, digest)
        try:
            with path.open("rb") as fh:
                entry = pickle.load(fh)
        except FileNotFoundError:
            stats.misses += 1
            return MISS
        except Exception:  # corrupt/truncated/unreadable: never propagate
            self._invalidate(path, stats)
            return MISS
        if (
            not isinstance(entry, dict)
            or entry.get("schema") != PERSIST_SCHEMA
            or entry.get("cache") != name
            or entry.get("key") != digest
            or "value" not in entry
        ):
            self._invalidate(path, stats)
            return MISS
        stats.hits += 1
        return entry["value"]

    def store(self, name: str, key: object, value: object) -> None:
        """Persist one entry (atomic write-then-rename).

        An unpicklable value skips just that entry.  An ``OSError``
        (full disk, revoked permissions, read-only mount) *degrades*
        the tier: one warning, ``degraded_reason`` set, every further
        write a no-op — retrying a dead filesystem once per memo miss
        would turn exhaustion into a slowdown.  Loads keep working.
        """
        if self.degraded_reason is not None:
            return
        stats = self.tier_stats(name)
        digest = key_digest(key)
        path = self.path_for(name, digest)
        entry = {
            "schema": PERSIST_SCHEMA,
            "cache": name,
            "key": digest,
            "value": value,
        }
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        try:
            if os.environ.get("REPRO_FAULTS"):
                from ..experiments import faults

                faults.maybe_disk_full("perf_store")
            path.parent.mkdir(parents=True, exist_ok=True)
            with tmp.open("wb") as fh:
                pickle.dump(entry, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError as exc:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            self.degraded_reason = f"{type(exc).__name__}: {exc}"
            warnings.warn(
                f"persistent perf tier {self.root} degraded "
                f"(writes disabled): {self.degraded_reason}",
                stacklevel=3,
            )
            return
        except (pickle.PicklingError, AttributeError, TypeError):
            # pickle signals unpicklable values with any of these three
            tmp.unlink(missing_ok=True)
            return
        stats.writes += 1

    # ------------------------------------------------------------------
    # maintenance / introspection (the ``repro cache`` CLI)
    # ------------------------------------------------------------------
    def entries(self) -> dict[str, int]:
        """Per-cache entry counts in the current namespace."""
        out: dict[str, int] = {}
        base = self.root / self.namespace
        if base.is_dir():
            for cache_dir in sorted(p for p in base.iterdir() if p.is_dir()):
                out[cache_dir.name] = sum(1 for _ in cache_dir.rglob("*.pkl"))
        return out

    def size_bytes(self) -> int:
        """Total bytes of every namespace under the root (stale included)."""
        return sum(p.stat().st_size for p in self.root.rglob("*") if p.is_file())

    def stale_namespaces(self) -> list[str]:
        """Namespaces left behind by older schemas / library versions."""
        if not self.root.is_dir():
            return []
        return sorted(
            p.name for p in self.root.iterdir() if p.is_dir() and p.name != self.namespace
        )

    def clear(self) -> int:
        """Delete every entry (all namespaces); returns entries removed."""
        removed = 0
        if self.root.is_dir():
            for ns in list(self.root.iterdir()):
                if ns.is_dir():
                    removed += sum(1 for _ in ns.rglob("*.pkl"))
                    shutil.rmtree(ns, ignore_errors=True)
        (self.root / self.namespace).mkdir(parents=True, exist_ok=True)
        return removed

    def reset_stats(self) -> None:
        """Zero the counters (entries on disk are untouched)."""
        self.stats = {}

    # ------------------------------------------------------------------
    def _invalidate(self, path: Path, stats: TierStats) -> None:
        """Evict a corrupt/stale entry; counts invalidated *and* miss."""
        try:
            path.unlink()
        except OSError:  # pragma: no cover - concurrent eviction
            pass
        stats.invalidated += 1
        stats.misses += 1
