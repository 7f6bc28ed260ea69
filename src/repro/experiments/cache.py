"""Content-addressed on-disk cache of simulated runs.

Every grid cell a :class:`~repro.experiments.engine.Campaign` executes
is a pure function of ``(scale, seed, platform, benchmark, version,
precision)`` — the simulation consumes its RNG only during problem
setup, so re-running a cell always reproduces the same
:class:`~repro.benchmarks.base.RunResult`.  The cache exploits that:
each result is stored under a SHA-256 key derived from the campaign's
*run fingerprint* (scale, seed, platform, library version — see
:meth:`CampaignSpec.run_fingerprint
<repro.experiments.engine.CampaignSpec.run_fingerprint>`) plus the cell
coordinates, so **any** campaign with the same run parameters — the
figure builders, ``examples/``, the pytest-benchmark harness, partial
what-if grids — reuses previously computed runs regardless of which
subset of the grid it asks for.

Entries are one JSON file each under ``<root>/<key[:2]>/<key>.json``
(git-friendly, rsync-able, trivially garbage-collected), written
atomically via rename.  An entry whose embedded schema or key fields no
longer match is *invalidated*: evicted, counted, and recomputed.

The cache is an accelerator, never a point of failure: a ``store`` that
hits resource exhaustion (ENOSPC, EACCES, a read-only filesystem)
*degrades* the cache — one warning, writes disabled for the rest of the
process, ``degraded_reason`` set for the campaign report — instead of
failing the run that produced the result.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

from ..benchmarks.base import Precision, RunResult, Version

#: bump to orphan every existing entry (layout or semantics change)
CACHE_SCHEMA = 1

#: age after which an unattributable ``*.tmp`` staging file is presumed
#: orphaned (its writer died mid-``store``) and swept on cache open
STALE_TMP_AGE_S = 3600.0


@dataclass
class CacheStats:
    """Hit / miss / invalidation accounting for one cache handle."""

    hits: int = 0
    misses: int = 0
    invalidated: int = 0
    writes: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


def run_key(
    run_fingerprint: str,
    benchmark: str,
    version: Version,
    precision: Precision,
    governor: str | None = None,
) -> str:
    """Content address of one grid cell: SHA-256 over fingerprint + cell.

    ``governor`` enters the blob only for governed (non-fixed) cells, so
    every fixed-frequency key — and with it every warm cache entry
    written before the DVFS axis existed — is unchanged.
    """
    payload = {
        "fingerprint": run_fingerprint,
        "benchmark": benchmark,
        "version": version.value,
        "precision": precision.value,
    }
    if governor is not None:
        payload["governor"] = governor
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


class RunCache:
    """On-disk run store addressed by :func:`run_key` digests.

    ``load`` counts exactly one of ``hits``/``misses`` per call (an
    invalidated entry additionally bumps ``invalidated`` and is evicted
    before the miss is reported); ``store`` bumps ``writes``.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except FileExistsError:
            raise NotADirectoryError(
                f"run cache root {self.root} exists and is not a directory"
            ) from None
        self.stats = CacheStats()
        #: set to the triggering error text once a write hit resource
        #: exhaustion; all further ``store`` calls are no-ops from then
        #: on (loads keep working — a full disk can still serve hits)
        self.degraded_reason: str | None = None
        self._sweep_stale_tmp()

    def path_for(self, key: str) -> Path:
        """Entry file for a digest (two-level fan-out, git style)."""
        return self.root / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    def load(self, key: str) -> RunResult | None:
        """Return the cached run for ``key``, or ``None`` on miss."""
        from .runner import run_from_row  # deferred: runner imports engine lazily

        path = self.path_for(key)
        try:
            entry = json.loads(path.read_text())
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self._invalidate(path)
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("cache_schema") != CACHE_SCHEMA
            or entry.get("key") != key
            or "run" not in entry
        ):
            self._invalidate(path)
            return None
        try:
            run = run_from_row(entry["run"])
        except (KeyError, TypeError, ValueError):
            self._invalidate(path)
            return None
        if run.failure_kind in ("crash", "timeout"):
            # operational accidents are never stored; an entry carrying
            # one predates that rule (or was planted) and is not a fact
            # about the spec — evict it and re-execute
            self._invalidate(path)
            return None
        self.stats.hits += 1
        return run

    def store(self, key: str, run: RunResult) -> None:
        """Persist one run under ``key`` (atomic write-then-rename).

        Resource exhaustion (ENOSPC / EACCES / EROFS / EDQUOT) degrades
        the cache — writes become no-ops for the rest of the process,
        with one warning — instead of failing the run; other write
        errors degrade as well, since a cache that cannot write is a
        cache, not a blocker.
        """
        from .runner import run_to_row

        if self.degraded_reason is not None:
            return
        path = self.path_for(key)
        entry = {"cache_schema": CACHE_SCHEMA, "key": key, "run": run_to_row(run)}
        # per-process staging name: concurrent campaigns may store the
        # same cell; each stages privately and the rename is atomic
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        try:
            if os.environ.get("REPRO_FAULTS"):
                from . import faults

                faults.maybe_disk_full("run_cache")
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(entry, indent=1, sort_keys=True))
            os.replace(tmp, path)
        except OSError as exc:
            self._degrade(exc, tmp)
            return
        self.stats.writes += 1

    def _degrade(self, exc: OSError, tmp: Path) -> None:
        """Disable writes after a resource-exhaustion error (warn once)."""
        try:
            tmp.unlink()
        except OSError:
            pass
        self.degraded_reason = f"{type(exc).__name__}: {exc}"
        warnings.warn(
            f"run cache {self.root} degraded (writes disabled): "
            f"{self.degraded_reason}",
            stacklevel=3,
        )

    # ------------------------------------------------------------------
    # maintenance / introspection (the ``repro cache`` CLI)
    # ------------------------------------------------------------------
    def entry_count(self) -> int:
        """Number of cached runs on disk (staging ``*.tmp`` files — from
        writers that died mid-``store`` — are not entries)."""
        return sum(
            1
            for p in self.root.rglob("*.json")
            if p.is_file() and not p.name.endswith(".tmp")
        )

    def size_bytes(self) -> int:
        """Total bytes of the cached runs (``*.json``) and of stray
        ``*.tmp`` staging files; other files under the root are not the
        cache's and are not counted."""
        return sum(
            p.stat().st_size
            for pattern in ("*.json", "*.tmp")
            for p in self.root.rglob(pattern)
            if p.is_file()
        )

    def clear(self) -> int:
        """Delete every cached run; returns the number removed.

        Stray ``*.tmp`` staging files are swept as well (a writer that
        died mid-``store`` must not leave the root dirty forever) but do
        not count toward the return value — they were never entries.
        """
        removed = 0
        for path in list(self.root.rglob("*.json")):
            try:
                path.unlink()
            except OSError:  # pragma: no cover - concurrent eviction
                continue
            removed += 1
        for tmp in list(self.root.rglob("*.tmp")):
            try:
                tmp.unlink()
            except OSError:  # pragma: no cover - concurrent eviction
                pass
        return removed

    def clear_legacy_perf_tier(self) -> int:
        """Delete the ``perf/`` tree that older versions' persistent perf
        tier left under the root; returns the number of files removed."""
        legacy = self.root / "perf"
        if not legacy.is_dir():
            return 0
        removed = sum(1 for p in legacy.rglob("*") if p.is_file())
        shutil.rmtree(legacy, ignore_errors=True)
        return removed

    # ------------------------------------------------------------------
    def _sweep_stale_tmp(self) -> None:
        """Age out staging files orphaned by writers that died mid-store.

        Staging names embed the writer's pid (``<key>.<pid>.tmp``): a
        file whose writer is no longer alive is certainly orphaned and
        removed immediately; anything unattributable falls back to an
        age check so a concurrent live campaign's staging is never
        swept from under it.
        """
        now = time.time()
        for tmp in list(self.root.rglob("*.tmp")):
            parts = tmp.name.split(".")
            pid_text = parts[-2] if len(parts) >= 3 else ""
            try:
                if pid_text.isdigit() and int(pid_text) > 0:
                    if not _pid_alive(int(pid_text)):
                        tmp.unlink()
                    continue
                if now - tmp.stat().st_mtime > STALE_TMP_AGE_S:
                    tmp.unlink()
            except OSError:  # pragma: no cover - concurrent sweep
                continue

    def _invalidate(self, path: Path) -> None:
        """Evict a stale/corrupt entry; counts as invalidated *and* miss."""
        try:
            path.unlink()
        except OSError:  # pragma: no cover - concurrent eviction
            pass
        self.stats.invalidated += 1
        self.stats.misses += 1


def _pid_alive(pid: int) -> bool:
    """Whether a process with this pid exists (signal-0 probe)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:  # e.g. EPERM: exists but owned by someone else
        return True
    return True
