"""In-process memoization fast lane for the evaluation hot path.

The reproduction's hottest path is the empirical tuning loop: every
OpenCL-Opt run sweeps a (compile options × local size) candidate space,
and the seed implementation recompiled the kernel IR and re-priced the
full architecture model for every candidate, with zero reuse.  This
module provides the content-keyed caches that remove that redundancy
while keeping results bit-identical:

* ``compile`` — :func:`repro.compiler.pipeline.compile_kernel` results
  (including *negative* results: a register-exhausted options point is
  remembered and never re-attempted — the tuner's infeasibility memo);
* ``analysis`` — :func:`repro.ir.analysis.analyze` instruction mixes;
* ``gpu_timing`` / ``cpu_timing`` — :func:`repro.mali.timing.time_launch`
  and Serial/OpenMP pricing results;
* ``functional`` — per-benchmark-instance functional results (reference
  outputs, ``run_numpy`` executions, verification verdicts);
* ``gpu_exec`` — content-addressed functional kernel executions (the
  OpenCL and OpenCL-Opt versions of a benchmark run the same NumPy
  kernel on the same staged inputs; the second launch replays the
  first's outputs).

Every cache is an LRU with hit/miss/evict counters; the campaign engine
snapshots :func:`counters` around each run and threads the deltas into
:class:`~repro.experiments.engine.CampaignReport` and the JSONL trace.

Since PR 3 the content-keyed caches are **two-tier**: below the
in-process LRU sits an optional disk-backed
:class:`~repro.perf.persist.PersistentStore`
(``configure(config=PerfConfig(persist_dir=...))``), so campaign
workers share warm state
through the filesystem and a fresh process starts hot.  Only the
caches whose keys are content-addressed persist (``compile``,
``analysis``, ``gpu_timing``, ``cpu_timing``, ``gpu_exec``); the
per-instance ``functional`` memo stays in-process.  Disk activity is
accounted per cache as ``disk_hits`` / ``disk_misses`` /
``disk_writes`` / ``disk_invalidated`` keys in the same
:func:`counters` snapshot.

All cached functions are pure: a key is built only from frozen,
content-hashable inputs (kernel IR trees, options, calibrated configs)
or from content digests of NumPy arrays, so a cache hit returns exactly
the object a fresh computation would have produced.  The whole lane can
be switched off (``configure(config=PerfConfig(enabled=False))`` or the
:func:`disabled`
context manager) to fall back to the unmemoized path — the two paths
produce byte-identical :class:`~repro.experiments.runner.ResultSet`
JSON, which ``benchmarks/test_perf_hotpath.py`` asserts at paper scale.
"""

from __future__ import annotations

import dataclasses
import hashlib
import warnings
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from ..errors import ReproError
from .persist import MISS as _MISS
from .persist import PersistentStore, TierStats

__all__ = [
    "CacheStats",
    "MemoCache",
    "PERSISTED_CACHES",
    "PerfConfig",
    "PersistentStore",
    "TierStats",
    "cache",
    "caches",
    "configure",
    "content_key",
    "current_config",
    "counters",
    "counters_delta",
    "counters_merge",
    "digest",
    "disabled",
    "instance_memo",
    "is_enabled",
    "memoized_kernel_func",
    "persistent_store",
    "reset",
]

#: default LRU capacity per cache (entries, not bytes)
DEFAULT_MAXSIZE = 512

#: caches whose keys are content-addressed and therefore valid across
#: processes — the only ones the persistent tier may back
PERSISTED_CACHES = frozenset({"compile", "analysis", "gpu_timing", "cpu_timing", "gpu_exec"})

_ENABLED = True

_STORE: PersistentStore | None = None

_UNSET = object()


@dataclass(frozen=True)
class PerfConfig:
    """The whole fast-lane configuration as one frozen value.

    ``enabled`` switches both tiers on or off; ``persist_dir`` is the
    disk tier — a path, an attached :class:`PersistentStore` (so a
    caller can save and restore the store object, counters included), or
    ``None`` for memory-only.  Pass to ``configure(config=...)``; read
    the current state back with :func:`current_config`.  The dataclass
    replaces ``configure``'s grown keyword set with one value that can be
    captured, compared, and restored atomically.
    """

    enabled: bool = True
    persist_dir: Any = None


def current_config() -> PerfConfig:
    """Snapshot of the live fast-lane state as a :class:`PerfConfig`.

    ``persist_dir`` is the attached :class:`PersistentStore` object (not
    the original path), so ``configure(config=current_config())`` is an
    exact save/restore round trip.
    """
    return PerfConfig(enabled=_ENABLED, persist_dir=_STORE)


def configure(
    config: PerfConfig | None = None, *, enabled: bool | None = None, persist_dir=_UNSET
) -> None:
    """Adjust the fast lane process-wide.

    The one supported path is ``configure(config=PerfConfig(...))``,
    which applies the *whole* configuration atomically.  The legacy
    keywords remain as a shim — ``enabled`` switches both tiers on or
    off, ``persist_dir`` attaches the disk tier (a path, an existing
    :class:`PersistentStore`, or ``None`` to detach), and omitted
    keywords leave their setting untouched — but they emit a single
    :class:`DeprecationWarning` and cannot be mixed with ``config``.
    """
    global _ENABLED, _STORE
    if config is not None:
        if enabled is not None or persist_dir is not _UNSET:
            raise ValueError("pass either config= or the legacy keywords, not both")
        _ENABLED = bool(config.enabled)
        store = config.persist_dir
        if store is None or isinstance(store, PersistentStore):
            _STORE = store
        else:
            _STORE = PersistentStore(store)
        return
    if enabled is not None or persist_dir is not _UNSET:
        warnings.warn(
            "perf.configure(enabled=..., persist_dir=...) keywords are deprecated; "
            "pass perf.configure(config=perf.PerfConfig(...))",
            DeprecationWarning,
            stacklevel=2,
        )
    if enabled is not None:
        _ENABLED = bool(enabled)
    if persist_dir is not _UNSET:
        if persist_dir is None or isinstance(persist_dir, PersistentStore):
            _STORE = persist_dir
        else:
            _STORE = PersistentStore(persist_dir)


def persistent_store() -> PersistentStore | None:
    """The attached disk tier, or ``None`` when running memory-only."""
    return _STORE


def is_enabled() -> bool:
    """Whether memoization is currently active."""
    return _ENABLED


@contextmanager
def disabled() -> Iterator[None]:
    """Run a block on the unmemoized path (byte-identical results)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous


@dataclass
class CacheStats:
    """Hit/miss/evict accounting of one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "evictions": self.evictions}


class _CachedError:
    """A memoized *negative* result (the computation raised)."""

    __slots__ = ("error",)

    def __init__(self, error: ReproError):
        self.error = error


class MemoCache:
    """A named LRU memo table with counters.

    Values are stored as-is (cached functions return immutable/frozen
    objects); :class:`ReproError` exceptions are cached too, so an
    infeasible compile is rejected instantly on every re-attempt.

    A cache created with ``persist=True`` additionally consults the
    attached :class:`PersistentStore` (if any) on an in-memory miss and
    writes every fresh compute — positive or negative — through to it.
    """

    def __init__(self, name: str, maxsize: int = DEFAULT_MAXSIZE, persist: bool = False):
        self.name = name
        self.maxsize = maxsize
        self.persist = persist
        self.stats = CacheStats()
        self._data: OrderedDict[Any, Any] = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    # ------------------------------------------------------------------
    def get(self, key: Any) -> Any:
        """Raw lookup: the cached entry, or the module-private miss
        sentinel.  Counts a hit or miss."""
        entry = self._data.get(key, _MISS)
        if entry is _MISS:
            self.stats.misses += 1
            return _MISS
        self._data.move_to_end(key)
        self.stats.hits += 1
        return entry

    def put(self, key: Any, value: Any) -> None:
        """Insert an entry, evicting the least recently used past capacity."""
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.stats.evictions += 1

    def get_or_compute(self, key: Any, compute: Callable[[], Any]) -> Any:
        """Memoized call: cached value, cached re-raise, or fresh compute.

        When the lane is disabled this degrades to a plain ``compute()``
        with no counter or table traffic.
        """
        if not _ENABLED:
            return compute()
        entry = self.get(key)
        if entry is not _MISS:
            if isinstance(entry, _CachedError):
                raise entry.error
            return entry
        store = _STORE if self.persist else None
        if store is not None:
            entry = store.load(self.name, key)
            if entry is not _MISS:
                self.put(key, entry)
                if isinstance(entry, _CachedError):
                    raise entry.error
                return entry
        try:
            value = compute()
        except ReproError as exc:
            cached = _CachedError(exc)
            self.put(key, cached)
            if store is not None:
                store.store(self.name, key, cached)
            raise
        self.put(key, value)
        if store is not None:
            store.store(self.name, key, value)
        return value

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
        self._data.clear()
        self.stats = CacheStats()


_REGISTRY: dict[str, MemoCache] = {}


def cache(name: str, maxsize: int = DEFAULT_MAXSIZE) -> MemoCache:
    """The process-wide cache registered under ``name`` (created lazily).

    Caches named in :data:`PERSISTED_CACHES` are two-tier: they consult
    and fill the attached :class:`PersistentStore` whenever one is
    configured.
    """
    found = _REGISTRY.get(name)
    if found is None:
        found = _REGISTRY[name] = MemoCache(
            name, maxsize=maxsize, persist=name in PERSISTED_CACHES
        )
    return found


def caches() -> dict[str, MemoCache]:
    """All registered caches, by name."""
    return dict(_REGISTRY)


def counters() -> dict[str, dict[str, int]]:
    """Snapshot of every cache's counters (stable, JSON-able).

    With a persistent tier attached, each persisted cache's dict gains
    ``disk_hits`` / ``disk_misses`` / ``disk_writes`` /
    ``disk_invalidated`` keys alongside the in-memory trio — one
    snapshot, two tiers, so every existing consumer of the PR-2 shape
    (report deltas, traces) carries the disk breakdown for free.
    """
    out: dict[str, dict[str, int]] = {}
    for name, c in sorted(_REGISTRY.items()):
        stats = c.stats.as_dict()
        if c.persist and _STORE is not None:
            for key, value in _STORE.tier_stats(name).as_dict().items():
                stats[f"disk_{key}"] = value
        out[name] = stats
    return out


def counters_delta(
    before: dict[str, dict[str, int]], after: dict[str, dict[str, int]]
) -> dict[str, dict[str, int]]:
    """Per-cache counter difference ``after - before``.

    Caches with no activity in the window are dropped, so the delta is
    compact enough to embed in per-run trace events.
    """
    delta: dict[str, dict[str, int]] = {}
    for name, stats in after.items():
        base = before.get(name, {})
        moved = {k: v - base.get(k, 0) for k, v in stats.items()}
        if any(moved.values()):
            delta[name] = moved
    return delta


def counters_merge(*deltas: dict[str, dict[str, int]]) -> dict[str, dict[str, int]]:
    """Sum per-cache counter deltas from several windows (or processes).

    The campaign engine uses this to fold worker-process deltas into
    one campaign-level accounting; caches that end up all-zero are
    dropped, mirroring :func:`counters_delta`.
    """
    merged: dict[str, dict[str, int]] = {}
    for delta in deltas:
        for name, stats in delta.items():
            into = merged.setdefault(name, {})
            for key, value in stats.items():
                into[key] = into.get(key, 0) + value
    return {name: stats for name, stats in merged.items() if any(stats.values())}


def reset() -> None:
    """Clear every cache and zero every counter (a cold fast lane).

    The persistent tier's *counters* are zeroed too, but its on-disk
    entries survive — dropping those is an explicit
    :meth:`PersistentStore.clear` (the ``repro cache clear`` CLI).
    """
    for c in _REGISTRY.values():
        c.clear()
    if _STORE is not None:
        _STORE.reset_stats()


# ---------------------------------------------------------------------------
# content digests & higher-level memo helpers
# ---------------------------------------------------------------------------


def content_key(obj: Any) -> Any:
    """A hashable content token for an (effectively) immutable value.

    Hashable values pass through untouched.  Frozen dataclasses that
    carry dict fields (e.g. ``MaliConfig.op_cost``) and plain containers
    are converted recursively to tuples; anything else falls back to its
    ``repr``.  Two calls on equal content yield equal tokens, which is
    all a memo key needs.
    """
    try:
        hash(obj)
        return obj
    except TypeError:
        pass
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__qualname__,) + tuple(
            content_key(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        )
    if isinstance(obj, dict):
        return tuple(sorted((repr(k), content_key(v)) for k, v in obj.items()))
    if isinstance(obj, (set, frozenset)):
        return tuple(sorted(repr(item) for item in obj))
    if isinstance(obj, (list, tuple)):
        return tuple(content_key(item) for item in obj)
    return repr(obj)


def digest(*parts: Any) -> str:
    """Content fingerprint of a mixed sequence of arrays and plain values."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.dtype).encode())
            h.update(repr(part.shape).encode())
            data = part if part.flags.c_contiguous else np.ascontiguousarray(part)
            h.update(memoryview(data.reshape(-1).view(np.uint8)))
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def instance_memo(obj: Any, tag: Any, compute: Callable[[], Any], *, counter: str = "functional") -> Any:
    """Memoize a pure per-instance computation on the instance itself.

    Benchmark instances are immutable after ``setup()`` — their lazy
    input arrays are drawn once, on first use, and never change — so
    results that depend only on instance state (the verification
    reference, the functional CPU execution) are computed once per
    instance.  Hits and misses are accounted under the ``counter`` cache
    so they surface in :func:`counters` alongside the content-keyed
    caches.
    """
    if not _ENABLED:
        return compute()
    stats = cache(counter).stats
    memo = obj.__dict__.setdefault("_perf_memo", {})
    if tag in memo:
        stats.hits += 1
        return memo[tag]
    stats.misses += 1
    value = compute()
    memo[tag] = value
    return value


def memoized_kernel_func(tag: Any, func: Callable[..., None]) -> Callable[..., None]:
    """Content-addressed replay wrapper for a kernel's functional body.

    The mini-OpenCL queue executes a kernel's NumPy implementation on
    the device views of its argument buffers.  The OpenCL and OpenCL-Opt
    versions of a benchmark launch the same function on identically
    staged inputs — the numeric outcome cannot differ — so the wrapper
    keys on ``tag`` plus content digests of every argument, runs the
    real function on a miss, records which arrays it changed, and on a
    hit replays those outputs without recomputing.  Timing and power are
    unaffected: the queue prices every launch through the architecture
    model regardless.
    """
    exec_cache = cache("gpu_exec", maxsize=32)

    def wrapper(*args: Any) -> None:
        if not _ENABLED:
            func(*args)
            return
        arrays = [a for a in args if isinstance(a, np.ndarray)]
        pre = tuple(digest(a) for a in arrays)
        scalars = tuple(repr(a) for a in args if not isinstance(a, np.ndarray))
        key = (tag, pre, scalars)
        entry = exec_cache.get(key)
        if entry is _MISS and _STORE is not None and exec_cache.persist:
            entry = _STORE.load(exec_cache.name, key)
            if entry is not _MISS:
                exec_cache.put(key, entry)
        if entry is not _MISS:
            for index, data in entry:
                arrays[index][...] = data
            return
        func(*args)
        changed = tuple(
            (i, arr.copy()) for i, arr in enumerate(arrays) if digest(arr) != pre[i]
        )
        exec_cache.put(key, changed)
        if _STORE is not None and exec_cache.persist:
            _STORE.store(exec_cache.name, key, changed)

    return wrapper
