"""In-process memoization fast lane for the evaluation hot path.

The reproduction's hottest path is the empirical tuning loop: every
OpenCL-Opt run sweeps a (compile options × local size) candidate space,
compiling each options point's kernels and pricing each candidate.
This module provides the content-keyed caches that keep the compile
side from repeating itself while keeping results bit-identical:

* ``compile`` — :func:`repro.compiler.pipeline.compile_kernel` results
  (including *negative* results: a register-exhausted options point is
  remembered and never re-attempted — the tuner's infeasibility memo);
* ``analysis`` — :func:`repro.ir.analysis.analyze` instruction mixes;
* ``functional`` — per-benchmark-instance results (reference outputs,
  the Serial/OpenMP verdict).

Prices are not memoized: a launch or CPU cell is one lane of its
stack formula, and on a cold grid a price memo hits too rarely to pay
for its keys.  What a run does need again is the tuner's decision,
which :func:`~repro.benchmarks.base.tuned_candidate` holds on the
benchmark instance, once per platform.

Every cache is an LRU with hit/miss/evict counters; the campaign engine
snapshots :func:`counters` around each run and threads the deltas into
:class:`~repro.experiments.engine.CampaignReport` and the JSONL trace.
The caches live in process memory only: a fresh process starts cold,
and a warm rerun is served whole by the campaign's run cache
(:mod:`repro.experiments.cache`) instead.

All cached functions are pure: a key is built only from frozen,
content-hashable inputs (kernel IR trees, options, calibrated configs),
so a cache hit returns exactly the object a fresh computation would
have produced.  The whole lane can be switched off for a block with
the :func:`disabled` context manager: every lookup then computes
afresh through the same code, with no table or counter traffic —
switching the memo off changes how often a value is computed, never
how.  Both settings produce byte-identical
:class:`~repro.experiments.runner.ResultSet` JSON
(``tests/unit/test_perf_cache.py`` runs the SP+DP grid both ways).
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from ..errors import ReproError

__all__ = [
    "CacheStats",
    "MemoCache",
    "cache",
    "caches",
    "content_key",
    "counters",
    "counters_delta",
    "counters_merge",
    "digest",
    "disabled",
    "instance_memo",
    "is_enabled",
    "reset",
]

#: default LRU capacity per cache (entries, not bytes)
DEFAULT_MAXSIZE = 512

#: module-level miss sentinel (never a valid cached value)
_MISS = object()

_ENABLED = True


def is_enabled() -> bool:
    """Whether memoization is currently active."""
    return _ENABLED


@contextmanager
def disabled() -> Iterator[None]:
    """Run a block with the memo skipped: every lookup computes afresh
    (same code, byte-identical results), touching no table."""
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


def _unraised(error: ReproError) -> ReproError:
    """A copy of ``error`` that was never raised: same type, args and
    attributes, no traceback."""
    copy = type(error).__new__(type(error), *error.args)
    copy.__dict__.update(error.__dict__)
    return copy


class _CachedError:
    """A memoized *negative* result (the computation raised).

    It keeps an unraised copy of the error and raises a new copy on
    every hit.  A raised exception holds its traceback, and the frames
    on it hold the arguments of every call it passed through (a whole
    benchmark instance with its arrays), so the memo never keeps an
    exception that has been raised.
    """

    __slots__ = ("error",)

    def __init__(self, error: ReproError):
        self.error = _unraised(error)


class MemoCache:
    """A named LRU memo table with counters.

    Values are stored as-is (cached functions return immutable/frozen
    objects); :class:`ReproError` exceptions are cached too, so an
    infeasible compile is rejected instantly on every re-attempt.
    """

    def __init__(self, name: str, maxsize: int = DEFAULT_MAXSIZE):
        self.name = name
        self.maxsize = maxsize
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
                raise _unraised(entry.error)
            return entry
        try:
            value = compute()
        except ReproError as exc:
            self.put(key, _CachedError(exc))
            raise
        self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
        self._data.clear()
        self.stats = CacheStats()


_REGISTRY: dict[str, MemoCache] = {}


def cache(name: str, maxsize: int = DEFAULT_MAXSIZE) -> MemoCache:
    """The process-wide cache registered under ``name`` (created lazily)."""
    found = _REGISTRY.get(name)
    if found is None:
        found = _REGISTRY[name] = MemoCache(name, maxsize=maxsize)
    return found


def caches() -> dict[str, MemoCache]:
    """All registered caches, by name."""
    return dict(_REGISTRY)


def counters() -> dict[str, dict[str, int]]:
    """Snapshot of every cache's counters (stable, JSON-able)."""
    return {name: c.stats.as_dict() for name, c in sorted(_REGISTRY.items())}


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
    """Clear every cache and zero every counter (a cold fast lane)."""
    for c in _REGISTRY.values():
        c.clear()


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
    reference, the verdict of the functional CPU execution) are computed
    once per instance.  Hits and misses are accounted under the ``counter`` cache
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
