"""Per-instance memo of the functional numerics, and its counters.

A benchmark instance computes some results that depend only on its own
inputs more than once per run: the verification reference, the verdict
of the functional CPU execution that Serial and OpenMP share, and a
few benchmark-private intermediates.  :func:`instance_memo` keeps each
on the instance itself, under a tag, so it dies with the instance.

Nothing else is memoized.  Compiles and instruction mixes are computed
on every call: a content key hashes a whole kernel IR tree, which
costs about as much as the analysis it would save, and on a cold grid
a compile memo hit too rarely to pay for its keys.  Prices are one
lane of their stack formula.  What a run does need again is the
tuner's decision, which :func:`~repro.benchmarks.base.tuned_candidate`
holds on the benchmark instance, once per platform.

The memo counts its hits and misses under ``functional``; the campaign
engine snapshots :func:`counters` around each run and threads the
deltas into :class:`~repro.experiments.engine.CampaignReport` and the
JSONL trace.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable

import numpy as np

__all__ = [
    "counters",
    "counters_delta",
    "counters_merge",
    "digest",
    "instance_memo",
    "reset",
]

_FUNCTIONAL = {"hits": 0, "misses": 0}


def counters() -> dict[str, dict[str, int]]:
    """Snapshot of every memo's counters (stable, JSON-able)."""
    return {"functional": dict(_FUNCTIONAL)}


def counters_delta(
    before: dict[str, dict[str, int]], after: dict[str, dict[str, int]]
) -> dict[str, dict[str, int]]:
    """Per-memo counter difference ``after - before``.

    Memos with no activity in the window are dropped, so the delta is
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
    """Sum per-memo counter deltas from several windows (or processes).

    The campaign engine uses this to fold worker-process deltas into
    one campaign-level accounting; memos that end up all-zero are
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
    """Zero every counter."""
    _FUNCTIONAL.update(hits=0, misses=0)


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


def instance_memo(obj: Any, tag: Any, compute: Callable[[], Any]) -> Any:
    """Memoize a pure per-instance computation on the instance itself.

    Benchmark instances are immutable after ``setup()`` — their lazy
    input arrays are drawn once, on first use, and never change — so
    results that depend only on instance state (the verification
    reference, the verdict of the functional CPU execution) are computed
    once per instance.  Hits and misses count under ``functional`` in
    :func:`counters`.
    """
    memo = obj.__dict__.setdefault("_perf_memo", {})
    if tag in memo:
        _FUNCTIONAL["hits"] += 1
        return memo[tag]
    _FUNCTIONAL["misses"] += 1
    value = compute()
    memo[tag] = value
    return value
