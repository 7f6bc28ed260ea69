"""Structured run tracing for campaigns.

A :class:`Campaign` (see :mod:`repro.experiments.engine`) emits one
:class:`TraceEvent` per state transition of every run in the grid —
``queued`` when the campaign is planned, ``started`` when the run is
dispatched (in-process or to a worker), ``finished`` when its
:class:`~repro.benchmarks.base.RunResult` lands — plus a pair of
``campaign_started`` / ``campaign_finished`` envelope events.  Events
flow into a :class:`TraceSink`; the stock sinks are
:class:`JsonlTraceSink` (one JSON object per line, the format consumed
by external dashboards) and :class:`ListTraceSink` (in-memory, used by
tests and interactive inspection).

Timestamps are seconds since the campaign started (``t_s``), measured
with a monotonic clock: they order events and measure queue latency but
deliberately carry no wall-clock epoch, so traces of identical
campaigns diff cleanly.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import IO

#: event names in lifecycle order (per run)
RUN_EVENTS = ("queued", "started", "finished")
#: fault-recovery events: ``run_crashed`` / ``run_timed_out`` precede
#: the demoted run's ``finished`` record; ``pool_restarted`` marks a
#: worker-pool rebuild; ``tier_degraded`` records an on-disk cache tier
#: disabling itself after resource exhaustion (ENOSPC / EACCES)
RECOVERY_EVENTS = ("run_crashed", "run_timed_out", "pool_restarted", "tier_degraded")
#: distributed-execution events (``Campaign(workers=...)``):
#: ``worker_joined`` / ``worker_rejected`` record handshake verdicts
#: (``detail`` carries the worker address and its advertised namespace
#: or the rejection reason), ``run_dispatched`` marks a cell shipped to
#: a named remote worker, and ``worker_lost`` a connection death — the
#: chunk it carried re-enters the recovery ladder.  Losing the whole
#: remote tier reuses ``tier_degraded`` with ``tier="remote_workers"``.
REMOTE_EVENTS = ("worker_joined", "worker_rejected", "run_dispatched", "worker_lost")
#: campaign-level envelope events — every trace ends with exactly one
#: of ``campaign_finished`` (normal) or ``campaign_failed`` (terminal
#: error, after salvage), so a ``tail -f`` never ends mid-story
CAMPAIGN_EVENTS = ("campaign_started", "campaign_finished", "campaign_failed")
#: design-space streaming events (``evaluate_space(stream=True)``):
#: one ``space_chunk_finished`` per config chunk between the envelope
#: pair; ``detail`` carries the evaluated/pruned counts, per-precision
#: frontier sizes and the resident-point watermark
SPACE_EVENTS = ("space_started", "space_chunk_finished", "space_finished")


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace record.

    ``benchmark`` / ``version`` / ``precision`` identify the run for
    per-run events and are ``None`` on campaign-level events.  ``cache``
    is ``"hit"``, ``"miss"`` or ``"off"`` on ``finished`` events.
    ``elapsed_s`` / ``energy_j`` / ``ok`` mirror the run's result;
    ``detail`` carries event-specific extras (grid size, hit counters,
    failure text ...).  ``detail["perf"]`` on ``finished`` /
    ``campaign_finished`` events is the memo-counter delta of the run
    (or campaign) window — per memo ``hits``/``misses``;
    for pool runs it is measured inside the worker process.
    """

    event: str
    t_s: float
    benchmark: str | None = None
    version: str | None = None
    precision: str | None = None
    #: DVFS governor of a governed cell; ``None`` (dropped from the
    #: JSONL form) for every fixed-frequency event
    governor: str | None = None
    cache: str | None = None
    elapsed_s: float | None = None
    energy_j: float | None = None
    ok: bool | None = None
    detail: dict | None = None

    def to_dict(self) -> dict:
        """Dense dict form (``None`` fields dropped) for JSONL."""
        return {k: v for k, v in asdict(self).items() if v is not None}


class TraceSink:
    """Receiver of :class:`TraceEvent` records (base: discards them)."""

    def emit(self, event: TraceEvent) -> None:
        """Record one event."""

    def close(self) -> None:
        """Flush and release any underlying resources."""

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ListTraceSink(TraceSink):
    """Keep events in memory (``sink.events``) — tests, notebooks."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)


class JsonlTraceSink(TraceSink):
    """Append events to a JSON-lines file, one object per line.

    The file is line-buffered through an explicit ``flush`` per event so
    a live campaign can be followed with ``tail -f``.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: IO[str] | None = self.path.open("a")

    def emit(self, event: TraceEvent) -> None:
        if self._fh is None:  # pragma: no cover - defensive
            raise ValueError(f"trace sink {self.path} is closed")
        self._fh.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def resolve_sink(trace: TraceSink | str | Path | None) -> tuple[TraceSink, bool]:
    """The sink a ``trace=`` argument names, and whether the caller owns
    (and must close) it: ``None`` discards events, a path opens a
    :class:`JsonlTraceSink`, a sink passes through."""
    if trace is None:
        return TraceSink(), False
    if isinstance(trace, (str, Path)):
        return JsonlTraceSink(trace), True
    return trace, False


class Tracer:
    """Stamps events with campaign-relative monotonic timestamps."""

    def __init__(self, sink: TraceSink | None) -> None:
        self.sink = sink or TraceSink()
        self._t0 = time.monotonic()

    def emit(self, event: str, **fields) -> None:
        """Build and emit one event ``t_s`` seconds into the campaign."""
        self.sink.emit(TraceEvent(event=event, t_s=time.monotonic() - self._t0, **fields))


def read_trace(path: str | Path) -> list[TraceEvent]:
    """Load a JSONL trace file back into :class:`TraceEvent` records.

    Forward-compatible: fields written by a newer schema (keys this
    version of :class:`TraceEvent` does not know) are folded into
    ``detail`` instead of raising ``TypeError``, so old readers keep
    working on new traces and the round trip loses nothing.

    Kill-tolerant: a process SIGKILLed mid-``emit`` can leave a torn
    final line; that line is dropped with a warning instead of raising,
    so a trace of a crashed campaign stays loadable.  Corruption
    anywhere *before* the final line is still an error — that is damage,
    not an interrupted write.
    """
    from dataclasses import fields as dataclass_fields

    known = {f.name for f in dataclass_fields(TraceEvent)}
    events = []
    lines = [line for line in Path(path).read_text().splitlines() if line.strip()]
    for index, line in enumerate(lines):
        try:
            data = json.loads(line)
        except json.JSONDecodeError:
            if index == len(lines) - 1:
                import warnings

                warnings.warn(
                    f"dropping torn final line of trace {path} "
                    "(writer killed mid-emit?)",
                    stacklevel=2,
                )
                break
            raise
        extra = {k: data.pop(k) for k in list(data) if k not in known}
        if extra:
            detail = dict(data.get("detail") or {})
            detail.update(extra)
            data["detail"] = detail
        events.append(TraceEvent(**data))
    return events
