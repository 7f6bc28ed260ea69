"""Campaign engine: plan, parallelize, cache and trace the grid.

The reproduction's experiment grid (benchmark × version × precision)
used to be a serial triple loop; this module turns it into a planned
**campaign** of independent run tasks:

* :class:`CampaignSpec` — a frozen, hashable description of the grid
  and its run parameters (scale, seed, platform), with content
  fingerprints for archiving and cache addressing;
* :class:`Campaign` — plans the spec into :class:`RunTask` units and
  executes them either in-process (``jobs=1``, bit-for-bit the classic
  serial path, handy for determinism debugging) or on a
  ``ProcessPoolExecutor`` (``jobs=N``), producing a
  :class:`~repro.experiments.runner.ResultSet` whose ``to_json()`` is
  byte-identical either way;
* a content-addressed on-disk cache (:mod:`repro.experiments.cache`)
  so figures, examples and benches reuse runs across invocations;
* structured tracing (:mod:`repro.experiments.trace`) of every run's
  queued/started/finished lifecycle;
* :class:`CampaignReport` — the aggregate accounting (cache hits,
  failures, crashes, retries, wall time) of one ``Campaign.run()``.

Every cell of the grid is a pure function of the spec (benchmarks
draw only their inputs — sizes during setup, the input arrays lazily on
first use, always in the same order, and once per family for all its
precisions), which is what makes both the process pool and the cache
sound.

Execution is **crash-proof**: an unexpected exception inside a cell is
captured as a failed :class:`RunResult` with ``failure_kind="crash"``
instead of aborting the campaign, and a worker death — of the local
process pool or a remote worker, both driven by one recovery loop
(:meth:`Campaign._run_chunks`) — feeds one retry ladder at
progressively finer granularity — family, then version-group, then
single task — until the faulty cell is isolated on a probe run and, if
it keeps killing workers, demoted to a crashed result while every other
cell still completes.  Even a terminal error (e.g.
``KeyboardInterrupt``) leaves behind a salvaged partial ``ResultSet``
(:attr:`Campaign.salvage`), a fresh report, and a ``campaign_failed``
trace event.

Since PR 5 the engine is also **kill-proof and budget-aware**:

* ``Campaign.run(journal_dir=...)`` appends an fsync'd JSONL journal
  (:mod:`repro.experiments.journal`) of every completed cell, so a
  campaign whose *orchestrating process* is SIGKILLed resumes with
  :meth:`Campaign.resume` (or the ``repro resume`` CLI verb) — replayed
  cells are skipped, the rest execute, and the final ``ResultSet`` is
  byte-identical to an uninterrupted run;
* ``cell_timeout_s`` / ``deadline_s`` arm **budgets**: the recovery
  loop reads chunk budgets on the campaign :class:`Clock` once per
  turn and kills workers whose chunk overran (a remote link enforces
  its own), the timeout ladder narrows the hang to a single cell, and
  that cell is demoted to a ``failure_kind="timeout"`` result;
  in-process runs guard each cell with a SIGALRM timer.  A campaign that overruns ``deadline_s``
  terminates with :class:`DeadlineExceeded` — through the salvage path,
  so the journal + partial results make the remainder resumable;
* a run cache that hits resource exhaustion (ENOSPC / EACCES)
  *degrades* instead of failing the run — see
  :meth:`repro.experiments.cache.RunCache.store` — and the campaign
  surfaces it as a ``tier_degraded`` trace event plus a
  ``DEGRADED`` report line.
"""

from __future__ import annotations

import hashlib
import json
import signal
import threading
import time
import traceback
import warnings
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from .. import perf
from ..benchmarks.base import (
    Benchmark,
    Draws,
    Precision,
    RunResult,
    Version,
    run_version,
)
from ..benchmarks.registry import PAPER_ORDER, create
from ..calibration.exynos5250 import ExynosPlatform, default_platform
from ..errors import ReproError
from ..power import dvfs
from . import faults
from .cache import RunCache, run_key
from .journal import CampaignJournal
from .remote import PoolExhausted, RemoteWorkerPool
from .runner import Key, ResultSet, key_label
from .trace import Tracer, TraceSink, resolve_sink


class DeadlineExceeded(ReproError):
    """The campaign overran ``deadline_s`` and was terminated.

    Raised through the salvage path: completed cells are preserved in
    :attr:`Campaign.salvage` (and, when a journal is attached, on disk)
    so the remainder of the grid can be resumed under a fresh budget.
    """


class _CellTimeout(BaseException):
    """Raised by the inline watchdog's SIGALRM handler.

    A ``BaseException`` on purpose: it must sail through the engine's
    per-cell crash capture (``except Exception``) so a budget overrun is
    recorded as ``failure_kind="timeout"``, never as a crash.
    """


@dataclass(frozen=True)
class Clock:
    """Injectable time source for retries and budgets.

    The engine only ever reads time through one of these, so
    fault-tolerance tests substitute a fake (whose ``sleep`` advances
    virtual time instantly) and exercise exponential backoff and budget
    math without wall-sleeping.
    """

    monotonic: Callable[[], float] = time.monotonic
    sleep: Callable[[float], None] = time.sleep


def _kill_pool_processes(pool: ProcessPoolExecutor) -> None:
    """Forcibly kill a pool's worker processes (stuck workers ignore
    ``shutdown``; only SIGKILL unblocks their futures)."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.kill()
        except Exception:  # noqa: BLE001 — already-dead workers etc.
            pass


@dataclass(frozen=True)
class RunTask:
    """One independent unit of campaign work: a single grid cell.

    Tasks are plain frozen dataclasses of primitives (plus the
    picklable frozen platform), so they cross process boundaries and
    hash into cache keys without ceremony.
    """

    benchmark: str
    version: Version
    precision: Precision
    scale: float
    seed: int
    platform: ExynosPlatform | None = None
    governor: str = dvfs.GOVERNOR_DEFAULT
    energy_deadline_s: float | None = None

    @property
    def result_governor(self) -> str | None:
        """Governor as carried by results: ``None`` on the fixed path.

        Fixed-frequency results keep ``governor=None`` so their
        ResultSet keys, cache keys and serialized rows are byte-identical
        to the pre-DVFS engine.
        """
        return None if self.governor == dvfs.GOVERNOR_DEFAULT else self.governor

    @property
    def cell(self) -> Key:
        """The ResultSet key this task fills (governor-aware)."""
        if self.governor == dvfs.GOVERNOR_DEFAULT:
            return (self.benchmark, self.version, self.precision)
        return (self.benchmark, self.version, self.precision, self.governor)

    @property
    def label(self) -> str:
        """Human-readable id, matching the classic progress format."""
        return key_label(self.cell)


def _worker_init() -> None:
    """Pool initializer: mark the process as a worker so injected
    ``mode="exit"`` faults (:mod:`repro.experiments.faults`) know they
    may kill it."""
    faults.mark_worker()


def _crash_result(task: RunTask, exc: BaseException) -> RunResult:
    """Demote a captured in-cell exception to a crashed run.

    The ``failure`` text is built only from the exception's type and
    message so it is byte-identical whether the exception was captured
    in-process or inside a pool worker; the traceback travels in the
    (unserialized) diagnostics and the trace event.
    """
    return RunResult.crash(
        task.benchmark,
        task.version,
        task.precision,
        reason=f"crash: {type(exc).__name__}: {exc}",
        traceback_text="".join(traceback.format_exception(exc)),
        governor=task.result_governor,
    )


def _worker_loss_result(task: RunTask, exc: BaseException, attempts: int) -> RunResult:
    """Demote a cell that keeps killing pool workers to a crashed run."""
    return RunResult.crash(
        task.benchmark,
        task.version,
        task.precision,
        reason="crash: worker process died executing this cell",
        traceback_text=f"{type(exc).__name__}: {exc} (after {attempts} attempts)",
        governor=task.result_governor,
    )


def _group_instance(
    tasks: tuple[RunTask, ...], draws: Draws
) -> tuple[Benchmark | None, Exception | None]:
    """Build a version group's shared instance on its family's record.

    Returns ``(instance, None)``, or ``(None, exc)`` when ``setup``
    raised: the group's cells then report ``exc`` as crashes.
    """
    first = tasks[0]
    try:
        bench = create(
            first.benchmark,
            precision=first.precision,
            scale=first.scale,
            seed=first.seed,
            platform=first.platform,
            draws=draws,
        )
    except Exception as exc:  # noqa: BLE001 — setup crash capture
        return None, exc
    return bench, None


def _safe_run(bench: Benchmark, task: RunTask) -> RunResult:
    """Execute one cell, capturing unexpected exceptions as crashes.

    Modeled failures (compile/launch errors) are already returned as
    failed results by ``run_version``; anything *raising* out of it is
    an engine-level accident and must not poison the family/campaign.
    ``BaseException`` (KeyboardInterrupt & co.) deliberately passes
    through — that is a terminal error, handled by the salvage path.
    """
    try:
        faults.maybe_crash(task.benchmark, task.version, task.precision)
        return run_version(
            bench,
            version=task.version,
            governor=task.governor,
            energy_deadline_s=task.energy_deadline_s,
        )
    except Exception as exc:  # noqa: BLE001 — crash capture is the point
        return _crash_result(task, exc)


def _execute_family(
    groups: tuple[tuple[RunTask, ...], ...],
) -> tuple[tuple[tuple[RunResult, dict], ...], dict]:
    """Pool entry for one benchmark *family* (all its pending groups).

    Every pending (precision) version-group of one benchmark runs
    sequentially in the same worker, because the groups share one
    :class:`~repro.benchmarks.base.Draws` record: each input is drawn
    once for all the family's precisions.  The record is built per
    call, so nothing of the family outlives it in the worker.  Within
    a group all versions share one benchmark instance (setup dominates
    a cell at paper scale), exactly like the classic serial loop.  One
    group's instance is alive at a time.

    Fault isolation: a cell whose execution raises — including a
    failing benchmark ``setup`` — becomes a crashed :class:`RunResult`
    for exactly the affected tasks; the rest of the family completes
    normally.

    Returns each group's ``(run, per-run perf delta)`` pairs plus the
    family-level perf delta (which also covers setup/verification work
    outside the per-run windows), so the parent can fold worker memo
    activity into :attr:`CampaignReport.perf` and the trace.
    """
    family_before = perf.counters()
    out: list[tuple[tuple[RunResult, dict], ...]] = []
    draws = Draws(groups[0][0].seed, readers=len(groups))
    for tasks in groups:
        bench = None  # the previous group's instance goes before the next set-up
        bench, bench_exc = _group_instance(tasks, draws)
        runs: list[tuple[RunResult, dict]] = []
        for task in tasks:
            before = perf.counters()
            if bench is not None:
                run = _safe_run(bench, task)
            else:
                run = _crash_result(task, bench_exc)
            runs.append((run, perf.counters_delta(before, perf.counters())))
        out.append(tuple(runs))
    family_delta = perf.counters_delta(family_before, perf.counters())
    return tuple(out), family_delta


def _probe_locally(campaign: "Campaign", task: RunTask) -> tuple:
    """Run one task alone on a dedicated one-worker pool.

    Budgeted by ``cell_timeout_s``: an overrun kills the probe worker
    and raises ``concurrent.futures.TimeoutError``; a run that kills its
    worker raises the pool's error.
    """
    probe = campaign._new_pool(1)
    try:
        future = probe.submit(_execute_family, ((task,),))
        try:
            return future.result(timeout=campaign.cell_timeout_s)
        except FuturesTimeout:
            _kill_pool_processes(probe)
            raise
    finally:
        probe.shutdown(wait=True, cancel_futures=True)


class _LocalPool:
    """The process pool as an executor of :meth:`Campaign._run_chunks`.

    Chunk budgets (``cell_timeout_s`` × tasks) are read on the campaign
    :class:`Clock` by :meth:`drain`, once per loop turn (every 0.05 s
    while a budget or deadline is armed): an overrun kills the pool's
    processes and marks its chunk for the timeout ladder.  The pool is
    rebuilt once per break, when a future of the *current* pool fails
    with ``BrokenExecutor``; futures of a replaced pool settle as plain
    failures, so ``pool_restarts`` counts breaks exactly.
    """

    def __init__(self, campaign: "Campaign", max_workers: int) -> None:
        self._campaign = campaign
        self._max_workers = max_workers
        self._pool = campaign._new_pool(max_workers)
        #: futures of the current pool → Clock time their budget ends
        self._inflight: dict[Future, float | None] = {}
        self._expired: set[Future] = set()
        self._restarts: list[dict] = []
        armed = campaign.cell_timeout_s is not None or campaign._deadline_at is not None
        self.poll_s = 0.05 if armed else None

    def submit(self, payload: tuple) -> Future:
        try:
            future = self._pool.submit(_execute_family, payload)
        except BrokenExecutor as exc:  # died between batches
            self._rebuild(exc)
            future = self._pool.submit(_execute_family, payload)
        budget = self._campaign.cell_timeout_s
        if budget is not None:
            # a chunk's budget scales with its task count — only once
            # the ladder narrows to a single task does overrunning it
            # convict the cell
            budget = self._campaign.clock.monotonic() + budget * sum(map(len, payload))
        self._inflight[future] = budget
        return future

    def drain(self, tracer: Tracer) -> None:
        now = self._campaign.clock.monotonic()
        overran = [
            f for f, at in self._inflight.items()
            if at is not None and now >= at and not f.done()
        ]
        for future in overran:
            self._inflight[future] = None
            self._expired.add(future)
        if overran:
            _kill_pool_processes(self._pool)
        for detail in self._restarts:
            tracer.emit("pool_restarted", detail=detail)
        self._restarts.clear()

    def settle(self, future: Future) -> bool:
        if future in self._inflight:
            del self._inflight[future]
            if isinstance(future.exception(), BrokenExecutor):
                self._rebuild(future.exception())
        expired = future in self._expired
        self._expired.discard(future)
        return expired

    def probe(self, task: RunTask) -> tuple:
        return _probe_locally(self._campaign, task)

    @staticmethod
    def exhausted() -> bool:
        return False

    def close(self) -> None:
        # stuck workers ignore shutdown(); kill them so the join is finite
        if not all(f.done() for f in self._inflight):
            _kill_pool_processes(self._pool)
        self._pool.shutdown(wait=True, cancel_futures=True)

    def _rebuild(self, exc: BaseException) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._campaign._pool_restarts += 1
        self._restarts.append(
            {"error": f"{type(exc).__name__}: {exc}", "restarts": self._campaign._pool_restarts}
        )
        self._pool = self._campaign._new_pool(self._max_workers)
        self._inflight = {}


@dataclass(frozen=True)
class CampaignSpec:
    """Frozen description of one experimental campaign.

    ``benchmarks`` / ``versions`` / ``precisions`` span the grid;
    ``scale`` / ``seed`` / ``platform`` parameterize every run.  Any
    iterable is accepted and normalized to a tuple so equal specs
    compare, hash and fingerprint identically.  ``platform=None`` means
    the calibrated Exynos 5250 default.
    """

    benchmarks: tuple[str, ...] = PAPER_ORDER
    versions: tuple[Version, ...] = tuple(Version)
    precisions: tuple[Precision, ...] = (Precision.SINGLE,)
    scale: float = 1.0
    seed: int = 1234
    platform: ExynosPlatform | None = None
    #: DVFS sweep axis; the default single-element tuple is the classic
    #: fixed-frequency campaign (spec and fingerprints unchanged)
    governors: tuple[str, ...] = (dvfs.GOVERNOR_DEFAULT,)
    #: per-cell energy deadline for race_to_idle / pace_to_deadline
    energy_deadline_s: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "benchmarks", tuple(self.benchmarks))
        object.__setattr__(self, "versions", tuple(self.versions))
        object.__setattr__(self, "precisions", tuple(self.precisions))
        object.__setattr__(self, "governors", tuple(self.governors))
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if not self.governors:
            raise ValueError("governors must not be empty")
        for governor in self.governors:
            if governor not in dvfs.GOVERNORS:
                raise ValueError(
                    f"unknown governor {governor!r}; choose from {dvfs.GOVERNORS}"
                )
        if self.energy_deadline_s is not None and self.energy_deadline_s <= 0:
            raise ValueError("energy_deadline_s must be positive")
        needs_deadline = [g for g in self.governors if g in dvfs.DEADLINE_POLICIES]
        if needs_deadline and self.energy_deadline_s is None:
            raise ValueError(
                f"governors {needs_deadline} need energy_deadline_s to be set"
            )

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def tasks(self) -> tuple[RunTask, ...]:
        """The grid as independent tasks, in canonical (classic) order:
        benchmark-major, then precision, then version (then governor)."""
        return tuple(
            RunTask(
                benchmark=name,
                version=version,
                precision=precision,
                scale=self.scale,
                seed=self.seed,
                platform=self.platform,
                governor=governor,
                energy_deadline_s=self.energy_deadline_s,
            )
            for name in self.benchmarks
            for precision in self.precisions
            for version in self.versions
            for governor in self.governors
        )

    @property
    def size(self) -> int:
        """Number of grid cells."""
        return (
            len(self.benchmarks)
            * len(self.versions)
            * len(self.precisions)
            * len(self.governors)
        )

    # ------------------------------------------------------------------
    # fingerprints
    # ------------------------------------------------------------------
    def platform_fingerprint(self) -> str:
        """Digest of the resolved platform's full calibrated constants."""
        platform = self.platform or default_platform()
        return hashlib.sha256(repr(platform).encode()).hexdigest()[:16]

    def run_fingerprint(self) -> str:
        """Digest of everything that determines a *single run's* result.

        Deliberately excludes the grid axes: two campaigns over
        different benchmark subsets share cache entries as long as
        scale, seed, platform and library version agree.
        """
        from .. import __version__

        payload = {
            "scale": self.scale,
            "seed": self.seed,
            "platform": self.platform_fingerprint(),
            "repro": __version__,
        }
        # keyed only when set, so every fixed-frequency campaign keeps
        # its pre-DVFS fingerprint (and its warm cache entries)
        if self.energy_deadline_s is not None:
            payload["energy_deadline_s"] = self.energy_deadline_s
        blob = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def fingerprint(self) -> str:
        """Digest of the full campaign: run parameters plus grid axes.

        This is the identity carried by ``ResultSet.to_json`` (schema 2)
        and :class:`CampaignReport`.
        """
        payload = {
            "run": self.run_fingerprint(),
            "benchmarks": list(self.benchmarks),
            "versions": [v.value for v in self.versions],
            "precisions": [p.value for p in self.precisions],
        }
        # keyed only for governed campaigns — fixed campaigns keep their
        # historic identity byte-for-byte
        if self.governors != (dvfs.GOVERNOR_DEFAULT,):
            payload["governors"] = list(self.governors)
        blob = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class CampaignReport:
    """Aggregate accounting of one :meth:`Campaign.run` invocation.

    Always populated, even when the run ends in a terminal error: the
    salvage path assembles a report over whatever completed, with
    ``error`` naming the exception that stopped the campaign.
    """

    fingerprint: str
    total_runs: int
    executed: int
    cache_hits: int
    cache_misses: int
    cache_invalidated: int
    failed_runs: tuple[Key, ...]
    jobs: int
    wall_s: float
    #: per-memo counter deltas (:func:`repro.perf.counters_delta`)
    #: accumulated over the campaign; ``None`` for reports older than
    #: the counters
    perf: dict | None = None
    #: cells demoted to ``failure_kind="crash"`` results (a subset of
    #: ``failed_runs``)
    crashed_runs: tuple[Key, ...] = ()
    #: work chunks resubmitted after a failure (splits, requeues, probes)
    retries: int = 0
    #: times the worker pool was rebuilt after a worker death
    pool_restarts: int = 0
    #: terminal error text when the campaign did not finish, else ``None``
    error: str | None = None
    #: cells demoted to ``failure_kind="timeout"`` results for overrunning a budget
    #: (a subset of ``failed_runs``)
    timeout_runs: tuple[Key, ...] = ()
    #: cells replayed from the journal instead of executed (resume)
    replayed: int = 0
    #: tiers that degraded during the run (``"run_cache: ..."`` /
    #: ``"remote_workers: ..."`` reason strings)
    degraded: tuple[str, ...] = ()

    @property
    def hit_rate(self) -> float:
        """Fraction of the grid served from cache (0.0 when empty)."""
        return self.cache_hits / self.total_runs if self.total_runs else 0.0

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"campaign {self.fingerprint}: {self.total_runs} runs "
            f"({self.jobs} job{'s' if self.jobs != 1 else ''}, {self.wall_s:.1f}s wall)",
            f"  cache: {self.cache_hits} hits / {self.cache_misses} misses"
            f" / {self.cache_invalidated} invalidated"
            f" ({self.hit_rate:.0%} hit rate)",
            f"  executed: {self.executed}, failed: {len(self.failed_runs)}",
        ]
        if self.replayed:
            lines.append(f"  resumed: {self.replayed} cells replayed from the journal")
        if self.crashed_runs or self.retries or self.pool_restarts or self.timeout_runs:
            lines.append(
                f"  recovery: {len(self.crashed_runs)} crashed, "
                f"{len(self.timeout_runs)} timed out, "
                f"{self.retries} retries, {self.pool_restarts} pool restarts"
            )
        for tier in self.degraded:
            lines.append(f"  DEGRADED {tier}")
        if self.error:
            lines.append(f"  TERMINATED: {self.error}")
        if self.perf:
            memo = ", ".join(
                f"{name} {stats.get('hits', 0)}/{stats.get('misses', 0)}"
                for name, stats in sorted(self.perf.items())
            )
            lines.append(f"  memo (hits/misses): {memo}")
        crashed = set(self.crashed_runs)
        timed_out = set(self.timeout_runs)
        for key in self.failed_runs:
            if key in crashed:
                tag = "CRASHED"
            elif key in timed_out:
                tag = "TIMEOUT"
            else:
                tag = "FAILED"
            lines.append(f"    {tag} {key_label(key)}")
        return "\n".join(lines)


class Campaign:
    """Plans a :class:`CampaignSpec` and executes it.

    ``cache_dir`` enables the content-addressed run cache (``None``
    disables it); ``perf_dir`` is deprecated and ignored — nothing is
    memoized on disk, and passing it warns once and creates nothing;
    ``trace`` accepts a :class:`TraceSink` or a JSONL path;
    ``progress`` is the classic per-run callback and receives
    ``"<bench> [<SP|DP>] <Version>"`` before each non-cached run is
    dispatched.

    ``retries`` bounds how often a cell whose pool worker died is
    re-executed before it is demoted to a ``failure_kind="crash"``
    result; ``retry_backoff_s`` > 0 sleeps ``backoff * 2**(attempt-1)``
    seconds before each such retry (exponential backoff — useful when
    worker deaths stem from transient memory pressure).

    ``workers`` switches execution to remote distribution: a tuple of
    ``"host:port"`` addresses of ``repro worker`` processes (default
    platform only).  Uncached chunks are scheduled onto a
    :class:`repro.experiments.remote.RemoteWorkerPool`, one family per
    chunk in plan order; lost connections feed the same
    recovery ladder as pool worker deaths, and when *every* remote
    worker is gone the campaign degrades gracefully to local execution
    (``tier_degraded`` event + warning) instead of failing.  Results
    are byte-identical to local runs.

    ``cell_timeout_s`` budgets each cell's wall clock: a pool chunk
    gets ``cell_timeout_s × tasks`` before its worker is killed and
    the retry ladder narrows the hang down to the stuck
    cell, which is demoted to a ``failure_kind="timeout"`` result; the
    in-process path arms a per-cell SIGALRM timer instead.
    ``deadline_s`` budgets the whole campaign — overrunning it raises
    :class:`DeadlineExceeded` through the salvage path, so a journaled
    campaign can be resumed under a fresh budget.  ``clock`` injects
    the time source both budgets and the retry backoff read (tests use
    a fake to avoid wall-sleeping).

    Usage::

        spec = CampaignSpec(scale=0.5)
        campaign = Campaign(spec, cache_dir="~/.cache/repro-runs")
        results = campaign.run(jobs=4, journal_dir="campaign.journal")
        print(campaign.report.describe())

        # ... after a crash of the orchestrating process:
        campaign = Campaign.resume("campaign.journal")
        results = campaign.run(jobs=4)      # same bytes, cells skipped
    """

    def __init__(
        self,
        spec: CampaignSpec,
        *,
        cache_dir: str | Path | None = None,
        perf_dir: str | Path | None = None,
        trace: TraceSink | str | Path | None = None,
        progress: Callable[[str], None] | None = None,
        retries: int = 2,
        retry_backoff_s: float = 0.0,
        cell_timeout_s: float | None = None,
        deadline_s: float | None = None,
        clock: Clock | None = None,
        workers: Sequence[str] | None = None,
    ) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")
        if cell_timeout_s is not None and cell_timeout_s <= 0:
            raise ValueError("cell_timeout_s must be positive")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if workers and spec.platform is not None:  # a platform has no data form
            raise ValueError("remote workers run the default platform only; spec.platform must be None")
        self.spec = spec
        if perf_dir is not None:
            warnings.warn(
                "Campaign(perf_dir=...) is deprecated and ignored: the "
                "persistent perf tier was removed (the run cache serves "
                "warm reruns)",
                DeprecationWarning,
                stacklevel=2,
            )
        self.cache = RunCache(Path(cache_dir).expanduser()) if cache_dir is not None else None
        self._trace = trace
        self.progress = progress
        self.retries = retries
        self.retry_backoff_s = retry_backoff_s
        self.cell_timeout_s = cell_timeout_s
        self.deadline_s = deadline_s
        self.clock = clock or Clock()
        self.workers: tuple[str, ...] = tuple(workers) if workers else ()
        #: journal directory attached by :meth:`resume` (``run`` may
        #: also receive one directly via ``journal_dir=``)
        self.journal_dir: Path | None = None
        # per-run execution state (reset by every :meth:`run`)
        self._journal: CampaignJournal | None = None
        self._replay: dict[tuple, RunResult] = {}
        self._deadline_at: float | None = None
        self._worker_deltas: list[dict] = []
        self._hits = 0
        self._replayed = 0
        self._retries = 0
        self._pool_restarts = 0
        self._degraded_traced: set[str] = set()
        self._dispatched: set[tuple] = set()
        self._remote_degraded_reason: str | None = None
        #: populated by :meth:`run`
        self.report: CampaignReport | None = None
        #: partial :class:`ResultSet` salvaged when :meth:`run` ended in
        #: a terminal error (``None`` after a successful run)
        self.salvage: ResultSet | None = None

    # ------------------------------------------------------------------
    @classmethod
    def resume(cls, journal_dir: str | Path, **kwargs) -> "Campaign":
        """Reconstruct a campaign from its journal directory.

        Loads the pickled :class:`CampaignSpec` the journal was written
        for (platform object included) and returns a campaign with the
        journal pre-attached: calling :meth:`run` replays every
        completed cell from the journal, executes only the remainder,
        and returns a ``ResultSet`` byte-identical to an uninterrupted
        run.  ``kwargs`` are the usual constructor knobs (``cache_dir``,
        ``trace``, ``cell_timeout_s``, ...).
        """
        spec = CampaignJournal.load_spec(journal_dir)
        campaign = cls(spec, **kwargs)
        campaign.journal_dir = Path(journal_dir).expanduser()
        return campaign

    # ------------------------------------------------------------------
    def plan(self) -> tuple[RunTask, ...]:
        """The spec's grid as independent, schedulable tasks."""
        return self.spec.tasks()

    # ------------------------------------------------------------------
    def run(self, *, jobs: int = 1, journal_dir: str | Path | None = None) -> ResultSet:
        """Execute the campaign and return its :class:`ResultSet`.

        ``jobs=1`` runs every task in-process, benchmark by benchmark in
        canonical order and each benchmark's double-precision group
        first (:meth:`_plan_families`); ``jobs>1`` fans uncached tasks out
        to a process pool.  Both paths produce a ``ResultSet`` whose
        ``to_json()`` is byte-identical, because every cell is a pure
        function of the spec.

        ``journal_dir`` attaches the durable campaign journal
        (:mod:`repro.experiments.journal`): every completed cell is
        checkpointed with an fsync'd append before execution proceeds,
        and a journal left behind by a killed campaign replays its
        completed cells instead of re-executing them (also how
        :meth:`resume` continues after the orchestrating process died).

        A terminal error (anything the recovery machinery does not
        absorb — e.g. ``KeyboardInterrupt``, or
        :class:`DeadlineExceeded`) still leaves the campaign accounted
        for: the completed cells are salvaged into :attr:`salvage`,
        :attr:`report` is set fresh with the error text, a
        ``campaign_failed`` trace event closes the trace, and the error
        is re-raised.
        """
        self.report = None
        self.salvage = None
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if journal_dir is None:
            journal_dir = self.journal_dir
        journal = CampaignJournal(journal_dir) if journal_dir is not None else None
        sink, owns_sink = resolve_sink(self._trace)
        tracer = Tracer(sink)
        t0 = self.clock.monotonic()
        self._deadline_at = t0 + self.deadline_s if self.deadline_s is not None else None
        tasks = self.plan()
        fingerprint = self.spec.fingerprint()
        self._journal = journal
        self._replay = journal.open(self.spec) if journal is not None else {}
        detail = {
            "fingerprint": fingerprint,
            "runs": len(tasks),
            "jobs": jobs,
            "cache": str(self.cache.root) if self.cache else "off",
            "retries": self.retries,
        }
        if journal is not None:
            detail["journal"] = str(journal.root)
            detail["replayed"] = len(self._replay)
        if self.cell_timeout_s is not None:
            detail["cell_timeout_s"] = self.cell_timeout_s
        if self.deadline_s is not None:
            detail["deadline_s"] = self.deadline_s
        if self.workers:
            detail["workers"] = list(self.workers)
        tracer.emit("campaign_started", detail=detail)
        perf_before = perf.counters()
        self._worker_deltas: list[dict] = []
        self._hits = 0
        self._replayed = 0
        self._retries = 0
        self._pool_restarts = 0
        self._degraded_traced: set[str] = set()
        self._dispatched = set()
        self._remote_degraded_reason = None
        results: dict[tuple, RunResult] = {}
        try:
            self._gather(tasks, jobs, tracer, results)
            out = ResultSet(fingerprint=fingerprint)
            for task in tasks:
                out.add(results[task.cell])
            self._trace_degraded(tracer)
            self.report = self._build_report(
                fingerprint, tasks, results, jobs, t0, perf_before
            )
            tracer.emit(
                "campaign_finished",
                detail={
                    "fingerprint": fingerprint,
                    "executed": self.report.executed,
                    "cache_hits": self.report.cache_hits,
                    "failed": len(self.report.failed_runs),
                    "crashed": len(self.report.crashed_runs),
                    "timed_out": len(self.report.timeout_runs),
                    "replayed": self.report.replayed,
                    "retries": self.report.retries,
                    "pool_restarts": self.report.pool_restarts,
                    "wall_s": round(self.report.wall_s, 3),
                    "perf": self.report.perf,
                },
            )
            if journal is not None:
                journal.campaign_finished()
            return out
        except BaseException as exc:
            # Salvage: the campaign did not finish, but everything that
            # completed is kept and the trace never ends mid-story.
            partial = ResultSet(fingerprint=fingerprint)
            for task in tasks:
                if task.cell in results:
                    partial.add(results[task.cell])
            self.salvage = partial
            error = f"{type(exc).__name__}: {exc}"
            self._trace_degraded(tracer)
            self.report = self._build_report(
                fingerprint, tasks, results, jobs, t0, perf_before, error=error
            )
            tracer.emit(
                "campaign_failed",
                detail={
                    "fingerprint": fingerprint,
                    "error": error,
                    "completed": len(partial.results),
                    "total": len(tasks),
                    "crashed": len(self.report.crashed_runs),
                    "timed_out": len(self.report.timeout_runs),
                    "retries": self.report.retries,
                    "pool_restarts": self.report.pool_restarts,
                    "wall_s": round(self.report.wall_s, 3),
                },
            )
            raise
        finally:
            self._journal = None
            self._replay = {}
            self._deadline_at = None
            if journal is not None:
                journal.close()
            if owns_sink:
                sink.close()

    def _build_report(
        self,
        fingerprint: str,
        tasks: tuple[RunTask, ...],
        results: dict[tuple, RunResult],
        jobs: int,
        t0: float,
        perf_before: dict,
        error: str | None = None,
    ) -> CampaignReport:
        """Assemble the report over whatever ``results`` holds so far."""
        stats = self.cache.stats if self.cache else None
        perf_delta = perf.counters_merge(
            perf.counters_delta(perf_before, perf.counters()),
            *self._worker_deltas,
        )
        completed = [t for t in tasks if t.cell in results]
        return CampaignReport(
            fingerprint=fingerprint,
            total_runs=len(tasks),
            executed=len(completed) - self._hits - self._replayed,
            cache_hits=stats.hits if stats else 0,
            cache_misses=stats.misses if stats else 0,
            cache_invalidated=stats.invalidated if stats else 0,
            failed_runs=tuple(t.cell for t in completed if not results[t.cell].ok),
            jobs=jobs,
            wall_s=self.clock.monotonic() - t0,
            perf=perf_delta or None,
            crashed_runs=tuple(t.cell for t in completed if results[t.cell].crashed),
            retries=self._retries,
            pool_restarts=self._pool_restarts,
            error=error,
            timeout_runs=tuple(t.cell for t in completed if results[t.cell].timed_out),
            replayed=self._replayed,
            degraded=self._degraded_tiers(),
        )

    def _degraded_tiers(self) -> tuple[str, ...]:
        """``"<tier>: <reason>"`` for every tier that degraded during this
        run: a run cache that disabled its writes after resource
        exhaustion, or remote workers that all went away."""
        out: list[str] = []
        if self.cache is not None and self.cache.degraded_reason:
            out.append(f"run_cache: {self.cache.degraded_reason}")
        if self._remote_degraded_reason:
            out.append(f"remote_workers: {self._remote_degraded_reason}")
        return tuple(out)

    def _trace_degraded(self, tracer: Tracer) -> None:
        """Emit one ``tier_degraded`` event per newly degraded tier."""
        for tier in self._degraded_tiers():
            name, _, reason = tier.partition(": ")
            if name in self._degraded_traced:
                continue
            self._degraded_traced.add(name)
            tracer.emit("tier_degraded", detail={"tier": name, "reason": reason})

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _task_fields(self, task: RunTask) -> dict:
        fields = {
            "benchmark": task.benchmark,
            "version": task.version.value,
            "precision": task.precision.value,
        }
        # only governed tasks carry the field, so fixed-frequency trace
        # events stay byte-identical to the pre-DVFS engine
        if task.result_governor is not None:
            fields["governor"] = task.result_governor
        return fields

    def _gather(
        self,
        tasks: tuple[RunTask, ...],
        jobs: int,
        tracer: Tracer,
        results: dict[tuple, RunResult],
    ) -> None:
        """Resolve every task via cache or execution into ``results``.

        ``results`` is filled progressively so the salvage path can
        recover completed cells even when execution ends in a terminal
        error; cache hits are counted into ``self._hits``.
        """
        run_fp = self.spec.run_fingerprint()
        pending: list[tuple[RunTask, str | None]] = []
        for task in tasks:
            tracer.emit("queued", **self._task_fields(task))
            replayed = self._replay.get(task.cell)
            if replayed is not None:
                # Journal replay outranks the cache: the journal is the
                # durable record of *this* campaign's own execution.
                self._replayed += 1
                results[task.cell] = replayed
                tracer.emit(
                    "finished",
                    cache="journal",
                    elapsed_s=replayed.elapsed_s,
                    energy_j=replayed.energy_j,
                    ok=replayed.ok,
                    **self._task_fields(task),
                )
                continue
            key = None
            if self.cache is not None:
                key = run_key(
                    run_fp,
                    task.benchmark,
                    task.version,
                    task.precision,
                    governor=task.result_governor,
                )
                cached = self.cache.load(key)
                if cached is not None:
                    self._hits += 1
                    results[task.cell] = cached
                    tracer.emit(
                        "finished",
                        cache="hit",
                        elapsed_s=cached.elapsed_s,
                        energy_j=cached.energy_j,
                        ok=cached.ok,
                        **self._task_fields(task),
                    )
                    continue
            pending.append((task, key))

        # Work is scheduled as (benchmark, precision) version groups:
        # problem setup dominates a cell's cost at paper scale and is
        # shared by all versions, so a group is the natural unit both
        # in-process and on the pool.  Groups are further bundled into
        # per-benchmark *families*: both precisions of a benchmark take
        # their inputs from one draw record, so a family runs on one
        # worker.  Dicts preserve plan order.
        families = self._plan_families(pending)

        if self.workers and pending:
            self._run_remote(families, tracer, results)
            # Whatever the remote tier could not finish (it degraded
            # because every worker was lost or rejected) falls through
            # to ordinary local execution, in canonical plan order.
            pending = [(t, k) for t, k in pending if t.cell not in results]
            if not pending:
                return
            families = self._plan_families(pending)

        if jobs == 1 or len(families) <= 1:
            self._run_inline(families, tracer, results)
        else:
            self._run_pool(families, jobs, tracer, results)

    @staticmethod
    def _plan_families(
        pending: list[tuple[RunTask, str | None]],
    ) -> dict[str, list[list[tuple[RunTask, str | None]]]]:
        """Bundle pending tasks into version groups, then families.

        A family runs its double-precision group first: that group
        computes on the float64 draws themselves, and the single group
        then takes each draw last, so the family's
        :class:`~repro.benchmarks.base.Draws` record forgets it and it
        dies at the float32 cast instead of living on beside the single
        group's arrays.  Every draw is precision-independent, so the
        order changes no result.
        """
        groups: dict[tuple[str, Precision], list[tuple[RunTask, str | None]]] = {}
        for task, key in pending:
            groups.setdefault((task.benchmark, task.precision), []).append((task, key))
        families: dict[str, list[list[tuple[RunTask, str | None]]]] = {}
        for (benchmark, _), group in groups.items():
            families.setdefault(benchmark, []).append(group)
        for family in families.values():
            family.sort(key=lambda group: group[0][0].precision is not Precision.DOUBLE)
        return families

    def _run_inline(
        self,
        families: dict[str, list[list[tuple[RunTask, str | None]]]],
        tracer: Tracer,
        results: dict[tuple, RunResult],
    ) -> None:
        """In-process path: one shared benchmark instance per group,
        exactly like the classic serial loop, and one
        :class:`~repro.benchmarks.base.Draws` record per family, so the
        family's precisions draw each input once.  Inputs are drawn in a
        fixed order (sizes at setup, arrays once on first use), so this
        is observably identical to running each cell on a fresh
        instance.  Memory follows the largest group, not the grid: a
        group's instance is dropped when the next group starts and the
        family's record when the next family starts.  Cell crashes
        (including a failing ``setup``) are captured per task, mirroring
        the pool path.

        Budgets: the deadline is checked between cells (raising
        :class:`DeadlineExceeded` through the salvage path) and each
        cell runs under a SIGALRM guard — :meth:`_guarded_run` — when
        ``cell_timeout_s`` or a deadline is armed."""
        for family in families.values():
            draws = Draws(family[0][0][0].seed, readers=len(family))
            for group in family:
                bench: Benchmark | None = None  # frees the previous group's instance
                for i, (task, key) in enumerate(group):
                    self._check_deadline()
                    self._dispatch(task, tracer)
                    if i == 0:
                        bench, bench_exc = _group_instance(tuple(t for t, _ in group), draws)
                    before = perf.counters()
                    if bench is not None:
                        run = self._guarded_run(bench, task)
                    else:
                        run = _crash_result(task, bench_exc)
                    self._finish(
                        task,
                        key,
                        run,
                        results,
                        tracer,
                        perf_delta=perf.counters_delta(before, perf.counters()),
                    )

    def _check_deadline(self) -> None:
        if self._deadline_at is not None and self.clock.monotonic() >= self._deadline_at:
            raise DeadlineExceeded(
                f"campaign exceeded its {self.deadline_s:g}s deadline"
            )

    def _guarded_run(self, bench: Benchmark, task: RunTask) -> RunResult:
        """Execute one in-process cell under its wall-clock budget.

        The budget is ``cell_timeout_s`` clamped to the remaining
        campaign deadline, enforced with a real SIGALRM interval timer
        (signals cannot read the injectable clock) that raises
        :class:`_CellTimeout` — a ``BaseException``, so it sails through
        the crash capture in :func:`_safe_run` and the cell is demoted
        to a ``failure_kind="timeout"`` result.  Any previously armed
        ITIMER_REAL (e.g. a test harness watchdog) is restored minus
        the time this cell consumed.  Off the main thread — where
        ``signal`` is unavailable — the cell runs unguarded.
        """
        budget = self.cell_timeout_s
        if self._deadline_at is not None:
            remaining = max(self._deadline_at - self.clock.monotonic(), 0.001)
            budget = remaining if budget is None else min(budget, remaining)
        if budget is None or threading.current_thread() is not threading.main_thread():
            return _safe_run(bench, task)

        def _on_alarm(signum, frame):  # noqa: ARG001 — signal signature
            raise _CellTimeout()

        start = time.monotonic()
        prev_handler = signal.signal(signal.SIGALRM, _on_alarm)
        prev_delay, _prev_interval = signal.getitimer(signal.ITIMER_REAL)
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            return _safe_run(bench, task)
        except _CellTimeout:
            reported = self.cell_timeout_s if self.cell_timeout_s is not None else budget
            return RunResult.timeout(
                task.benchmark,
                task.version,
                task.precision,
                reported,
                governor=task.result_governor,
            )
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, prev_handler)
            if prev_delay > 0:
                signal.setitimer(
                    signal.ITIMER_REAL,
                    max(prev_delay - (time.monotonic() - start), 0.001),
                )

    # A *chunk* is a tuple of groups, each group a tuple of (task, cache
    # key) pairs.  Chunks start as whole families; the retry ladder
    # splits a failed chunk into its groups, a failed group into single
    # tasks, so the faulty cell is isolated while its innocent
    # neighbours are simply re-executed.
    def _queue_families(
        self,
        families: dict[str, list[list[tuple[RunTask, str | None]]]],
        tracer: Tracer,
    ) -> deque:
        """Announce every pending task and queue one chunk per family."""
        queue: deque = deque()
        for family in families.values():
            for group in family:
                for task, _ in group:
                    self._dispatch(task, tracer)
            queue.append(tuple(tuple(group) for group in family))
        return queue

    def _run_pool(
        self,
        families: dict[str, list[list[tuple[RunTask, str | None]]]],
        jobs: int,
        tracer: Tracer,
        results: dict[tuple, RunResult],
    ) -> None:
        pool = _LocalPool(self, min(jobs, len(families)))
        try:
            self._run_chunks(pool, self._queue_families(families, tracer), tracer, results)
        finally:
            pool.close()
            pool.drain(tracer)

    def _run_remote(
        self,
        families: dict[str, list[list[tuple[RunTask, str | None]]]],
        tracer: Tracer,
        results: dict[tuple, RunResult],
    ) -> None:
        """Distribute family chunks onto the remote worker tier.

        The remote pool runs through the same :meth:`_run_chunks` loop
        as the local one.  The method returns normally with work left
        undone only when the whole remote tier is gone — the caller
        falls back to local execution for the remainder (graceful
        degradation, traced as ``tier_degraded``).
        """
        pool = RemoteWorkerPool(
            self.workers,
            task_fields=self._task_fields,
            clock=self.clock,
            cell_timeout_s=self.cell_timeout_s,
            reconnect_attempts=self.retries,
            backoff=self._backoff_delay,
        )
        queue = self._queue_families(families, tracer)
        try:
            joined = pool.connect()
            pool.drain(tracer)
            if joined == 0 and pool.exhausted():
                self._remote_degraded(tracer, "no remote workers joined")
                return
            if self._run_chunks(pool, queue, tracer, results):
                self._remote_degraded(tracer, "every remote worker was lost")
        finally:
            pool.close()
            pool.drain(tracer)

    def _run_chunks(self, executor, queue: deque, tracer: Tracer, results: dict) -> deque:
        """The recovery loop over a :class:`_LocalPool` or a
        :class:`~repro.experiments.remote.RemoteWorkerPool`, which offer:
        ``submit(payload) -> Future`` (of :func:`_execute_family`'s
        return), ``settle(future) -> bool`` (did that chunk overrun its
        budget), ``drain(tracer)`` (enforce budgets, emit queued events),
        ``probe(task)`` (one isolated run), ``exhausted()``,
        ``poll_s`` (the wait timeout; ``None`` blocks) and ``close()``.

        Each turn checks the deadline, submits queued chunks, waits for
        one to finish, drains, and resolves every finished chunk.
        Returns the chunks still queued when the executor is exhausted.
        """
        failures: dict[tuple, int] = {}
        futures: dict = {}
        while queue or futures:
            self._check_deadline()
            if executor.exhausted() and not futures:
                break  # leftovers degrade to local execution
            while queue and not executor.exhausted():
                chunk = queue.popleft()
                payload = tuple(tuple(t for t, _ in group) for group in chunk)
                futures[executor.submit(payload)] = chunk
            done, _ = wait(futures, timeout=executor.poll_s, return_when=FIRST_COMPLETED)
            executor.drain(tracer)
            for future in done:
                self._resolve(executor, future, futures.pop(future), failures, queue, tracer, results)
        return queue

    def _resolve(
        self,
        executor,
        future: Future,
        chunk,
        failures: dict[tuple, int],
        queue: deque,
        tracer: Tracer,
        results: dict[tuple, RunResult],
    ) -> None:
        """Harvest one finished chunk, or feed it to a ladder: the
        timeout ladder when it overran its budget, the retry ladder
        when its worker died.  An overrun chunk that completed anyway
        keeps its real result — the kill raced a finish."""
        timed_out = executor.settle(future)
        try:
            outcome = future.result()
        except PoolExhausted:
            # not the chunk's fault — it never ran; requeue it uncounted,
            # the loop head notices the exhaustion
            queue.append(chunk)
        except Exception as exc:  # noqa: BLE001 — worker-death recovery
            if timed_out:
                self._handle_timeout(chunk, queue, tracer, results)
            else:
                self._requeue(executor, chunk, exc, failures, queue, tracer, results)
        else:
            self._harvest(chunk, *outcome, tracer, results)

    def _harvest(
        self,
        chunk,
        group_runs: tuple,
        family_delta: dict,
        tracer: Tracer,
        results: dict[tuple, RunResult],
    ) -> None:
        """Record the runs of one chunk executed out of process."""
        self._worker_deltas.append(family_delta)
        for group, runs in zip(chunk, group_runs):
            for (task, key), (run, delta) in zip(group, runs):
                self._finish(task, key, run, results, tracer, perf_delta=delta)

    def _timeout_result(self, task: RunTask) -> RunResult:
        return RunResult.timeout(
            task.benchmark,
            task.version,
            task.precision,
            self.cell_timeout_s,
            governor=task.result_governor,
        )

    def _handle_timeout(
        self,
        chunk,
        queue: deque,
        tracer: Tracer,
        results: dict[tuple, RunResult],
    ) -> None:
        """Timeout ladder: narrow an overrun chunk to the stuck cell.

        Mirrors the crash ladder's splits (family → version groups →
        single tasks, each resubmission with a proportionally smaller
        budget) but needs no probe: a *single* task that overran its
        own ``cell_timeout_s`` is convicted outright and demoted to a
        ``failure_kind="timeout"`` result — re-running a hang with the
        same budget would just hang again.
        """
        if len(chunk) > 1:  # family → its version groups
            self._retries += 1
            for group in chunk:
                queue.append((group,))
            return
        group = chunk[0]
        if len(group) > 1:  # version group → single tasks
            self._retries += 1
            for entry in group:
                queue.append(((entry,),))
            return
        task, key = group[0]
        self._finish(task, key, self._timeout_result(task), results, tracer)

    def _requeue(
        self,
        executor,
        chunk,
        exc: BaseException,
        failures: dict[tuple, int],
        queue: deque,
        tracer: Tracer,
        results: dict[tuple, RunResult],
    ) -> None:
        """Retry ladder: split a failed chunk finer, or judge the cell.

        A pool break fails *every* in-flight future, and a lost
        connection fails one chunk of a dying worker, so a chunk seen
        here may be an innocent bystander — which is why demotion is
        never decided from these failures alone: once a single task
        exhausts ``retries`` it gets one isolated probe run
        (:meth:`_probe`), where the verdict is unambiguous.
        """
        self._retries += 1
        for group in chunk:
            for task, _ in group:
                failures[task.cell] = failures.get(task.cell, 0) + 1
        if len(chunk) > 1:  # family → its version groups
            for group in chunk:
                queue.append((group,))
            return
        group = chunk[0]
        if len(group) > 1:  # version group → single tasks
            for entry in group:
                queue.append(((entry,),))
            return
        task, key = group[0]
        attempts = failures[task.cell]
        if attempts <= self.retries:
            delay = self._backoff_delay(attempts)
            if delay > 0:
                self.clock.sleep(delay)
            queue.append(chunk)
            return
        self._probe(executor, task, key, failures, tracer, results)

    def _backoff_delay(self, attempt: int) -> float:
        """Seconds to back off before retry number ``attempt`` (1-based):
        ``retry_backoff_s * 2**(attempt - 1)``."""
        return self.retry_backoff_s * (2 ** (attempt - 1))

    def _probe(
        self,
        executor,
        task: RunTask,
        key: str | None,
        failures: dict[tuple, int],
        tracer: Tracer,
        results: dict[tuple, RunResult],
    ) -> None:
        """Final verdict for a suspect cell: one isolated run, on a
        one-worker probe pool or a live remote worker (the local probe
        pool when none is left — degradation must not skip the verdict).
        If it kills that worker too it is the culprit and is demoted to
        a crashed result; an innocent collateral victim simply completes
        here.  A probe that overruns ``cell_timeout_s`` is demoted to a
        timeout result."""
        try:
            try:
                outcome = executor.probe(task)
            except PoolExhausted:
                outcome = _probe_locally(self, task)
        except FuturesTimeout:
            run = self._timeout_result(task)
        except Exception as exc:  # noqa: BLE001 — the verdict
            failures[task.cell] += 1
            run = _worker_loss_result(task, exc, failures[task.cell])
        else:
            self._harvest((((task, key),),), *outcome, tracer, results)
            return
        self._finish(task, key, run, results, tracer)

    def _remote_degraded(self, tracer: Tracer, reason: str) -> None:
        """Record the loss of the whole remote tier (warn-once).

        Mirrors the on-disk tier degradations: a ``tier_degraded``
        trace event, a ``DEGRADED`` line in the report, one Python
        warning — and the campaign carries on locally.
        """
        self._remote_degraded_reason = reason
        if "remote_workers" in self._degraded_traced:
            return
        self._degraded_traced.add("remote_workers")
        tracer.emit(
            "tier_degraded",
            detail={"tier": "remote_workers", "reason": reason},
        )
        warnings.warn(
            f"remote workers degraded ({reason}); continuing with local execution",
            RuntimeWarning,
            stacklevel=2,
        )

    def _new_pool(self, max_workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=max_workers, initializer=_worker_init)

    def _dispatch(self, task: RunTask, tracer: Tracer) -> None:
        # Once per run: a task that falls back to local execution after
        # remote-tier degradation was already journaled and announced.
        if task.cell in self._dispatched:
            return
        self._dispatched.add(task.cell)
        if self._journal is not None:
            self._journal.cell_started(
                task.benchmark,
                task.version,
                task.precision,
                governor=task.result_governor,
            )
        if self.progress is not None:
            self.progress(task.label)
        tracer.emit("started", **self._task_fields(task))

    def _finish(
        self,
        task: RunTask,
        key: str | None,
        run: RunResult,
        results: dict,
        tracer: Tracer,
        perf_delta: dict | None = None,
    ) -> None:
        results[task.cell] = run
        # The journal checkpoint precedes the cache store: once the
        # engine moves on, this cell must survive any kill.
        if self._journal is not None:
            self._journal.cell_finished(
                task.benchmark,
                task.version,
                task.precision,
                run,
                governor=task.result_governor,
            )
        # Crashes and timeouts are operational accidents of *this*
        # execution, not content-addressable facts about the spec
        # (unlike modeled quirk failures) — never persist them to the
        # run cache.
        if self.cache is not None and key is not None and not run.operational_failure:
            self.cache.store(key, run)
        if run.crashed:
            crash_detail: dict = {"failure": run.failure}
            if run.diagnostics.get("traceback"):
                crash_detail["traceback"] = run.diagnostics["traceback"]
            tracer.emit("run_crashed", detail=crash_detail, **self._task_fields(task))
        elif run.timed_out:
            tracer.emit(
                "run_timed_out",
                detail={"failure": run.failure},
                **self._task_fields(task),
            )
        detail: dict = {}
        if run.failure:
            detail["failure"] = run.failure
        if perf_delta:
            detail["perf"] = perf_delta
        tracer.emit(
            "finished",
            cache="miss" if self.cache is not None else "off",
            elapsed_s=run.elapsed_s,
            energy_j=run.energy_j,
            ok=run.ok,
            detail=detail or None,
            **self._task_fields(task),
        )
