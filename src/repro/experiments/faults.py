"""Deterministic fault injection for the campaign engine (test-only).

The engine's recovery machinery — per-cell crash capture, pool
rebuilds, the retry ladder — only earns trust if every path can be
driven on purpose.  This module injects failures into exact grid cells:

* ``mode="raise"`` — raise :class:`InjectedCrash` inside the cell, the
  stand-in for "an unexpected exception escaped ``run_version``";
* ``mode="exit"`` — ``os._exit`` the hosting *pool worker* (the OOM /
  SIGKILL stand-in, surfacing as ``BrokenProcessPool`` in the parent);
  in the parent process it degrades to :class:`InjectedCrash` so a
  ``jobs=1`` campaign is never killed by its own test rig;
* ``mode="abort"`` — raise :class:`InjectedAbort` (a ``BaseException``),
  which deliberately escapes crash capture and exercises the engine's
  salvage path;
* ``mode="hang"`` — sleep for ``seconds`` inside the cell (default one
  hour), the stand-in for a stuck worker: the deadline watchdog must
  detect it, kill the worker and demote the cell to a
  ``failure_kind="timeout"`` result.  Without a watchdog the cell
  simply finishes late — the fault never corrupts a result;
* ``mode="enospc"`` — not matched against grid cells but against the
  on-disk cache *tiers* (``benchmark`` holds the tier name,
  ``"run_cache"`` or ``"perf_store"``): :func:`maybe_disk_full` raises
  ``OSError(ENOSPC)`` inside the tier's write path, driving the
  resource-exhaustion degradation (the tier disables itself for the
  rest of the campaign instead of failing the run);
* ``mode="net_drop"`` / ``"net_stall"`` / ``"net_garble"`` — frame-level
  network faults for distributed execution
  (:mod:`repro.experiments.protocol`): ``benchmark`` names the *sending
  endpoint* (``"worker"`` / ``"coordinator"``) and ``version``
  optionally narrows to one message kind (``"result"``, ``"chunk"``,
  ``"ping"`` ... ``None`` matches any frame).  :func:`maybe_net` is
  consulted by the frame send path: ``net_drop`` resets the connection
  under the frame (lost-worker stand-in), ``net_stall`` sleeps
  ``seconds`` before sending (stuck-link stand-in for the heartbeat /
  chunk-deadline watchdogs), ``net_garble`` corrupts the payload after
  its CRC is computed so the receiver detects and rejects the frame.
  Attempt counters live on disk like the crash modes, so "drop the
  first result frame" stays deterministic across reconnects and worker
  processes.

Faults are installed into ``os.environ`` so pool workers see them under
both the fork and spawn start methods, and attempt counters live in a
shared *state directory* so "crash the first N attempts" stays coherent
across worker generations and pool rebuilds (a killed worker cannot
report back — the counter is bumped on disk *before* the trigger).

When no faults are installed, :func:`maybe_crash` is a single dict
lookup — the hook costs nothing on production campaigns.
"""

from __future__ import annotations

import errno
import json
import os
import re
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator

#: environment variable carrying the installed fault configuration
ENV_VAR = "REPRO_FAULTS"
#: status code used by ``mode="exit"`` worker kills
EXIT_CODE = 17


class InjectedCrash(RuntimeError):
    """An injected in-cell exception (``mode="raise"``)."""


class InjectedAbort(BaseException):
    """An injected non-``Exception`` error (``mode="abort"``).

    Derives from ``BaseException`` so the engine's per-cell crash
    capture (``except Exception``) does not swallow it — it reaches
    ``Campaign.run`` as a terminal error, like a ``KeyboardInterrupt``.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault, matched against grid cells.

    ``version`` / ``precision`` use the enum ``.value`` strings
    (``"OpenCL"``, ``"single"``); ``None`` matches any.  ``times`` is
    the number of *first attempts* of the cell that trigger the fault;
    ``-1`` means every attempt (a persistent crasher).  ``seconds``
    only matters to ``mode="hang"`` / ``"net_stall"`` (how long the
    cell or frame stalls).  For ``mode="enospc"`` the ``benchmark``
    field names the targeted cache tier (``"run_cache"`` /
    ``"perf_store"``) instead of a grid cell; for the ``net_*`` modes
    it names the sending endpoint (``"worker"`` / ``"coordinator"``)
    and ``version`` optionally narrows to one message kind.
    """

    benchmark: str
    version: str | None = None
    precision: str | None = None
    mode: str = "raise"  # "raise" | "exit" | "abort" | "hang" | "enospc" | "net_*"
    times: int = 1
    seconds: float = 3600.0

    _MODES = (
        "raise", "exit", "abort", "hang", "enospc",
        "net_drop", "net_stall", "net_garble",
    )

    def __post_init__(self) -> None:
        if self.mode not in self._MODES:
            raise ValueError(f"unknown fault mode {self.mode!r}")


@dataclass(frozen=True)
class _Config:
    state_dir: Path
    faults: tuple[FaultSpec, ...]


#: set by the engine's pool-worker initializer; gates ``mode="exit"``
_IN_WORKER = False

#: memoized (raw env string, parsed config)
_parsed: tuple[str, _Config] | None = None


def mark_worker() -> None:
    """Record that this process is a pool worker (``_worker_init``)."""
    global _IN_WORKER
    _IN_WORKER = True


def install(faults: Iterator[FaultSpec] | tuple[FaultSpec, ...], state_dir: str | Path) -> None:
    """Activate ``faults`` for this process and every future worker."""
    state = Path(state_dir)
    state.mkdir(parents=True, exist_ok=True)
    payload = {"state_dir": str(state), "faults": [asdict(f) for f in faults]}
    os.environ[ENV_VAR] = json.dumps(payload, sort_keys=True)


def clear() -> None:
    """Deactivate every installed fault."""
    os.environ.pop(ENV_VAR, None)


def active() -> bool:
    """Whether any fault configuration is installed."""
    return ENV_VAR in os.environ


@contextmanager
def injected(*faults: FaultSpec, state_dir: str | Path):
    """Scoped :func:`install` / :func:`clear` for tests."""
    install(faults, state_dir)
    try:
        yield
    finally:
        clear()


def maybe_crash(benchmark: str, version=None, precision=None) -> None:
    """Fault hook: trigger the first installed fault matching this cell.

    Called by the engine at the top of every cell execution, in-process
    and inside pool workers.  A no-op unless faults are installed.
    """
    config = _config()
    if config is None:
        return
    version = getattr(version, "value", version)
    precision = getattr(precision, "value", precision)
    for spec in config.faults:
        if spec.mode == "enospc" or spec.mode.startswith("net_"):
            continue  # tier / network faults never match grid cells
        if spec.benchmark != benchmark:
            continue
        if spec.version is not None and spec.version != version:
            continue
        if spec.precision is not None and spec.precision != precision:
            continue
        attempt = _bump(config.state_dir, benchmark, version, precision)
        if 0 <= spec.times < attempt:
            return
        _trigger(spec, benchmark, version, precision)


def maybe_disk_full(tier: str) -> None:
    """Tier fault hook: simulate resource exhaustion on a cache write.

    Called by :meth:`repro.experiments.cache.RunCache.store` and
    :meth:`repro.perf.persist.PersistentStore.store` before the real
    write.  Raises ``OSError(ENOSPC)`` when an ``enospc`` fault is
    installed for ``tier`` (``"run_cache"`` / ``"perf_store"``); a
    no-op otherwise, so production campaigns pay one env lookup.
    """
    config = _config()
    if config is None:
        return
    for spec in config.faults:
        if spec.mode != "enospc" or spec.benchmark != tier:
            continue
        attempt = _bump(config.state_dir, tier, "disk", spec.mode)
        if 0 <= spec.times < attempt:
            return
        raise OSError(
            errno.ENOSPC, f"No space left on device (injected: {tier})"
        )


def maybe_net(endpoint: str, kind: str | None) -> "FaultSpec | None":
    """Network fault hook: the first triggered ``net_*`` fault, if any.

    Called by :func:`repro.experiments.protocol.send_message` with the
    sending side's endpoint name (``"worker"`` / ``"coordinator"``) and
    the outgoing message kind.  Returns the triggered spec — the
    protocol layer enacts it (drop / stall / garble) — or ``None``.
    Attempt counters are bumped on disk under
    ``(endpoint, kind or "any", mode)`` so "fault the first N frames"
    stays coherent across reconnects, like the crash modes.
    """
    config = _config()
    if config is None:
        return None
    for spec in config.faults:
        if not spec.mode.startswith("net_") or spec.benchmark != endpoint:
            continue
        if spec.version is not None and spec.version != kind:
            continue
        attempt = _bump(config.state_dir, endpoint, spec.version or "any", spec.mode)
        if 0 <= spec.times < attempt:
            continue
        return spec
    return None


def attempts(state_dir: str | Path, benchmark: str, version=None, precision=None) -> int:
    """How many times the cell has hit its fault hook (for tests)."""
    version = getattr(version, "value", version)
    precision = getattr(precision, "value", precision)
    path = Path(state_dir) / _cell_id(benchmark, version, precision)
    try:
        return path.stat().st_size
    except FileNotFoundError:
        return 0


# ---------------------------------------------------------------------------
# internals
# ---------------------------------------------------------------------------


def _config() -> _Config | None:
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return None
    global _parsed
    if _parsed is not None and _parsed[0] == raw:
        return _parsed[1]
    data = json.loads(raw)
    config = _Config(
        state_dir=Path(data["state_dir"]),
        faults=tuple(FaultSpec(**spec) for spec in data["faults"]),
    )
    _parsed = (raw, config)
    return config


def _cell_id(benchmark: str, version, precision) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "-", f"{benchmark}.{version}.{precision}")


def _bump(state_dir: Path, benchmark: str, version, precision) -> int:
    """Durably count one attempt of a cell; returns the attempt number.

    One byte appended per attempt: the counter survives ``os._exit``
    (the write hits the page cache before the trigger fires) and is
    shared by every process pointing at the same state directory.  The
    attempt number is the file offset just past *this* call's byte: an
    ``O_APPEND`` write lands atomically at the end of the file, so
    concurrent callers (two workers sending result frames at once) each
    get their own number.  Reading the file size instead would let two
    racing callers both see the later count and skip an attempt.
    """
    path = state_dir / _cell_id(benchmark, version, precision)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, b"x")
        return os.lseek(fd, 0, os.SEEK_CUR)
    finally:
        os.close(fd)


def _trigger(spec: FaultSpec, benchmark: str, version, precision) -> None:
    label = f"{benchmark} [{precision}] {version}"
    if spec.mode == "exit":
        if _IN_WORKER:
            os._exit(EXIT_CODE)
        raise InjectedCrash(f"injected worker kill (in-process): {label}")
    if spec.mode == "abort":
        raise InjectedAbort(f"injected abort: {label}")
    if spec.mode == "hang":
        # A stuck cell, not a dead one: sleep through the budget.  The
        # watchdog kills the hosting worker (or, in-process, interrupts
        # the sleep via SIGALRM); with no watchdog the cell just
        # finishes late, so the fault can never corrupt a result.
        deadline = time.monotonic() + spec.seconds
        while time.monotonic() < deadline:
            time.sleep(min(1.0, max(0.0, deadline - time.monotonic())))
        return
    raise InjectedCrash(f"injected crash: {label}")
