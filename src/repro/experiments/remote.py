"""Distributed campaign execution over framed TCP remote workers.

Two halves, one contract:

* :class:`WorkerServer` (the ``repro worker`` CLI verb) — a persistent
  remote worker.  It binds a TCP port and executes whole
  benchmark-family chunks through the
  same :func:`repro.experiments.engine._execute_family` entry the
  local process pool uses.  The wire carries data only: a chunk holds
  task fields, a result holds ``run_to_row`` rows (plus perf deltas and
  crash tracebacks), rebuilt with ``run_from_row`` as the run cache
  does — so ``ResultSet.to_json()`` stays byte-identical to local
  execution.  Workers run the default platform only: a platform object
  has no data form.  While a chunk executes, the worker sends a
  heartbeat frame every :data:`HEARTBEAT_INTERVAL_S` so the
  coordinator can tell "slow" from "dead".

* :class:`RemoteWorkerPool` — an executor of the engine's recovery
  loop, like the local process pool.  One dispatcher thread per worker
  pulls jobs from a shared queue (preferring chunks of benchmark
  families the worker has already priced — the remote mirror of the
  local pool's cache-affinity placement), frames them over the wire,
  and enforces two watchdogs per in-flight chunk: a **heartbeat
  timeout** (silence means the link or the worker died) and the
  **chunk deadline** (``cell_timeout_s × tasks``, the local pool's
  budget).  A failed chunk — lost link, overrun, unparseable result —
  resolves its future with :class:`WorkerLost` and the engine's one
  retry ladder takes over: redistribute (family → group → single task),
  retry with jittered exponential backoff, probe a suspect cell on a
  known-good worker, convict only on an unambiguous verdict.  A lost
  connection is retried with the campaign's backoff policy; a worker
  whose reconnects are exhausted retires, and when the *last* worker
  retires every queued job fails with :class:`PoolExhausted` so the
  engine can degrade gracefully to local execution instead of failing
  the campaign.  Closing the pool cuts chunks still in flight.

Every state transition is surfaced through the campaign's JSONL trace
vocabulary: ``worker_joined`` / ``worker_rejected`` (handshake),
``run_dispatched`` (a cell shipped to a named worker),
``worker_lost`` (a connection died), and the familiar
``tier_degraded`` when the whole remote tier is gone.
"""

from __future__ import annotations

import itertools
import queue as queue_mod
import socket
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FuturesTimeout
from typing import Callable, Sequence

from ..errors import ReproError
from .protocol import (
    ConnectionClosed,
    FrameError,
    Handshake,
    ProtocolError,
    recv_message,
    send_message,
)

#: worker → coordinator liveness frame cadence while a chunk executes
HEARTBEAT_INTERVAL_S = 0.5
#: coordinator declares a connection dead after this much silence
HEARTBEAT_TIMEOUT_S = 10.0
#: TCP connect + handshake budget per attempt
CONNECT_TIMEOUT_S = 10.0


class WorkerLost(ReproError):
    """A chunk's worker connection died (or overran its budget).

    ``timed_out`` distinguishes a chunk-deadline overrun — routed into
    the engine's *timeout* ladder, where a convicted single task
    becomes a ``failure_kind="timeout"`` result — from a plain
    connection loss, which goes through the crash-recovery ladder.
    """

    def __init__(self, addr: str, reason: str, timed_out: bool = False) -> None:
        super().__init__(f"worker {addr}: {reason}")
        self.addr = addr
        self.reason = reason
        self.timed_out = timed_out


class PoolExhausted(ReproError):
    """Every remote worker is gone; queued chunks must run locally."""


class HandshakeRejected(ReproError):
    """The peer's handshake does not match ours (stale worker)."""


def parse_address(text: str) -> tuple[str, int]:
    """``"host:port"`` → ``(host, port)`` with a helpful error."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"worker address {text!r} is not host:port")
    return host, int(port)


# ---------------------------------------------------------------------------
# the chunk and result codec: JSON data both ways
# ---------------------------------------------------------------------------


def _groups_to_wire(groups: tuple) -> list:
    """A chunk's ``RunTask`` groups as lists of task-field dicts."""
    return [
        [
            {
                "benchmark": task.benchmark,
                "version": task.version.value,
                "precision": task.precision.value,
                "scale": task.scale,
                "seed": task.seed,
                "governor": task.governor,
                "energy_deadline_s": task.energy_deadline_s,
            }
            for task in group
        ]
        for group in groups
    ]


def _groups_from_wire(groups: list) -> tuple:
    """Task-field dicts back into ``RunTask`` groups (worker side)."""
    from ..benchmarks.base import Precision, Version
    from .engine import RunTask

    return tuple(
        tuple(
            RunTask(
                benchmark=fields["benchmark"],
                version=Version(fields["version"]),
                precision=Precision(fields["precision"]),
                scale=fields["scale"],
                seed=fields["seed"],
                governor=fields["governor"],
                energy_deadline_s=fields["energy_deadline_s"],
            )
            for fields in group
        )
        for group in groups
    )


def _result_to_wire(group_runs: tuple, family_delta: dict, prepriced: int) -> dict:
    """``_execute_family``'s return as run rows; only crashes carry a
    traceback."""
    from .runner import run_to_row

    def _row(run, delta: dict) -> dict:
        row = {"run": run_to_row(run), "perf": delta}
        if run.crashed and run.diagnostics.get("traceback"):
            row["traceback"] = run.diagnostics["traceback"]
        return row

    return {
        "groups": [[_row(run, delta) for run, delta in runs] for runs in group_runs],
        "perf": family_delta,
        "prepriced": prepriced,
    }


def _perf_from_wire(delta: dict) -> dict:
    return {name: {k: int(v) for k, v in stats.items()} for name, stats in delta.items()}


def _result_from_wire(message: dict, groups: tuple) -> tuple:
    """A result message back into ``_execute_family``'s return shape.

    Runs are rebuilt with ``run_from_row``, as the run cache rebuilds
    them.  Raises on a result that does not answer its chunk cell for
    cell — the link turns that into :class:`WorkerLost`.
    """
    from .runner import result_key, run_from_row

    out = []
    for tasks, rows in zip(groups, message["groups"], strict=True):
        runs = []
        for task, row in zip(tasks, rows, strict=True):
            run = run_from_row(row["run"])
            if result_key(run) != task.cell:
                raise ValueError(f"a row for {result_key(run)} answers {task.cell}")
            if row.get("traceback"):
                run.diagnostics["traceback"] = str(row["traceback"])
            runs.append((run, _perf_from_wire(row["perf"])))
        out.append(tuple(runs))
    return tuple(out), _perf_from_wire(message["perf"]), int(message["prepriced"])


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


class WorkerServer:
    """A persistent remote campaign worker (the ``repro worker`` verb).

    Accepts one coordinator connection at a time; a dropped coordinator
    simply returns the server to its accept loop, so the same worker
    survives coordinator restarts, reconnects after injected link
    faults, and serves consecutive campaigns.  ``handshake`` overrides
    the advertised identity (tests use it to stage a stale worker).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        handshake: Handshake | None = None,
        hb_interval_s: float = HEARTBEAT_INTERVAL_S,
    ) -> None:
        self.handshake = handshake or Handshake.local()
        self.hb_interval_s = hb_interval_s
        self._sock = socket.create_server((host, port))
        self.host, self.port = self._sock.getsockname()[:2]
        self._stop = threading.Event()
        #: chunks executed over this server's lifetime (tests, logs)
        self.chunks_served = 0

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def stop(self) -> None:
        """Ask the accept loop to wind down (thread-safe)."""
        self._stop.set()

    def serve_forever(self) -> None:
        """Serve coordinators until :meth:`stop`."""
        self._sock.settimeout(0.25)
        try:
            while not self._stop.is_set():
                try:
                    conn, _addr = self._sock.accept()
                except socket.timeout:
                    continue
                try:
                    self._handle(conn)
                except (ProtocolError, OSError):
                    # a dead coordinator (or an injected link fault) is
                    # routine: back to the accept loop for the reconnect
                    pass
                finally:
                    conn.close()
        finally:
            self._sock.close()

    # ------------------------------------------------------------------
    def _handle(self, conn: socket.socket) -> None:
        conn.settimeout(CONNECT_TIMEOUT_S)
        hello = recv_message(conn)
        if hello.get("kind") != "hello":
            return
        send_message(conn, self.handshake.to_message(), endpoint="worker")
        conn.settimeout(None)
        while not self._stop.is_set():
            message = recv_message(conn)
            if message.get("kind") != "chunk":
                return  # "bye" (rejection or clean close), or a violation
            self._run_chunk(conn, message)

    def _run_chunk(self, conn: socket.socket, message: dict) -> None:
        """Execute one family chunk, heartbeating while it runs.

        The tasks run through :func:`engine._execute_family` — the exact
        pool entry local workers run.  A chunk that does not parse (or
        has no integer ``id``) is a protocol violation: the connection
        drops, the server keeps serving.  The heartbeat loop runs in
        *this* thread so a chunk that takes seconds never leaves the
        coordinator guessing.
        """
        from .engine import _execute_family

        try:
            job_id, preprice = message["id"], bool(message["preprice"])
            groups = _groups_from_wire(message["groups"])
            if not isinstance(job_id, int):
                raise TypeError(f"chunk id {job_id!r} is not an integer")
        except (KeyError, TypeError, ValueError) as exc:
            raise FrameError(f"malformed chunk: {exc!r}") from None
        box: dict = {}

        def _work() -> None:
            try:
                box["value"] = _result_to_wire(*_execute_family(groups, preprice))
            except BaseException as exc:  # noqa: BLE001 — shipped, not raised
                box["error"] = f"{type(exc).__name__}: {exc}"

        thread = threading.Thread(target=_work, daemon=True, name="repro-worker-chunk")
        thread.start()
        while thread.is_alive():
            thread.join(self.hb_interval_s)
            if thread.is_alive():
                send_message(conn, {"kind": "ping"}, endpoint="worker")
        self.chunks_served += 1
        if "error" in box:
            reply = {"kind": "chunk_error", "id": job_id, "error": box["error"]}
        else:
            reply = {"kind": "result", "id": job_id, **box["value"]}
        send_message(conn, reply, endpoint="worker")


def serve_worker(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    announce: Callable[[str], None] | None = None,
) -> None:
    """Run a remote worker until interrupted (the CLI entry).

    Marks the process as a fault-injection worker (so ``mode="exit"``
    faults may kill it, mirroring pool workers) and announces the bound
    address — ``--port 0`` picks a free port, and scripts parse the
    announcement to learn it.
    """
    from . import faults

    faults.mark_worker()
    server = WorkerServer(host, port)
    if announce is not None:
        announce(f"worker listening on {server.address}")
    server.serve_forever()


# ---------------------------------------------------------------------------
# coordinator side
# ---------------------------------------------------------------------------


class _Job:
    """One queued chunk: payload, its family, and the engine's future."""

    __slots__ = ("id", "payload", "preprice", "family", "n_tasks", "future")

    def __init__(self, job_id: int, payload: tuple, preprice: bool) -> None:
        self.id = job_id
        self.payload = payload
        self.preprice = preprice
        self.family = payload[0][0].benchmark
        self.n_tasks = sum(len(group) for group in payload)
        self.future: Future = Future()


class RemoteWorkerPool:
    """Schedules campaign chunks onto remote workers, fault-tolerantly.

    ``task_fields`` renders one task's trace fields (the engine passes
    its own helper so remote events share the campaign vocabulary);
    ``backoff`` maps a retry attempt number to a sleep in seconds (the
    engine passes its jittered exponential policy); ``clock`` supplies
    the injectable sleep.  Budget and heartbeat watchdogs read the real
    monotonic clock — they bound *socket* reads, which no fake clock
    can accelerate.

    Trace events are never emitted from dispatcher threads: they queue
    into :attr:`events` and the engine drains them between waits, so
    the campaign's trace sink needs no locking.
    """

    #: how long the engine waits on chunk futures before draining events
    poll_s = 0.2

    def __init__(
        self,
        addrs: Sequence[str],
        *,
        task_fields: Callable[[object], dict],
        clock=None,
        cell_timeout_s: float | None = None,
        heartbeat_timeout_s: float = HEARTBEAT_TIMEOUT_S,
        connect_timeout_s: float = CONNECT_TIMEOUT_S,
        reconnect_attempts: int = 2,
        backoff: Callable[[int], float] | None = None,
    ) -> None:
        if not addrs:
            raise ValueError("RemoteWorkerPool needs at least one worker address")
        self.task_fields = task_fields
        self.clock = clock
        self.cell_timeout_s = cell_timeout_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.connect_timeout_s = connect_timeout_s
        self.reconnect_attempts = reconnect_attempts
        self.backoff = backoff or (lambda attempt: 0.0)
        self.handshake = Handshake.local()
        self.events: queue_mod.SimpleQueue = queue_mod.SimpleQueue()
        self._cond = threading.Condition()
        self._queue: list[_Job] = []
        self._affinity: dict[str, str] = {}
        self._closed = False
        self._ids = itertools.count()
        self._workers = [_WorkerLink(self, addr) for addr in addrs]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def connect(self) -> int:
        """Start every worker link; wait for first connection verdicts.

        Returns the number of workers that joined.  Links whose first
        attempt failed keep retrying in the background (they count as
        pending, not dead), so a campaign starts as soon as the
        handshakes that *can* settle have settled.
        """
        for worker in self._workers:
            worker.start()
        deadline = time.monotonic() + self.connect_timeout_s
        for worker in self._workers:
            worker.settled.wait(timeout=max(deadline - time.monotonic(), 0.05))
        return self.alive()

    def alive(self) -> int:
        """Worker links currently connected (or mid-chunk)."""
        return sum(1 for w in self._workers if w.state == "alive")

    def exhausted(self) -> bool:
        """Whether every worker link is terminally dead or rejected."""
        return all(w.state == "dead" for w in self._workers)

    def close(self) -> None:
        """Stop every link.  A chunk still in flight is cut, not
        awaited: its link's socket is shut, and no link reconnects."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        for worker in self._workers:
            worker.cut()
        for worker in self._workers:
            worker.join(timeout=self.connect_timeout_s + 5.0)
        self._fail_queued(PoolExhausted("remote worker pool closed"))

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def submit(self, payload: tuple, preprice: bool) -> Future:
        """Queue one chunk; its future resolves with the family rows or
        fails with :class:`WorkerLost` / :class:`PoolExhausted`."""
        job = _Job(next(self._ids), payload, preprice)
        with self._cond:
            if self._closed or self.exhausted():
                job.future.set_exception(
                    PoolExhausted("no remote workers available")
                )
                return job.future
            self._queue.append(job)
            self._cond.notify_all()
        return job.future

    def settle(self, future: Future) -> bool:
        """Whether a finished chunk overran its budget."""
        exc = future.exception()
        return isinstance(exc, WorkerLost) and exc.timed_out

    def probe(self, task, preprice: bool) -> tuple:
        """Run one task alone on a live worker and wait for its rows.

        An overrun raises ``concurrent.futures.TimeoutError``, as the
        local probe pool does; a lost link raises :class:`WorkerLost`.
        """
        try:
            return self.submit(((task,),), preprice).result()
        except WorkerLost as exc:
            if exc.timed_out:
                raise FuturesTimeout(str(exc)) from exc
            raise

    def drain(self, tracer) -> None:
        """Emit queued worker events into the campaign trace (engine
        thread only)."""
        while True:
            try:
                name, fields = self.events.get_nowait()
            except queue_mod.Empty:
                return
            tracer.emit(name, **fields)

    # ------------------------------------------------------------------
    # dispatcher-thread internals
    # ------------------------------------------------------------------
    def _emit(self, name: str, **fields) -> None:
        self.events.put((name, fields))

    def _sleep(self, seconds: float) -> None:
        if seconds <= 0:
            return
        if self.clock is not None:
            self.clock.sleep(seconds)
        else:
            time.sleep(seconds)

    def _next_job(self, worker: "_WorkerLink") -> _Job | None:
        """Block for this worker's next chunk (``None`` = shut down).

        Cache-affinity placement: prefer a chunk of a family this
        worker has already completed, then a family no worker owns yet;
        stealing an owned family is the last resort — an idle worker
        beats a warm cache.
        """
        with self._cond:
            while True:
                if self._closed:
                    return None
                index = self._pick_index(worker.addr)
                if index is not None:
                    return self._queue.pop(index)
                self._cond.wait(timeout=0.5)

    def _pick_index(self, addr: str) -> int | None:
        unowned = None
        for i, job in enumerate(self._queue):
            owner = self._affinity.get(job.family)
            if owner == addr:
                return i
            if unowned is None and owner is None:
                unowned = i
        if unowned is not None:
            return unowned
        return 0 if self._queue else None

    def _record_affinity(self, family: str, addr: str) -> None:
        with self._cond:
            self._affinity[family] = addr

    def _drop_affinity(self, addr: str) -> None:
        with self._cond:
            for family in [f for f, a in self._affinity.items() if a == addr]:
                del self._affinity[family]

    def _worker_retired(self) -> None:
        """Called by a link entering terminal death; the last one out
        fails every queued job so the engine can degrade locally."""
        if self.exhausted():
            self._fail_queued(PoolExhausted("every remote worker is gone"))

    def _fail_queued(self, exc: Exception) -> None:
        with self._cond:
            jobs, self._queue = self._queue, []
        for job in jobs:
            if not job.future.done():
                job.future.set_exception(exc)


class _LinkDead(Exception):
    """Internal: this connection is unusable; reconnect or retire."""

    def __init__(self, reason: str, timed_out: bool = False) -> None:
        super().__init__(reason)
        self.reason = reason
        self.timed_out = timed_out


class _WorkerLink(threading.Thread):
    """One coordinator↔worker connection and its dispatch loop.

    ``state`` walks ``connecting → alive → (connecting ↔ alive)* →
    dead``; ``settled`` is set once the first connection attempt has a
    verdict, so :meth:`RemoteWorkerPool.connect` can report joins and
    rejections before the campaign schedules anything.
    """

    def __init__(self, pool: RemoteWorkerPool, addr: str) -> None:
        super().__init__(daemon=True, name=f"repro-remote-{addr}")
        self.pool = pool
        self.addr = addr
        self.state = "connecting"
        self.settled = threading.Event()
        #: the open connection, shut by :meth:`cut` when the pool closes
        self.sock: socket.socket | None = None

    # ------------------------------------------------------------------
    def run(self) -> None:
        pool = self.pool
        attempt = 0
        while True:
            try:
                sock, theirs = self._connect()
            except HandshakeRejected as exc:
                pool._emit(
                    "worker_rejected",
                    detail={"worker": self.addr, "reason": str(exc)},
                )
                self._retire()
                return
            except (OSError, ProtocolError):
                self.settled.set()
                attempt += 1
                if attempt > pool.reconnect_attempts or pool._closed:
                    self._retire()
                    return
                pool._sleep(pool.backoff(attempt))
                continue
            attempt = 0
            self.state = "alive"
            self.settled.set()
            pool._emit(
                "worker_joined",
                detail={
                    "worker": self.addr,
                    "namespace": theirs.namespace,
                    "version": theirs.version,
                },
            )
            try:
                self._serve(sock)
                return  # clean pool shutdown
            except _LinkDead as exc:
                if pool._closed:
                    return  # cut by close(): nobody waits for a reconnect
                self.state = "connecting"
                pool._drop_affinity(self.addr)
                pool._emit(
                    "worker_lost",
                    detail={"worker": self.addr, "reason": exc.reason},
                )
                attempt += 1
                if attempt > pool.reconnect_attempts:
                    self._retire()
                    return
                pool._sleep(pool.backoff(attempt))

    def _retire(self) -> None:
        self.state = "dead"
        self.settled.set()
        self.pool._worker_retired()

    # ------------------------------------------------------------------
    def _connect(self) -> tuple[socket.socket, Handshake]:
        pool = self.pool
        host, port = parse_address(self.addr)
        sock = socket.create_connection((host, port), timeout=pool.connect_timeout_s)
        try:
            send_message(sock, pool.handshake.to_message(), endpoint="coordinator")
            hello = recv_message(sock)
            if hello.get("kind") != "hello":
                raise HandshakeRejected(f"expected hello, got {hello.get('kind')!r}")
            theirs = Handshake.from_message(hello)
            reason = pool.handshake.reject_reason(theirs)
            if reason is not None:
                try:
                    send_message(sock, {"kind": "bye", "reason": reason}, endpoint="coordinator")
                except OSError:
                    pass
                raise HandshakeRejected(reason)
        except BaseException:
            sock.close()
            raise
        return sock, theirs

    def cut(self) -> None:
        """Shut this link's connection, so a chunk in flight ends now."""
        sock = self.sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def _serve(self, sock: socket.socket) -> None:
        """Pull chunks until shutdown; raise :class:`_LinkDead` on any
        connection trouble (the current job's future is failed first)."""
        self.sock = sock
        try:
            while True:
                job = self.pool._next_job(self)
                if job is None:
                    try:
                        send_message(sock, {"kind": "bye"}, endpoint="coordinator")
                    except OSError:
                        pass
                    return
                self._run_job(sock, job)
        finally:
            self.sock = None
            sock.close()

    def _run_job(self, sock: socket.socket, job: _Job) -> None:
        pool = self.pool
        for group in job.payload:
            for task in group:
                pool._emit(
                    "run_dispatched",
                    detail={"worker": self.addr},
                    **pool.task_fields(task),
                )
        budget = (
            pool.cell_timeout_s * job.n_tasks
            if pool.cell_timeout_s is not None
            else None
        )
        deadline = time.monotonic() + budget if budget is not None else None
        try:
            send_message(
                sock,
                {
                    "kind": "chunk",
                    "id": job.id,
                    "groups": _groups_to_wire(job.payload),
                    "preprice": job.preprice,
                },
                endpoint="coordinator",
            )
            while True:
                timeout = pool.heartbeat_timeout_s
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise _LinkDead(
                            f"chunk overran its {budget:g}s budget", timed_out=True
                        )
                    timeout = min(timeout, remaining)
                sock.settimeout(timeout)
                try:
                    message = recv_message(sock)
                except socket.timeout:
                    if deadline is not None and time.monotonic() >= deadline:
                        raise _LinkDead(
                            f"chunk overran its {budget:g}s budget", timed_out=True
                        ) from None
                    raise _LinkDead(
                        f"no heartbeat for {pool.heartbeat_timeout_s:g}s"
                    ) from None
                kind = message.get("kind")
                if kind == "ping":
                    continue  # liveness only; budget still applies
                if kind == "result" and message.get("id") == job.id:
                    try:
                        value = _result_from_wire(message, job.payload)
                    except (AttributeError, KeyError, TypeError, ValueError) as exc:
                        raise _LinkDead(f"protocol violation: malformed result ({exc!r})") from None
                    pool._record_affinity(job.family, self.addr)
                    job.future.set_result(value)
                    return
                if kind == "chunk_error" and message.get("id") == job.id:
                    raise _LinkDead(f"worker-side error: {message.get('error')}")
                raise _LinkDead(f"protocol violation: unexpected {kind!r} frame")
        except _LinkDead as exc:
            job.future.set_exception(
                WorkerLost(self.addr, exc.reason, timed_out=exc.timed_out)
            )
            raise
        except (OSError, ConnectionClosed, ProtocolError) as exc:
            reason = f"{type(exc).__name__}: {exc}"
            job.future.set_exception(WorkerLost(self.addr, reason))
            raise _LinkDead(reason) from exc
