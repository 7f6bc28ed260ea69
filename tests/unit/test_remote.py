"""Unit tests for the distributed-execution layer.

Covers the wire protocol (framing, CRC, handshake verdicts), the
deterministic network fault modes, the jittered/capped retry backoff,
and the coordinator-side robustness guarantees: stale-worker rejection
with graceful degradation, frame-drop redistribution, and the
all-workers-gone fallback to local execution — each asserting the
campaign's ``ResultSet.to_json()`` stays byte-identical to a local run.
It also covers hostile and broken peers: a pickle frame is refused
unread, a malformed chunk or result drops one connection and nothing
else, and a campaign deadline is not held up by a busy worker.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import socket
import struct
import threading
import time
import warnings
import zlib

import pytest

from repro.benchmarks.base import Precision, Version
from repro.calibration import default_platform
from repro.experiments import (
    Campaign,
    CampaignSpec,
    Clock,
    DeadlineExceeded,
    Handshake,
    ListTraceSink,
    PROTOCOL_VERSION,
    WorkerServer,
)
from repro.experiments import faults
from repro.experiments.protocol import (
    ConnectionClosed,
    FrameError,
    ProtocolError,
    recv_message,
    send_message,
)

#: small two-family grid: big enough to exercise family scheduling and
#: redistribution, small enough to run many campaigns per test module
GRID = dict(
    benchmarks=("vecop", "red"),
    versions=(Version.SERIAL, Version.OPENCL),
    scale=0.02,
)


def _sockpair() -> tuple[socket.socket, socket.socket]:
    return socket.socketpair()


def _serve(*servers: WorkerServer) -> None:
    for server in servers:
        threading.Thread(target=server.serve_forever, daemon=True).start()


@pytest.fixture()
def local_json() -> str:
    return Campaign(CampaignSpec(**GRID)).run(jobs=1).to_json()


class _Mkdir:
    """Unpickling this object creates a directory: hostile code."""

    def __init__(self, path) -> None:
        self.path = str(path)

    def __reduce__(self):
        return (os.mkdir, (self.path,))


def _pickle_frame(marker) -> bytes:
    """A protocol-1 ``P`` frame whose payload would create ``marker``."""
    payload = pickle.dumps(_Mkdir(marker))
    return struct.pack("!cII", b"P", len(payload), zlib.crc32(payload)) + payload


def _handshaken(server: WorkerServer) -> socket.socket:
    """A raw connection to ``server`` that has passed the handshake."""
    conn = socket.create_connection((server.host, server.port), timeout=10)
    send_message(conn, Handshake.local().to_message())
    assert recv_message(conn)["kind"] == "hello"
    return conn


def _assert_dropped(conn: socket.socket) -> None:
    """The peer closed ``conn`` (a reset if it left bytes unread)."""
    with conn, contextlib.suppress(ConnectionResetError):
        assert conn.recv(1) == b""


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------


class TestFraming:
    def test_json_roundtrip(self):
        a, b = _sockpair()
        send_message(a, {"kind": "ping", "n": 3})
        assert recv_message(b) == {"kind": "ping", "n": 3}

    def test_pickle_frame_refused_unread(self, tmp_path):
        """A pickle frame is refused on its header: its payload is never
        read, so the code it carries never runs."""
        marker = tmp_path / "marker"
        frame = _pickle_frame(marker)
        c, d = _sockpair()
        c.sendall(frame)
        with pytest.raises(FrameError, match="unknown frame kind"):
            recv_message(d)
        assert not marker.exists()
        assert d.recv(len(frame)) == frame[9:]  # still queued, unread

    def test_non_json_message_is_a_type_error(self):
        a, _b = _sockpair()
        with pytest.raises(TypeError):
            send_message(a, {"kind": "chunk", "groups": ((Version.SERIAL, 1.5),)})

    def test_crc_corruption_detected(self):
        a, b = _sockpair()
        send_message(a, {"kind": "ping"})
        raw = bytearray(b.recv(4096))
        raw[-1] ^= 0xFF  # flip one payload byte, keep the header CRC
        c, d = _sockpair()
        c.sendall(bytes(raw))
        with pytest.raises(FrameError, match="CRC mismatch"):
            recv_message(d)

    def test_truncated_frame_is_connection_closed(self):
        a, b = _sockpair()
        send_message(a, {"kind": "ping"})
        raw = b.recv(4096)
        c, d = _sockpair()
        c.sendall(raw[: len(raw) - 2])
        c.close()
        with pytest.raises(ConnectionClosed):
            recv_message(d)

    def test_unknown_frame_kind_rejected(self):
        c, d = _sockpair()
        c.sendall(b"X" + bytes(8))
        with pytest.raises(FrameError, match="unknown frame kind"):
            recv_message(d)

    def test_oversized_length_rejected_before_allocation(self):
        import struct

        c, d = _sockpair()
        c.sendall(struct.pack("!cII", b"J", 2**31, 0))
        with pytest.raises(FrameError, match="exceeds"):
            recv_message(d)

    def test_message_without_kind_rejected(self):
        a, b = _sockpair()
        send_message(a, {"kind": None} | {"x": 1})
        # a dict whose "kind" is present but None still counts as keyed;
        # strip it properly via a raw payload instead
        recv_message(b)
        import json
        import struct
        import zlib

        payload = json.dumps({"x": 1}).encode()
        c, d = _sockpair()
        c.sendall(struct.pack("!cII", b"J", len(payload), zlib.crc32(payload)) + payload)
        with pytest.raises(FrameError, match="without a kind"):
            recv_message(d)


# ---------------------------------------------------------------------------
# handshake
# ---------------------------------------------------------------------------


class TestHandshake:
    def test_local_matches_itself(self):
        ours = Handshake.local()
        assert ours.reject_reason(Handshake.local()) is None

    def test_protocol_mismatch_named(self):
        ours = Handshake.local()
        theirs = Handshake(PROTOCOL_VERSION + 1, ours.namespace, ours.version)
        assert "protocol" in ours.reject_reason(theirs)

    def test_namespace_mismatch_named(self):
        ours = Handshake.local()
        theirs = Handshake(ours.protocol, "v0-0.0.0", ours.version)
        assert "namespace" in ours.reject_reason(theirs)

    def test_version_mismatch_named(self):
        ours = Handshake.local()
        theirs = Handshake(ours.protocol, ours.namespace, "0.0.1")
        assert "version" in ours.reject_reason(theirs)

    def test_message_roundtrip(self):
        ours = Handshake.local()
        assert Handshake.from_message(ours.to_message()) == ours

    def test_malformed_hello_rejected(self):
        with pytest.raises(FrameError, match="malformed hello"):
            Handshake.from_message({"kind": "hello", "protocol": 1})


# ---------------------------------------------------------------------------
# network fault modes
# ---------------------------------------------------------------------------


class TestNetFaults:
    def test_net_drop_resets_connection(self, tmp_path):
        a, _b = _sockpair()
        with faults.injected(
            faults.FaultSpec(benchmark="worker", mode="net_drop", times=1),
            state_dir=tmp_path,
        ):
            with pytest.raises(ConnectionResetError, match="injected net_drop"):
                send_message(a, {"kind": "result"}, endpoint="worker")
            # times=1 exhausted: the next frame sails through
            send_message(a, {"kind": "result"}, endpoint="worker")

    def test_net_garble_detected_by_receiver(self, tmp_path):
        a, b = _sockpair()
        with faults.injected(
            faults.FaultSpec(
                benchmark="coordinator", version="chunk", mode="net_garble", times=1
            ),
            state_dir=tmp_path,
        ):
            send_message(a, {"kind": "chunk", "id": 7}, endpoint="coordinator")
        with pytest.raises(FrameError, match="CRC mismatch"):
            recv_message(b)

    def test_kind_filter_only_matches_named_frames(self, tmp_path):
        a, b = _sockpair()
        with faults.injected(
            faults.FaultSpec(benchmark="worker", version="result", mode="net_drop"),
            state_dir=tmp_path,
        ):
            send_message(a, {"kind": "ping"}, endpoint="worker")  # unaffected
            assert recv_message(b) == {"kind": "ping"}
            with pytest.raises(ConnectionResetError):
                send_message(a, {"kind": "result"}, endpoint="worker")

    def test_endpoint_filter_ignores_other_side(self, tmp_path):
        a, b = _sockpair()
        with faults.injected(
            faults.FaultSpec(benchmark="worker", mode="net_drop"),
            state_dir=tmp_path,
        ):
            send_message(a, {"kind": "chunk"}, endpoint="coordinator")
            assert recv_message(b) == {"kind": "chunk"}

    def test_attempt_counter_is_durable(self, tmp_path):
        spec = faults.FaultSpec(benchmark="worker", mode="net_drop", times=2)
        with faults.injected(spec, state_dir=tmp_path):
            for _ in range(2):
                a, _b = _sockpair()
                with pytest.raises(ConnectionResetError):
                    send_message(a, {"kind": "result"}, endpoint="worker")
            a, _b = _sockpair()
            send_message(a, {"kind": "result"}, endpoint="worker")  # third: clean

    def test_concurrent_attempts_get_distinct_numbers(self, tmp_path):
        """Two workers can send result frames at the same moment; every
        attempt must still get its own number, or "drop the first
        result frame" silently drops none."""
        n_threads, per_thread = 16, 50
        for round_ in range(10):
            start = threading.Barrier(n_threads)
            seen: list[int] = []

            def bump():
                start.wait()
                for _ in range(per_thread):
                    seen.append(
                        faults._bump(tmp_path / str(round_), "worker", "result", "net_drop")
                    )

            threads = [threading.Thread(target=bump) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert sorted(seen) == list(range(1, n_threads * per_thread + 1))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown fault mode"):
            faults.FaultSpec(benchmark="worker", mode="net_jitter")


# ---------------------------------------------------------------------------
# retry backoff: cap + jitter
# ---------------------------------------------------------------------------


class TestBackoff:
    @staticmethod
    def _campaign(**kwargs) -> Campaign:
        return Campaign(CampaignSpec(**GRID), **kwargs)

    def test_exponential_uncapped(self):
        campaign = self._campaign(retry_backoff_s=0.5)
        assert [campaign._backoff_delay(a) for a in (1, 2, 3)] == [0.5, 1.0, 2.0]

    def test_cap_clamps_growth(self):
        campaign = self._campaign(retry_backoff_s=0.5, retry_backoff_cap_s=1.2)
        assert [campaign._backoff_delay(a) for a in (1, 2, 3, 6)] == [
            0.5,
            1.0,
            1.2,
            1.2,
        ]

    def test_jitter_spreads_below_nominal(self):
        campaign = self._campaign(retry_backoff_s=1.0, retry_backoff_jitter=0.5)
        delays = [campaign._backoff_delay(1) for _ in range(64)]
        assert all(0.5 <= d <= 1.0 for d in delays)
        assert len(set(delays)) > 1  # actually spread, not constant

    def test_jitter_deterministic_per_spec_seed(self):
        a = self._campaign(retry_backoff_s=1.0, retry_backoff_jitter=0.5)
        b = self._campaign(retry_backoff_s=1.0, retry_backoff_jitter=0.5)
        assert [a._backoff_delay(1) for _ in range(8)] == [
            b._backoff_delay(1) for _ in range(8)
        ]

    def test_backoff_slept_through_injectable_clock(self, tmp_path):
        """A worker kill backs off through Clock.sleep — virtual time,
        no wall-sleeping — with the jittered delay below nominal."""
        slept: list[float] = []
        clock = Clock(sleep=slept.append)
        # times=2: the first kill fails the family chunk (split, no
        # backoff), the second kills the isolated single-task retry —
        # which is the path that backs off before requeueing.
        with faults.injected(
            faults.FaultSpec(benchmark="red", version="OpenCL", mode="exit", times=2),
            state_dir=tmp_path / "state",
        ):
            campaign = Campaign(
                CampaignSpec(**GRID),
                retries=3,
                retry_backoff_s=0.25,
                retry_backoff_jitter=0.5,
                clock=clock,
            )
            results = campaign.run(jobs=2)
        assert all(r.ok for r in results.results.values())
        assert slept, "worker-kill retries should have backed off"
        assert all(0.125 <= s <= 0.25 * 2**3 for s in slept)

    def test_validation(self):
        with pytest.raises(ValueError, match="retry_backoff_cap_s"):
            self._campaign(retry_backoff_cap_s=0.0)
        with pytest.raises(ValueError, match="retry_backoff_jitter"):
            self._campaign(retry_backoff_jitter=1.0)


# ---------------------------------------------------------------------------
# coordinator robustness (in-thread loopback workers)
# ---------------------------------------------------------------------------


class TestRemoteExecution:
    @pytest.mark.timeout_guard(300)
    def test_loopback_byte_identity(self, local_json):
        servers = [WorkerServer(), WorkerServer()]
        _serve(*servers)
        sink = ListTraceSink()
        campaign = Campaign(
            CampaignSpec(**GRID),
            trace=sink,
            workers=[s.address for s in servers],
        )
        try:
            assert campaign.run(jobs=1).to_json() == local_json
        finally:
            for s in servers:
                s.stop()
        events = [e.event for e in sink.events]
        assert events.count("worker_joined") == 2
        assert events.count("run_dispatched") == 4
        assert campaign.report.degraded == ()
        # every dispatch names the worker that ran it
        dispatched = [e for e in sink.events if e.event == "run_dispatched"]
        addresses = {s.address for s in servers}
        assert all(e.detail["worker"] in addresses for e in dispatched)

    @pytest.mark.timeout_guard(300)
    def test_stale_worker_rejected_then_local_fallback(self, local_json):
        stale = Handshake(PROTOCOL_VERSION, "v0-0.0.0", "0.0.1")
        server = WorkerServer(handshake=stale)
        _serve(server)
        sink = ListTraceSink()
        campaign = Campaign(
            CampaignSpec(**GRID), trace=sink, workers=[server.address]
        )
        try:
            with pytest.warns(RuntimeWarning, match="remote workers degraded"):
                out = campaign.run(jobs=1).to_json()
        finally:
            server.stop()
        assert out == local_json
        rejected = [e for e in sink.events if e.event == "worker_rejected"]
        assert len(rejected) == 1
        assert "namespace" in rejected[0].detail["reason"]
        degraded = [e for e in sink.events if e.event == "tier_degraded"]
        assert degraded and degraded[0].detail["tier"] == "remote_workers"
        assert campaign.report.degraded == (
            "remote_workers: no remote workers joined",
        )
        # the work still happened — locally
        assert campaign.report.executed == 4

    @pytest.mark.timeout_guard(300)
    def test_no_worker_listening_degrades_to_local(self, local_json):
        # grab a port that nothing serves
        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        campaign = Campaign(
            CampaignSpec(**GRID),
            workers=[f"127.0.0.1:{port}"],
        )
        with pytest.warns(RuntimeWarning, match="remote workers degraded"):
            assert campaign.run(jobs=1).to_json() == local_json

    @pytest.mark.timeout_guard(300)
    def test_dropped_result_frame_redistributes(self, tmp_path, local_json):
        """net_drop on the first result frame kills that connection
        mid-chunk; the chunk re-enters the ladder and completes on a
        reconnected link — bytes unchanged, worker_lost traced."""
        servers = [WorkerServer(), WorkerServer()]
        _serve(*servers)
        sink = ListTraceSink()
        with faults.injected(
            faults.FaultSpec(
                benchmark="worker", version="result", mode="net_drop", times=1
            ),
            state_dir=tmp_path / "state",
        ):
            campaign = Campaign(
                CampaignSpec(**GRID),
                trace=sink,
                workers=[s.address for s in servers],
            )
            try:
                out = campaign.run(jobs=1).to_json()
            finally:
                for s in servers:
                    s.stop()
        assert out == local_json
        events = [e.event for e in sink.events]
        assert events.count("worker_lost") >= 1
        assert campaign.report.retries >= 1
        assert campaign.report.degraded == ()
        assert campaign.report.failed_runs == ()

    @pytest.mark.timeout_guard(300)
    def test_garbled_chunk_frame_recovers(self, tmp_path, local_json):
        """A corrupted chunk dispatch is detected by the worker's CRC
        check; the connection drops, the chunk redistributes."""
        servers = [WorkerServer(), WorkerServer()]
        _serve(*servers)
        with faults.injected(
            faults.FaultSpec(
                benchmark="coordinator", version="chunk", mode="net_garble", times=1
            ),
            state_dir=tmp_path / "state",
        ):
            campaign = Campaign(
                CampaignSpec(**GRID),
                workers=[s.address for s in servers],
            )
            try:
                out = campaign.run(jobs=1).to_json()
            finally:
                for s in servers:
                    s.stop()
        assert out == local_json
        assert campaign.report.failed_runs == ()

    @pytest.mark.timeout_guard(300)
    def test_workers_param_threads_through_run_grid(self, local_json):
        from repro.experiments import run_grid

        server = WorkerServer()
        _serve(server)
        try:
            out = run_grid(
                GRID["benchmarks"],
                versions=GRID["versions"],
                scale=GRID["scale"],
                workers=(server.address,),
            )
        finally:
            server.stop()
        assert out.to_json() == local_json

    @pytest.mark.timeout_guard(300)
    def test_remote_results_populate_journal(self, tmp_path, local_json):
        """Cells executed remotely checkpoint into the journal exactly
        like local ones — a coordinator death stays resumable."""
        server = WorkerServer()
        _serve(server)
        spec = CampaignSpec(**GRID)
        try:
            Campaign(spec, workers=[server.address]).run(
                jobs=1, journal_dir=tmp_path / "journal"
            )
        finally:
            server.stop()
        resumed = Campaign.resume(tmp_path / "journal")
        out = resumed.run(jobs=1)
        assert out.to_json() == local_json
        assert resumed.report.replayed == 4
        assert resumed.report.executed == 0


# ---------------------------------------------------------------------------
# hostile and broken peers, budgets and the data-only codec
# ---------------------------------------------------------------------------


def _garbling_worker() -> socket.socket:
    """A peer that passes the handshake, then answers every chunk with
    a result that does not parse.  Close the returned listener to stop
    it."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve() -> None:
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            with conn, contextlib.suppress(ProtocolError, OSError):
                recv_message(conn)
                send_message(conn, Handshake.local().to_message())
                while (message := recv_message(conn))["kind"] == "chunk":
                    send_message(
                        conn,
                        {"kind": "result", "id": message["id"], "groups": [[{"run": {}}]],
                         "perf": {}, "prepriced": 0},
                    )

    threading.Thread(target=serve, daemon=True).start()
    return listener


class TestHostilePeers:
    @pytest.mark.timeout_guard(300)
    def test_pickle_frame_never_runs_on_worker(self, tmp_path, local_json):
        """A pickle frame sent after the handshake is refused unread; the
        worker drops that connection and serves the next campaign."""
        server = WorkerServer()
        _serve(server)
        marker = tmp_path / "marker"
        try:
            conn = _handshaken(server)
            conn.sendall(_pickle_frame(marker))
            _assert_dropped(conn)
            campaign = Campaign(CampaignSpec(**GRID), workers=[server.address])
            out = campaign.run(jobs=1).to_json()
        finally:
            server.stop()
        assert not marker.exists()
        assert out == local_json
        assert campaign.report.degraded == ()

    @pytest.mark.timeout_guard(300)
    def test_malformed_chunk_drops_one_connection(self, local_json):
        """A chunk frame without an ``id`` is a protocol violation: the
        worker drops that connection and keeps serving."""
        server = WorkerServer()
        _serve(server)
        try:
            conn = _handshaken(server)
            send_message(conn, {"kind": "chunk", "preprice": True, "groups": []})
            _assert_dropped(conn)
            campaign = Campaign(CampaignSpec(**GRID), workers=[server.address])
            out = campaign.run(jobs=1).to_json()
        finally:
            server.stop()
        assert out == local_json
        assert campaign.report.degraded == ()
        assert server.chunks_served >= 1

    @pytest.mark.timeout_guard(300)
    def test_malformed_result_is_a_lost_worker(self):
        """Results that do not parse fail the link, never the engine:
        every cell goes down the retry ladder and its probe, on the same
        broken peer, convicts it."""
        listener = _garbling_worker()
        sink = ListTraceSink()
        spec = CampaignSpec(**GRID)
        campaign = Campaign(
            spec,
            trace=sink,
            retries=1,
            workers=["127.0.0.1:%d" % listener.getsockname()[1]],
        )
        try:
            results = campaign.run(jobs=1)
        finally:
            listener.close()
        assert len(results.results) == spec.size
        for run in results.results.values():
            assert run.crashed
            assert "malformed result" in run.diagnostics["traceback"]
        lost = [e for e in sink.events if e.event == "worker_lost"]
        assert lost
        assert all("malformed result" in e.detail["reason"] for e in lost)

    @pytest.mark.timeout_guard(300)
    def test_remote_crash_keeps_traceback(self, tmp_path):
        """A crash on a worker comes back with its traceback, on the run
        and on the ``run_crashed`` trace event."""
        server = WorkerServer()
        _serve(server)
        sink = ListTraceSink()
        campaign = Campaign(CampaignSpec(**GRID), trace=sink, workers=[server.address])
        with faults.injected(
            faults.FaultSpec(benchmark="vecop", version="OpenCL", mode="raise", times=-1),
            state_dir=tmp_path / "state",
        ):
            try:
                results = campaign.run(jobs=1)
            finally:
                server.stop()
        run = results.results[("vecop", Version.OPENCL, Precision.SINGLE)]
        assert run.crashed
        assert "InjectedCrash" in run.diagnostics["traceback"]
        crashed = [e for e in sink.events if e.event == "run_crashed"]
        assert len(crashed) == 1
        assert "InjectedCrash" in crashed[0].detail["traceback"]
        assert campaign.report.degraded == ()

    @pytest.mark.timeout_guard(120)
    def test_deadline_not_held_up_by_busy_workers(self, tmp_path):
        """At the deadline the pool cuts the chunk a worker is still
        busy with instead of waiting it out."""
        servers = [WorkerServer(), WorkerServer()]
        _serve(*servers)
        sink = ListTraceSink()
        deadline_s = 3.0
        campaign = Campaign(
            CampaignSpec(**GRID),
            deadline_s=deadline_s,
            trace=sink,
            workers=[s.address for s in servers],
        )
        with faults.injected(
            faults.FaultSpec(benchmark="red", mode="hang", times=-1, seconds=20.0),
            state_dir=tmp_path / "state",
        ):
            t0 = time.monotonic()
            try:
                with pytest.raises(DeadlineExceeded):
                    campaign.run(jobs=1)
            finally:
                for s in servers:
                    s.stop()
            elapsed = time.monotonic() - t0
        assert elapsed < deadline_s + 5.0
        assert set(campaign.salvage.results) == {
            ("vecop", version, Precision.SINGLE) for version in GRID["versions"]
        }
        assert sink.events[-1].event == "campaign_failed"

    def test_platform_spec_refused_with_workers(self):
        """Workers run the default platform only: a platform object has
        no data form for the wire."""
        spec = CampaignSpec(**GRID, platform=default_platform())
        with pytest.raises(ValueError, match="default platform"):
            Campaign(spec, workers=["127.0.0.1:1"])
