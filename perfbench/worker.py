"""Loopback campaign workers for the grid_distributed workload.

Run as a script, this is the traced worker launcher: it installs the
perfbench wrappers, serves campaign chunks through
``repro.experiments.serve_worker`` until SIGINT, then removes the
wrappers and writes its spans::

    PYTHONPATH=src python3 perfbench/worker.py --spans worker.jsonl

:class:`Workers` is the coordinator side: it starts ``repro worker``
processes (or this launcher, when traced), waits for each to print
``worker listening on HOST:PORT`` and stops them again.  Importing this
module does not import ``repro``, so workers can start before the
coordinator's own ``import repro``.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
READY_PREFIX = "worker listening on "
STOP_TIMEOUT_S = 20.0


class Workers:
    """Worker processes on 127.0.0.1, started together, stopped together."""

    def __init__(self, procs: list[subprocess.Popen], started: list[float]) -> None:
        self.procs = procs
        self.started = started
        self.addresses: list[str | None] = [None] * len(procs)
        self.ready_at: list[float | None] = [None] * len(procs)
        self._ready = [threading.Event() for _ in procs]
        self._readers = [
            threading.Thread(target=self._drain, args=(i,), daemon=True)
            for i in range(len(procs))
        ]
        for reader in self._readers:
            reader.start()

    @classmethod
    def spawn(cls, n: int, spans: list[Path] | None = None) -> "Workers":
        """Start ``n`` workers; ``spans`` (one path each) makes them traced."""
        procs, started = [], []
        try:
            for i in range(n):
                if spans is None:
                    cmd = [sys.executable, "-m", "repro", "worker", "--host", "127.0.0.1", "--port", "0"]
                else:
                    cmd = [sys.executable, str(HERE / "worker.py"), "--spans", str(spans[i])]
                started.append(time.monotonic())
                procs.append(
                    subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
                )
        except BaseException:
            for proc in procs:
                proc.kill()
                proc.wait()
            raise
        return cls(procs, started)

    def _drain(self, i: int) -> None:
        """Read a worker's stdout to EOF, stamping its ready line."""
        for line in self.procs[i].stdout:
            if line.startswith(READY_PREFIX) and not self._ready[i].is_set():
                self.ready_at[i] = time.monotonic()
                self.addresses[i] = line[len(READY_PREFIX):].strip()
                self._ready[i].set()
        self._ready[i].set()  # EOF: wake a waiter even if never ready

    def wait_ready(self, timeout_s: float) -> list[str]:
        """Block until every worker announced its address."""
        deadline = time.monotonic() + timeout_s
        for i, event in enumerate(self._ready):
            event.wait(max(deadline - time.monotonic(), 0.0))
            if self.addresses[i] is None:
                raise RuntimeError(
                    f"worker {i} not ready after {timeout_s:g}s (exit code {self.procs[i].poll()})"
                )
        return list(self.addresses)

    def ready_s(self) -> list[float]:
        """Seconds from each worker's start until it was listening."""
        return [ready - start for ready, start in zip(self.ready_at, self.started)]

    def stop(self) -> list[float]:
        """SIGINT every worker, wait for each to exit (SIGKILL past the
        timeout), and return each worker's peak RSS in MB."""
        for proc in self.procs:
            if proc.returncode is None:
                os.kill(proc.pid, signal.SIGINT)
        deadline = time.monotonic() + STOP_TIMEOUT_S
        peaks = [_reap(proc, deadline) for proc in self.procs]
        for reader in self._readers:
            reader.join(timeout=STOP_TIMEOUT_S)
        for proc in self.procs:
            proc.stdout.close()
        return peaks


def _reap(proc: subprocess.Popen, deadline: float) -> float:
    """Wait for ``proc`` to exit, SIGKILL it past ``deadline``, and return
    its own peak RSS in MB (0 if something else already reaped it)."""
    while proc.returncode is None:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            proc.kill()
            deadline = float("inf")
        time.sleep(0.01)
    return 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write this worker's spans")
    args = parser.parse_args(argv)

    import repro.experiments as exp

    import tracing

    recorder = tracing.Recorder()
    installation = tracing.install(recorder)
    try:
        exp.serve_worker("127.0.0.1", 0, announce=lambda line: print(line, flush=True))
    except KeyboardInterrupt:
        pass
    finally:
        installation.remove()
        recorder.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
