#!/usr/bin/env python
"""Checkpoint/resume: a SIGKILLed campaign finishes from its journal.

This script demonstrates — and CI smoke-tests — the durable campaign
journal end to end, on real processes:

1. runs the campaign cleanly once to establish the reference bytes;
2. re-launches itself as a *child* process (``--child``) that runs the
   same campaign with ``journal_dir=`` and is rigged (via the fault
   injection hooks) to hang partway through the grid;
3. watches the journal from the parent and, once roughly half the
   cells are checkpointed, SIGKILLs the child — the hardest failure a
   campaign can suffer: no exception handler runs, no salvage, nothing
   but the fsync'd journal survives;
4. finishes the campaign with the real CLI verb
   (``python -m repro resume <dir> --save ...``) and checks that the
   output is **byte-identical** to the uninterrupted run and that no
   checkpointed cell was executed twice.

Run:  python examples/resume_campaign.py [--scale 0.02] [--jobs 2]
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro import Campaign, CampaignSpec, Version
from repro.experiments import read_journal

GRID = dict(benchmarks=("vecop", "red"), versions=(Version.SERIAL, Version.OPENCL))
#: the cell the child stalls on (canonical order puts it at the halfway
#: point of the 4-cell grid, so the journal holds ~50% at kill time)
STALL = ("red", Version.SERIAL.value)


def spec_for(scale: float) -> CampaignSpec:
    return CampaignSpec(scale=scale, **GRID)


def child(args) -> int:
    """Journaled campaign rigged to hang at the stall cell forever."""
    from repro.experiments.faults import FaultSpec, install

    install(
        [FaultSpec(benchmark=STALL[0], version=STALL[1], mode="hang",
                   times=-1, seconds=600.0)],
        state_dir=tempfile.mkdtemp(prefix="repro-faults-"),
    )
    Campaign(spec_for(args.scale)).run(jobs=args.jobs, journal_dir=args.journal_dir)
    return 0  # pragma: no cover - the parent kills us first


def finished_cells(journal_dir: Path) -> list[tuple[str, str, str]]:
    try:
        records = read_journal(journal_dir)
    except FileNotFoundError:
        return []
    return [
        (r["benchmark"], r["version"], r["precision"])
        for r in records
        if r.get("event") == "cell_finished"
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.02)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--journal-dir", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args)

    spec = spec_for(args.scale)
    kill_at = spec.size // 2
    print(f"grid: {spec.size} cells, {args.jobs} jobs; "
          f"killing the campaign after {kill_at} checkpoints\n")

    # 1. the reference: one uninterrupted run
    clean = Campaign(spec).run(jobs=args.jobs).to_json()

    # 2-3. journaled child, SIGKILLed mid-grid
    work = Path(tempfile.mkdtemp(prefix="repro-resume-"))
    journal_dir = work / "journal"
    # the child leads its own process group: SIGKILL reaches only the
    # orchestrating process, and the pool workers it orphans are killed
    # with the group afterwards
    proc = subprocess.Popen(
        [sys.executable, __file__, "--child", f"--scale={args.scale}",
         f"--jobs={args.jobs}", f"--journal-dir={journal_dir}"],
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 240
        while time.monotonic() < deadline:
            if len(finished_cells(journal_dir)) >= kill_at:
                break
            if proc.poll() is not None:
                raise RuntimeError("child finished before it could be killed")
            time.sleep(0.02)
        else:
            raise RuntimeError("journal never reached the kill point")
        proc.send_signal(signal.SIGKILL)
    finally:
        proc.kill()
        proc.wait()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # no orphaned workers left
    before = finished_cells(journal_dir)
    print(f"child SIGKILLed with {len(before)}/{spec.size} cells journaled")
    assert len(before) < spec.size, "kill landed too late to prove anything"

    # 4. finish with the CLI verb, compare bytes, audit re-execution
    resumed_path = work / "resumed.json"
    subprocess.run(
        [sys.executable, "-m", "repro", "resume", str(journal_dir),
         "--no-cache", f"--jobs={args.jobs}", "--save", str(resumed_path)],
        env=dict(os.environ),
        check=True,
        timeout=240,
    )
    resumed = resumed_path.read_text()
    assert resumed == clean, "resumed ResultSet differs from the clean run"
    assert len(json.loads(resumed)["runs"]) == spec.size

    after = finished_cells(journal_dir)
    reexecuted = set(before) & set(after[len(before):])
    assert not reexecuted, f"checkpointed cells ran twice: {sorted(reexecuted)}"
    print(f"resume executed {len(after) - len(before)} remaining cells, "
          f"replayed {len(before)} from the journal")
    print("byte-identical to the uninterrupted run")
    print("resume campaign smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
