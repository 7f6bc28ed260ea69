"""One fresh-interpreter sample of a perfbench workload.

``run.py`` starts this script once per sample and reads back the JSON
it writes to ``--out``.  The sample times ``import repro`` and the
workload's set-up from interpreter start, runs the timed operation
once, then checks the outputs.  ``--role prep`` runs the workload's
untimed reference pass instead.  With ``--trace 1`` the perfbench
wrappers are installed after the import and removed before the check;
spans are written to ``<work>/spans-<index>*.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--role", choices=("prep", "sample"), default="sample")
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before starting this process")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    out: dict = {"role": args.role, "index": args.index}
    workers = None
    if args.workload == "grid_distributed" and args.role == "sample":
        from worker import Workers

        spans = None
        if args.trace:
            spans = [args.work / f"spans-{args.index}-w{i}.jsonl" for i in range(2)]
            out["worker_spans"] = [str(p) for p in spans]
        workers = Workers.spawn(2, spans)
    try:
        start = time.perf_counter()
        import repro  # noqa: F401 — timed: what every CLI verb pays

        out["import_s"] = time.perf_counter() - start

        import workloads

        ctx = workloads.Context(seed=args.seed, work=args.work, index=args.index, workers=workers)
        workload = workloads.WORKLOADS[args.workload]()
        if args.role == "prep":
            out["op_s"], check = workload.prepare(ctx)
        else:
            check = _sample(args, workload, ctx, out)
    finally:
        if workers is not None:
            out["worker_peak_rss_mb"] = workers.stop()
            out["worker_ready_s"] = workers.ready_s() if all(workers.ready_at) else []
    # the memory the op needed: its own process plus every worker it used
    out["peak_rss_mb"] = out.get("peak_rss_mb", 0.0) + sum(out.get("worker_peak_rss_mb", []))
    out.update(
        attempted=check.attempted,
        problems=check.problems,
        digests=check.digests,
        fidelity=check.fidelity,
        extras=check.extras,
    )
    if args.index == 0:
        out["versions"] = _versions()
    args.out.write_text(json.dumps(out))
    return 0


def _sample(args, workload, ctx, out: dict):
    """Set up, then run and check the op; fills the timings into ``out``."""
    import tracing

    recorder = tracing.Recorder() if args.trace else None
    installation = tracing.install(recorder) if recorder is not None else None
    try:
        if recorder is not None:
            recorder.call("setup", workload.setup, (ctx,), {})
        else:
            workload.setup(ctx)
        out["setup_s"] = time.monotonic() - args.spawned_at
        start = time.perf_counter()
        if recorder is not None:
            output = recorder.call("op", workload.op, (), {})
            recorder.active = False
        else:
            output = workload.op()
        out["op_s"] = time.perf_counter() - start
        # the op phase's high-water mark, before the check allocates
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check = workload.check(ctx, output)
    finally:
        if installation is not None:
            installation.remove()
    if recorder is not None:
        spans = args.work / f"spans-{args.index}.jsonl"
        recorder.dump(spans)
        out["spans"] = str(spans)
        out["wrappers_left"] = tracing.installed_wrappers()
        out["wrapper_cost_s"] = tracing.wrapper_cost()
    return check


def _versions() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


if __name__ == "__main__":
    sys.exit(main())
