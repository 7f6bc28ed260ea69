"""perfbench: end-to-end and per-layer host-time benchmark of repro.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid_cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload grid_cold --seed 1 --trace 1

Each sample runs in a fresh interpreter (``perfbench/sample.py``) so
``import repro`` and every lazy set-up are paid as a user pays them.
An untraced run samples until ``--seconds`` have passed (at least
:data:`MIN_SAMPLES` times) and reports the end-to-end metrics; a traced
run (``--trace 1``) makes one untraced and one traced sample and
reports the per-layer split.  Every run checks the program's outputs;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import metrics
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("grid_cold", "design_space", "grid_distributed")
#: workloads whose samples compare against a reference pass
NEEDS_PREP = frozenset({"grid_distributed"})
#: fewest samples in an untraced run.  grid_distributed takes more: its
#: run_s and memory depend on which families each worker pulls, and that
#: placement changes from sample to sample
MIN_SAMPLES = {"grid_cold": 3, "design_space": 3, "grid_distributed": 5}
#: every run of one workload must end within this many seconds
RUN_DEADLINE_S = 170.0


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a correctness failure)."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def _spawn(name: str, seed: int, work: Path, deadline: float, *, role: str = "sample",
           index: int = 0, trace: int = 0) -> dict:
    """Run one sample process to completion and return what it wrote."""
    out = work / f"{role}-{index}-{trace}.json"
    stamp = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "sample.py"),
        "--workload", name, "--seed", str(seed), "--role", role,
        "--index", str(index), "--work", str(work), "--out", str(out),
        "--trace", str(trace), "--spawned-at", repr(stamp),
    ]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_env(), stdin=subprocess.DEVNULL, stdout=sys.stderr,
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise HarnessError(f"{name} {role} {index} overran the run deadline") from None
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise HarnessError(f"{name} {role} {index} exited with status {code}")
    return json.loads(out.read_text())


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """All samples of one run, summarized."""
    work = WORK / f"{name}-{seed}-{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        prep = _spawn(name, seed, work, deadline, role="prep") if name in NEEDS_PREP else None
        if trace:
            samples = [
                _spawn(name, seed, work, deadline, index=0, trace=0),
                _spawn(name, seed, work, deadline, index=1, trace=1),
            ]
            samples[1]["loaded_spans"] = [
                tracing.load(path) for path in [samples[1]["spans"], *samples[1].get("worker_spans", [])]
            ]
        else:
            samples = []
            start = time.monotonic()
            while len(samples) < MIN_SAMPLES[name] or time.monotonic() - start < seconds:
                samples.append(_spawn(name, seed, work, deadline, index=len(samples)))
        return summarize(name, seed, trace, prep, samples)
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


def _problems(prep: dict | None, samples: list[dict]) -> list[str]:
    problems = []
    for child in ([prep] if prep else []) + samples:
        problems += [f"{child['role']} {child['index']}: {p}" for p in child["problems"]]
        problems += [f"wrapper left installed: {w}" for w in child.get("wrappers_left", [])]
    for key in sorted({k for s in samples for k in s["digests"]}):
        values = {s["digests"][key] for s in samples if key in s["digests"]}
        if len(values) > 1:
            problems.append(f"{key}: samples of one seed disagree")
    return problems


def summarize(name: str, seed: int, trace: int, prep: dict | None, samples: list[dict]) -> dict:
    problems = _problems(prep, samples)
    attempted = sum(c["attempted"] for c in ([prep] if prep else []) + samples)
    summary = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "attempted": attempted,
        "failed": len(problems),
        "problems": problems,
        "digests": samples[0]["digests"],
        "fidelity": samples[0]["fidelity"],
        "versions": samples[0].get("versions", {}),
    }
    if trace:
        summary["metrics"], summary["splits"] = _per_layer(name, prep, *samples)
    else:
        samples_of = {
            "setup_s": [s["setup_s"] for s in samples],
            "run_s": [s["op_s"] for s in samples],
            "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
        }
        summary["metrics"] = {k: metrics.median(v) for k, v in samples_of.items()}
        summary["samples"] = samples_of
        if prep is not None and name == "grid_distributed":
            summary["parallel_eff"] = metrics.ratio(prep["op_s"], 2 * summary["metrics"]["run_s"])
        summary["worker_ready_s"] = [t for s in samples for t in s.get("worker_ready_s", [])]
    return summary


def _per_layer(name: str, prep: dict | None, plain: dict, traced: dict) -> tuple[dict, dict]:
    """Per-layer metrics of the traced sample, plus the phase splits that
    show where ``run_s`` and the set-up went."""
    processes = traced["loaded_spans"]  # the sample's own process, then each worker
    main_spans = processes[0][0]
    totals: dict[str, tracing.LayerTotal] = {}
    counters: dict[str, float] = {}
    splits: dict = {"tags": {}}
    for spans, process_counters in processes:
        for key, value in process_counters.items():
            counters[key] = counters.get(key, 0) + value
        for tag, self_s in tracing.tag_totals(spans).items():
            splits["tags"][tag] = splits["tags"].get(tag, 0.0) + self_s
        for span, total in tracing.layer_totals(spans).items():
            into = totals.setdefault(span, tracing.LayerTotal())
            into.self_s += total.self_s
            into.total_s += total.total_s
            into.calls += total.calls
    op = tracing.layer_totals(main_spans, under="op")
    splits["op"] = {span: t.self_s for span, t in op.items()}
    splits["setup"] = {span: t.self_s for span, t in tracing.layer_totals(main_spans, under="setup").items()}
    splits["workers"] = [sum(tracing.self_times(spans).values()) for spans, _ in processes[1:]]
    splits["run_s"] = sum(s.end - s.start for s in main_spans if s.name == "op" and s.parent is None)
    # wrapper cost x the spans on the op's critical path: the sample's
    # own op phase and the busier worker, which run alongside each other
    op_spans = sum(t.calls for t in op.values()) + max((len(s) for s, _ in processes[1:]), default=0)
    splits["wrapper_cost_s"] = traced["wrapper_cost_s"]

    def get(span: str) -> tracing.LayerTotal:
        return totals.get(span, tracing.LayerTotal())

    m: dict[str, float] = {"import.s": traced["import_s"]}
    m.update({metric: get(span).self_s for span, metric in metrics.SELF_TIME.items()})
    m.update({metric: get(span).calls for span, metric in metrics.CALLS.items()})
    m["perf.digest.mb"] = counters.get("perf.digest.bytes", 0) / 1e6
    m.update({key: traced["extras"].get(key, 0.0) for key in (
        *(f"perf.{cache}.hit_ratio" for cache in metrics.MEMO_CACHES),
        "designspace.priced_ratio", "experiments.remote.retries",
    )})
    m["optimizations.tune.evaluated_ratio"] = metrics.ratio(
        counters.get("optimizations.tune.evaluated", 0), counters.get("optimizations.tune.candidates", 0)
    )
    m["experiments.cache.hit_ratio"] = metrics.ratio(
        counters.get("experiments.cache.hits", 0), counters.get("experiments.cache.loads", 0)
    )
    m["experiments.cache.mb_written"] = counters.get("experiments.cache.bytes_written", 0) / 1e6
    m["experiments.journal.records"] = (
        get("experiments.journal.replay").calls + get("experiments.journal.write").calls
    )
    m["experiments.remote.dispatch_s"] = (
        get("experiments.remote.link").total_s - get("experiments.remote.execute").total_s
    )
    m["experiments.remote.worker_ready_s"] = max(plain.get("worker_ready_s") or [0.0])
    m["experiments.remote.parallel_eff"] = (
        metrics.ratio(prep["op_s"], 2 * plain["op_s"]) if name == "grid_distributed" else 0.0
    )
    m["experiments.protocol.mb"] = counters.get("experiments.protocol.bytes", 0) / 1e6
    m["trace.overhead_s"] = max(traced["wrapper_cost_s"], 0.0) * op_spans
    return {key: m[key] for key, _, _ in metrics.PER_LAYER}, splits


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _commit() -> str:
    """HEAD of the checkout's git metadata, without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(versions: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        **versions,
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(summary: dict) -> list[str]:
    """Human-readable lines for one run (all times are host seconds)."""
    name, trace = summary["workload"], summary["trace"]
    lines = [
        f"== {name}: seed {summary['seed']}, {'traced' if trace else 'untraced'},"
        f" closed loop, 1 client =="
    ]
    if trace:
        for key, unit, _ in metrics.PER_LAYER:
            lines.append(f"  {key:40s} {_fmt(summary['metrics'][key]):>12s} {unit}")
        splits = summary["splits"]
        for phase in ("setup", "op"):
            lines.append(f"  {phase} split (main thread, self s):")
            for span, value in sorted(splits[phase].items(), key=lambda kv: -kv[1]):
                lines.append(f"    {span:38s} {_fmt(value):>12s}")
        lines.append(
            f"  op self times sum to {_fmt(sum(splits['op'].values()))} s;"
            f" traced run_s {_fmt(splits['run_s'])} s"
        )
        for i, busy in enumerate(splits["workers"]):
            lines.append(f"  worker {i} busy (self s, all threads): {_fmt(busy)}")
        if splits["wrapper_cost_s"] > 0:
            lines.append(
                f"  trace.overhead_s is {_fmt(splits['wrapper_cost_s'] * 1e6)} us per recorded call"
                " times the spans on the op's critical path"
            )
        else:
            lines.append("  trace.overhead_s unresolved: a wrapped call timed no slower than a direct one")
        lines.append("  slowest cells and config chunks (self s):")
        for tag, value in sorted(splits["tags"].items(), key=lambda kv: -kv[1])[:8]:
            lines.append(f"    {tag:38s} {_fmt(value):>12s}")
    else:
        for key, unit, _ in metrics.END_TO_END:
            values = summary["samples"][key]
            tail = metrics.tail(values)
            tail_text = f"p{tail[0]:g} {_fmt(tail[1])}" if tail else "no percentile with 10 beyond"
            lines.append(
                f"  {key:12s} median {_fmt(summary['metrics'][key]):>10s} {unit:3s}"
                f" ({tail_text}; n={len(values)})"
            )
            if len(values) <= 12:
                lines.append(f"  {'':12s} samples {', '.join(_fmt(v) for v in values)}")
        if "parallel_eff" in summary:
            lines.append(f"  parallel_eff {_fmt(summary['parallel_eff'])} (inline / (2 x remote run_s))")
        if summary["worker_ready_s"]:
            lines.append(f"  worker ready s: {', '.join(_fmt(t) for t in summary['worker_ready_s'])}")
    share = metrics.ratio(summary["failed"], summary["attempted"])
    lines.append(f"  fail_share   {_fmt(share)} fraction ({summary['failed']} of {summary['attempted']})")
    for problem in summary["problems"][:20]:
        lines.append(f"    FAILED {problem}")
    fid = summary["fidelity"]
    if fid:
        lines.append(
            f"  fidelity.speedup_err {_fmt(fid['speedup_err'])} ratio, simulated"
            f" (mean Opt speedup {fid['opt_speedup_mean']:.3f}x vs the paper's 8.7x)"
        )
        lines.append(
            f"  fidelity.energy_err  {_fmt(fid['energy_err'])} ratio, simulated"
            f" (mean Opt energy ratio {fid['opt_energy_mean']:.3f} vs 0.32)"
        )
        lines.append(
            f"  fidelity.in_bracket  {fid['in_bracket']} cells of {fid['cells']}, simulated"
        )
    for key, digest in sorted(summary["digests"].items()):
        lines.append(f"  sha256 {key} {digest}")
    env = environment(summary["versions"])
    lines.append("  env " + " ".join(f"{k}={v}" for k, v in env.items()))
    return lines


def result_line(summary: dict) -> dict:
    """The contract's last line: exactly correct/attempted/failed/metrics."""
    units = metrics.PER_LAYER_UNITS if summary["trace"] else {k: u for k, u, _ in metrics.END_TO_END}
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {key: {"value": summary["metrics"][key], "unit": unit} for key, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="end-to-end and per-layer host-time benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    # byte-compile up front, so no sample pays for it inside setup_s
    compileall.compile_dir(SRC, quiet=2)
    try:
        summary = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report(summary)))
    line = result_line(summary)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
