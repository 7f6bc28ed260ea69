"""Check perfbench's run-to-run spread the way its acceptance does.

Runs one workload once per seed and prints, for every end-to-end
metric, the median of the run values and their quartile spread
``(Q3 - Q1) / median`` next to the metric's bound in BENCHMARK.json::

    python3 perfbench/spread.py --workload grid_cold --seeds 1-10 --out runs.jsonl

``--out`` keeps every run's result line (JSON lines) for the record.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="'1-10' or '3,5,8'")
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    values: dict[str, list[float]] = {}
    ok = True
    for seed in args.seeds:
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        wall = time.monotonic() - start
        if not proc.stdout.strip():
            print(f"seed {seed}: no result (exit {proc.returncode})\n{proc.stderr[-2000:]}")
            return 2
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and proc.returncode == 0 and line["correct"]
        print(
            f"seed {seed}: exit {proc.returncode}, {wall:.1f}s wall, failed {line['failed']}"
            f" of {line['attempted']}, "
            + ", ".join(f"{k} {v['value']:.6g}" for k, v in line["metrics"].items()),
            flush=True,
        )
        if args.out is not None:
            with args.out.open("a") as fh:
                fh.write(json.dumps({"seed": seed, "wall_s": wall, **line}) + "\n")
        for key, metric in line["metrics"].items():
            values.setdefault(key, []).append(metric["value"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for key, series in values.items():
        spread = metrics.quartile_spread(series) if len(series) > 1 else 0.0
        bound = bounds.get(key)
        verdict = "" if bound is None else f" (bound {bound}, a third {bound / 3:.3f})"
        print(f"{key}: median {metrics.median(series):.6g}, spread {spread:.4f}{verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
