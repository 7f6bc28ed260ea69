#!/usr/bin/env python
"""Autotuning: sweep vector sizes and work-group sizes like the paper.

§III-B: "we suggest, whenever the code allows it, to experiment with
different vector sizes (e.g. size of 4, 8, 16)" — and §III-A: tune the
local work size by hand.  This example runs the tuner for each
benchmark, shows the sweep (including candidates that die with
``CL_OUT_OF_RESOURCES``), and compares single vs double precision: in
double precision more of the aggressive points fail, which is exactly
how the paper's Figure 2(b) Opt bars collapse for nbody/2dcon.

Run:  python examples/autotune_example.py [benchmark ...]
"""

import sys

from repro import PAPER_ORDER, Precision, create
from repro.optimizations.autotune import sweep


def show(name: str, precision: Precision) -> None:
    bench = create(name, precision=precision, scale=0.5)
    result = sweep(bench)
    feasible = [t for t in result.trials if t.feasible]
    print(f"\n=== {name} [{precision.label}]: "
          f"{len(result.trials)} candidates, {result.n_infeasible} infeasible ===")
    for trial in sorted(feasible, key=lambda t: t.seconds)[:5]:
        local = "driver" if trial.local_size is None else f"L={trial.local_size}"
        print(f"  {trial.seconds * 1e3:8.3f} ms  {trial.options.describe():24s} {local}")
    dead = [t for t in result.trials if t.error is not None]
    for trial in dead[:3]:
        print(f"   FAILED   {trial.options.describe():24s} -> {trial.error[:60]}...")
    best = result.best
    print(f"  winner: {best.options.describe()} "
          f"(local {'driver' if best.local_size is None else best.local_size})")


def main() -> None:
    names = sys.argv[1:] or ["vecop", "red", "dmmm", "2dcon", "nbody"]
    for name in names:
        if name not in PAPER_ORDER:
            print(f"unknown benchmark {name!r}; choose from {', '.join(PAPER_ORDER)}")
            return
        show(name, Precision.SINGLE)
        if name != "amcd":  # DP amcd does not compile at all (driver defect)
            show(name, Precision.DOUBLE)


if __name__ == "__main__":
    main()
