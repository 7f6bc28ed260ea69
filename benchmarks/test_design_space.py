"""Design-space hypercube throughput: stacked config axis vs facade loop.

Builds the full SP+DP cell grid once (every benchmark × precision CPU
Serial/OpenMP cell plus every distinct launch of every compilable
autotuner candidate's declared iteration as a GPU launch cell) and
prices a 64-point SoC design space two ways:

* **stacked** — :meth:`repro.designspace.DesignSpace.stacked_rows` per
  config: the GPU/CPU config stacks hoist every config-invariant
  quantity at build time, so each config costs a few whole-grid NumPy
  timing passes plus :func:`repro.power.rails.stack_watts` over its
  picked candidates' commands and its CPU lanes;
* **facade loop** — ``facade_rows`` of ``tests/pricing_oracle.py`` per
  config: every cell of every SoC priced one by one through the scalar
  reference models, and every Opt candidate's declared launches and
  fills summed in enqueue order, the loop the stacks replace.

Every row is bitwise-identical between the two (asserted below and in
``tests/property/test_grid_pricing_identity.py``, including the
register-exhaustion infeasible lanes): the launch and candidate timing
lanes, each group's Opt pick with its seconds, watts, energy and
feasibility, and the CPU lanes.  So the speedup is pure
evaluation-strategy win.  The in-test floor matches the acceptance
criterion (≥8× over ≥64 configs); the committed
``BENCH_design_space.json`` at the repo root records the full-scale
number (see EXPERIMENTS.md).

The stack build itself (compiles + hoisting) is shared by both paths
and excluded from the timed region — a design-space sweep pays it once
— but is recorded as ``space_build_s``.

Regenerate with::

    PYTHONPATH=src python -m pytest benchmarks/test_design_space.py \
        --benchmark-only --benchmark-json=BENCH_design_space.json
"""

import os
import time

import numpy as np

from repro import perf
from repro.calibration.socspace import default_space
from repro.designspace import DesignSpace
from tests.pricing_oracle import facade_rows

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
ROUNDS = 7
SPEEDUP_FLOOR = 8.0


def _build_space():
    t0 = time.perf_counter()
    space = DesignSpace(scale=SCALE)
    build_s = time.perf_counter() - t0
    return space, default_space(), build_s


def _rows_bitwise_equal(a, b) -> bool:
    for field in a.__slots__:
        x, y = np.asarray(getattr(a, field)), np.asarray(getattr(b, field))
        if x.dtype == np.float64:
            if not np.array_equal(x.view(np.uint64), y.view(np.uint64)):
                return False
        elif not np.array_equal(x, y):
            return False
    return True


def test_design_space_stacked(benchmark):
    """64 configs x the full SP+DP grid through the config stacks."""
    space, configs, build_s = _build_space()
    rows = benchmark.pedantic(
        lambda: [space.stacked_rows(c) for c in configs],
        rounds=ROUNDS,
        iterations=1,
    )
    benchmark.extra_info["scale"] = SCALE
    benchmark.extra_info["configs"] = len(configs)
    benchmark.extra_info["gpu_cells"] = len(space.gpu_cells)
    benchmark.extra_info["cpu_cells"] = len(space.cpu_cells)
    benchmark.extra_info["space_build_s"] = round(build_s, 4)
    assert len(rows) == len(configs)


def test_design_space_facade_loop(benchmark):
    """The same configs through the per-cell scalar references."""
    space, configs, _ = _build_space()
    rows = benchmark.pedantic(
        lambda: [facade_rows(space, c) for c in configs],
        setup=perf.reset,
        rounds=ROUNDS,
        iterations=1,
    )
    benchmark.extra_info["scale"] = SCALE
    benchmark.extra_info["configs"] = len(configs)
    assert len(rows) == len(configs)


def test_design_space_speedup_and_identity(benchmark):
    """Stacked ≥8× the facade loop over ≥64 configs, rows bitwise equal.

    This is the PR's acceptance criterion, run at reduced scale in CI
    (``REPRO_BENCH_SCALE``); the committed ``BENCH_design_space.json``
    records the scale-1.0 number.
    """
    space, configs, build_s = _build_space()
    assert len(configs) >= 64

    perf.reset()
    t0 = time.perf_counter()
    reference_rows = [facade_rows(space, c) for c in configs]
    facade_s = time.perf_counter() - t0

    stacked_rows = benchmark.pedantic(
        lambda: [space.stacked_rows(c) for c in configs],
        rounds=ROUNDS,
        iterations=1,
    )
    stacked_s = benchmark.stats.stats.min

    for config, s, f in zip(configs, stacked_rows, reference_rows):
        assert _rows_bitwise_equal(s, f), config.name
    speedup = facade_s / stacked_s
    benchmark.extra_info["scale"] = SCALE
    benchmark.extra_info["configs"] = len(configs)
    benchmark.extra_info["n_cells"] = len(space.gpu_cells) + len(space.cpu_cells)
    benchmark.extra_info["space_build_s"] = round(build_s, 4)
    benchmark.extra_info["facade_loop_s"] = round(facade_s, 4)
    benchmark.extra_info["stacked_s_per_config"] = round(stacked_s / len(configs), 6)
    benchmark.extra_info["speedup_vs_facade_loop"] = round(speedup, 2)
    assert speedup >= SPEEDUP_FLOOR
