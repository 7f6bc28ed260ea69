"""Cold-grid pricing throughput: batched ``repro.pricing`` vs scalar.

Builds the full SP+DP pricing grid — every benchmark × precision CPU
Serial/OpenMP cell plus every compilable (options, local size) point of
every tuning space as GPU launch cells — and times pricing the whole
set two ways:

* **batched** — a fresh ``PlatformPricing`` facade per round (cold
  vectorized tables, cold memo lane via ``perf.reset``), one
  ``price(cells)`` call per layer;
* **scalar** — the per-cell one-shot entry points ``time_serial`` /
  ``time_openmp`` / ``time_launch`` under an equally cold memo: the
  cost profile of the pre-batching campaign, which priced every grid
  cell through a fresh throwaway pricer (per-cell content-key hoists,
  per-cell tables, per-cell memo traffic).

Both paths produce bitwise-identical rows (asserted below and in
``tests/property/test_pricing_bitwise.py``); the raw model-walk time of
the scalar references of ``tests/pricing_oracle.py`` is recorded as
``reference_walk_s`` for context.  The speedup test asserts the CI
floor (≥3×); the committed ``BENCH_cold_grid.json`` at the repo root
records the full-scale number (see EXPERIMENTS.md).

"Cold" means the priced-results memo is empty (``perf.reset`` before
every round) and every facade, pricer, and warmed slice is rebuilt.
Process-level *derived-constant* caches are deliberately outside the
reset: memo-key tokens, mix columns, and per-stream-mix traffic tables
are pure functions of the compiled kernels and the frozen calibration
configs — state a campaign derives once, never per candidate — and the
scalar baseline path shares the same caches through the same code.

The headline acceptance number compares against the *PR-5 baseline*:
the previous committed revision checked out into a scratch worktree and
timed pricing this same grid through its per-cell entry points
(``time_serial``/``time_openmp``/``time_launch``, cold memo, min of
rounds).  Export that measurement as ``REPRO_PR5_BASELINE_S`` when
regenerating and it is recorded in ``extra_info`` as
``speedup_vs_pr5_baseline``; see EXPERIMENTS.md for the measured value
and methodology.

Regenerate with::

    PYTHONPATH=src REPRO_PR5_BASELINE_S=<seconds> python -m pytest \
        benchmarks/test_cold_grid.py \
        --benchmark-only --benchmark-json=BENCH_cold_grid.json
"""

import os
import time

from repro import PAPER_ORDER, perf
from repro.benchmarks.base import Precision, cpu_pricing_inputs
from repro.benchmarks.registry import create
from repro.calibration.exynos5250 import default_platform
from repro.compiler.pipeline import compile_kernel
from repro.cpu.openmp import time_openmp
from repro.cpu.serial import time_serial
from repro.mali.timing import time_launch
from repro.ocl.driver import default_quirks, driver_local_size
from repro.pricing import MODE_OPENMP, MODE_SERIAL, CpuCell, GpuLaunchCell
from tests.pricing_oracle import (
    time_launch_reference,
    time_openmp_reference,
    time_serial_reference,
)

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
#: seconds the PR-5 revision took on this grid (measured out-of-band in
#: a worktree of the previous commit; see module docstring)
PR5_BASELINE_S = os.environ.get("REPRO_PR5_BASELINE_S")
PRECISIONS = (Precision.SINGLE, Precision.DOUBLE)
ROUNDS = 7


def _build_cells():
    """The full SP+DP grid as pricing cells (compiles done up front)."""
    platform = default_platform()
    quirks = (
        platform.driver_quirks
        if platform.driver_quirks is not None
        else default_quirks()
    )
    cpu_cells, gpu_cells = [], []
    n_infeasible = 0
    for name in PAPER_ORDER:
        for precision in PRECISIONS:
            bench = create(name, precision=precision, scale=SCALE, platform=platform)
            _, mix, traits, n = cpu_pricing_inputs(bench)
            cpu_cells.append(CpuCell(mix=mix, mode=MODE_SERIAL, n_elements=n, traits=traits))
            cpu_cells.append(CpuCell(mix=mix, mode=MODE_OPENMP, n_elements=n, traits=traits))
            compiled_cache = {}
            traits_cache = {}
            for options, local in bench.tuning_space():
                key = options.describe()
                if key not in compiled_cache:
                    try:
                        compiled_cache[key] = compile_kernel(
                            bench.kernel_ir(options), options, quirks=quirks
                        )
                    except Exception:  # noqa: BLE001 — infeasible candidate
                        compiled_cache[key] = None
                    else:
                        traits_cache[key] = bench.gpu_traits(options)
                compiled = compiled_cache[key]
                if compiled is None:
                    n_infeasible += 1
                    continue
                base_items = max(1, -(-bench.elements() // compiled.elems_per_item))
                local = local or driver_local_size(
                    base_items, platform.mali.max_work_group_size
                )
                n_items = -(-base_items // local) * local
                gpu_cells.append(
                    GpuLaunchCell(
                        compiled=compiled,
                        traits=traits_cache[key],
                        n_items=n_items,
                        local_size=local,
                    )
                )
    return platform, cpu_cells, gpu_cells, n_infeasible


def _price_batched(platform, cpu_cells, gpu_cells):
    """One vectorized pass per layer through a cold facade."""
    pricing = platform.pricing_model()
    return pricing.cpu.price(cpu_cells) + pricing.gpu.price(gpu_cells)


def _price_scalar(platform, cpu_cells, gpu_cells):
    """The pre-batching cost profile: one one-shot entry point per cell.

    ``perf.reset()`` makes the memo lane exactly as cold as the batched
    rounds see it; each call then pays the full per-cell price the old
    campaign paid — throwaway pricer construction included.
    """
    perf.reset()
    dram = platform.dram_model()
    cpu_caches = platform.cpu_caches()
    gpu_caches = platform.gpu_caches()
    rows = []
    for cell in cpu_cells:
        fn = time_serial if cell.mode == MODE_SERIAL else time_openmp
        rows.append(
            fn(cell.mix, cell.n_elements, cell.traits, platform.cpu, dram, cpu_caches)
        )
    for cell in gpu_cells:
        rows.append(
            time_launch(
                cell.compiled,
                cell.n_items,
                cell.local_size,
                cell.traits,
                platform.mali,
                dram,
                gpu_caches,
            )
        )
    return tuple(rows)


def _price_reference_walk(platform, cpu_cells, gpu_cells):
    """The raw scalar model walks, no pricers, no memo (context number)."""
    dram = platform.dram_model()
    cpu_caches = platform.cpu_caches()
    gpu_caches = platform.gpu_caches()
    rows = []
    with perf.disabled():
        for cell in cpu_cells:
            fn = time_serial_reference if cell.mode == MODE_SERIAL else time_openmp_reference
            rows.append(
                fn(cell.mix, cell.n_elements, cell.traits, platform.cpu, dram, cpu_caches)
            )
        for cell in gpu_cells:
            rows.append(
                time_launch_reference(
                    cell.compiled,
                    cell.n_items,
                    cell.local_size,
                    cell.traits,
                    platform.mali,
                    dram,
                    gpu_caches,
                )
            )
    return tuple(rows)


def test_cold_grid_batched(benchmark):
    """Full SP+DP cell set through the batched models, cold every round."""
    platform, cpu_cells, gpu_cells, n_infeasible = _build_cells()
    rows = benchmark.pedantic(
        lambda: _price_batched(platform, cpu_cells, gpu_cells),
        setup=perf.reset,
        rounds=ROUNDS,
        iterations=1,
    )
    benchmark.extra_info["scale"] = SCALE
    benchmark.extra_info["cpu_cells"] = len(cpu_cells)
    benchmark.extra_info["gpu_cells"] = len(gpu_cells)
    benchmark.extra_info["infeasible_candidates"] = n_infeasible
    assert len(rows) == len(cpu_cells) + len(gpu_cells)


def test_cold_grid_scalar(benchmark):
    """The same cell set through the per-cell entry points (the baseline)."""
    platform, cpu_cells, gpu_cells, _ = _build_cells()
    rows = benchmark.pedantic(
        lambda: _price_scalar(platform, cpu_cells, gpu_cells),
        rounds=ROUNDS,
        iterations=1,
    )
    benchmark.extra_info["scale"] = SCALE
    assert len(rows) == len(cpu_cells) + len(gpu_cells)


def test_cold_grid_speedup_and_identity(benchmark):
    """Batched ≥3× the per-cell cold path (CI floor), rows bitwise equal.

    The recorded ``speedup_vs_scalar`` is the headline number; the
    in-test floor stays conservative so shared CI runners don't flake.
    """
    platform, cpu_cells, gpu_cells, _ = _build_cells()

    t0 = time.perf_counter()
    scalar_rows = _price_scalar(platform, cpu_cells, gpu_cells)
    scalar_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    reference_rows = _price_reference_walk(platform, cpu_cells, gpu_cells)
    reference_s = time.perf_counter() - t0

    perf.reset()
    batched_rows = benchmark.pedantic(
        lambda: _price_batched(platform, cpu_cells, gpu_cells),
        setup=perf.reset,
        rounds=ROUNDS,
        iterations=1,
    )
    batched_s = benchmark.stats.stats.min

    assert batched_rows == scalar_rows  # every row, bitwise
    assert batched_rows == reference_rows  # and vs the raw model walks
    speedup = scalar_s / batched_s
    benchmark.extra_info["scale"] = SCALE
    benchmark.extra_info["n_cells"] = len(cpu_cells) + len(gpu_cells)
    benchmark.extra_info["scalar_s"] = round(scalar_s, 4)
    benchmark.extra_info["reference_walk_s"] = round(reference_s, 4)
    benchmark.extra_info["speedup_vs_scalar"] = round(speedup, 2)
    benchmark.extra_info["speedup_vs_reference_walk"] = round(reference_s / batched_s, 2)
    if PR5_BASELINE_S is not None:
        pr5_s = float(PR5_BASELINE_S)
        benchmark.extra_info["pr5_baseline_s"] = pr5_s
        benchmark.extra_info["speedup_vs_pr5_baseline"] = round(pr5_s / batched_s, 2)
    assert speedup >= 3.0
