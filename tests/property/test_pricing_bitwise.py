"""The pricing stacks and entry points are bitwise the scalar models.

The ``repro.pricing`` contract is not "close": every lane of a k-lane
config-axis stack (``CpuConfigStack``/``GpuConfigStack.timings()``) and
every row a pricing entry returns (``PlatformPricing.price_one`` for a
CPU cell, ``LaunchPricer.price`` for a launch) must equal, bit for bit,
what the scalar reference computes for that cell — including the DP
register-exhaustion occupancy collapse and the sequential-reduction
accumulation order.  These tests compare full result dataclasses with
``==`` (no ``approx``) for all nine benchmarks in both precisions.  The
references are the independent scalar models of
``tests/pricing_oracle.py``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import PAPER_ORDER, perf
from repro.benchmarks.base import Precision, cpu_pricing_inputs
from repro.benchmarks.registry import create
from repro.calibration.exynos5250 import default_platform
from repro.compiler.options import NAIVE, CompileOptions
from repro.compiler.pipeline import compile_kernel
from repro.cpu.pricing import CpuConfigStack
from repro.errors import ReproError
from repro.mali.timing import GpuConfigStack
from repro.ocl.driver import default_quirks
from repro.power.rails import Activity, ActivityKind
from repro.pricing import MODE_OPENMP, MODE_SERIAL, CpuCell, GpuLaunchCell
from tests.pricing_oracle import (
    time_launch_reference,
    time_openmp_reference,
    time_serial_reference,
)

#: DP benchmarks whose every GPU probe point fails to build: the
#: driver's FP64 defect on amcd (Figure 2(b)'s missing bars)
NO_DP_GPU = ("amcd",)
#: naive, a mid-width tuned point, and the register-hungry wide point
#: whose DP variant exercises the occupancy-collapse branch
GPU_OPTIONS = (
    NAIVE,
    CompileOptions(vector_width=4, unroll=2, qualifiers=True, soa=True),
    CompileOptions(vector_width=16, unroll=4, qualifiers=True, soa=True),
)


@pytest.fixture(autouse=True)
def _fresh_perf():
    perf.reset()
    yield
    perf.reset()


# ---------------------------------------------------------------------------
# CPU cells
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", PAPER_ORDER)
@pytest.mark.parametrize("precision", [Precision.SINGLE, Precision.DOUBLE])
def test_cpu_batched_equals_scalar(name, precision):
    """Serial and OpenMP cells at several element counts, as the lanes of
    one stack and one at a time through the CPU entry, equal the
    scalar references."""
    platform = default_platform()
    pricing = platform.pricing_model()
    bench = create(name, precision=precision, scale=0.1, platform=platform)
    _, mix, traits, n = cpu_pricing_inputs(bench)
    ns = (n, max(1, n // 3), 2 * n + 1)
    cells = [
        CpuCell(mix=mix, mode=mode, n_elements=k, traits=traits)
        for mode in (MODE_SERIAL, MODE_OPENMP)
        for k in ns
    ]
    lanes = CpuConfigStack(cells, platform.cpu, pricing.dram_model, pricing.cpu_caches).timings()
    for cell, lane in zip(cells, lanes, strict=True):
        scalar = time_serial_reference if cell.mode == MODE_SERIAL else time_openmp_reference
        expected = scalar(
            mix, cell.n_elements, traits, platform.cpu, pricing.dram_model, pricing.cpu_caches
        )
        assert lane == expected  # full CpuTiming, bitwise
        assert pricing.price_one(cell) == expected
    assert pricing.price(cells) == lanes


def test_cpu_rejects_unknown_mode_and_bad_n():
    platform = default_platform()
    pricing = platform.pricing_model()
    bench = create("vecop", scale=0.1, platform=platform)
    _, mix, traits, _ = cpu_pricing_inputs(bench)
    with pytest.raises(ValueError):
        CpuCell(mix=mix, mode="simd", n_elements=8, traits=traits)
    cell = CpuCell(mix=mix, mode=MODE_SERIAL, n_elements=0, traits=traits)
    with pytest.raises(ValueError):
        pricing.price_one(cell)


# ---------------------------------------------------------------------------
# GPU launches
# ---------------------------------------------------------------------------


def _gpu_cells(bench, pricing):
    """Every compilable (options, local) probe point of one benchmark."""
    quirks = (
        bench.platform.driver_quirks
        if bench.platform.driver_quirks is not None
        else default_quirks()
    )
    cells = []
    for options in GPU_OPTIONS:
        try:
            compiled = compile_kernel(bench.kernel_ir(options), options, quirks=quirks)
        except Exception:  # noqa: BLE001 — infeasible candidate (e.g. DP quirk)
            continue
        base_items = max(1, -(-bench.elements() // compiled.elems_per_item))
        traits = bench.gpu_traits(options)
        for local in (64, 128):
            n_items = -(-base_items // local) * local
            cells.append(
                GpuLaunchCell(
                    compiled=compiled,
                    traits=traits,
                    n_items=n_items,
                    local_size=local,
                )
            )
    return cells


def _gpu_stack(cells, platform, pricing):
    return GpuConfigStack(cells, platform.mali, pricing.dram_model, pricing.gpu_caches)


@pytest.mark.parametrize("name", PAPER_ORDER)
@pytest.mark.parametrize("precision", [Precision.SINGLE, Precision.DOUBLE])
def test_gpu_batched_equals_scalar(name, precision):
    """Every probe launch of a benchmark, as the lanes of one stack and
    one at a time through the launch entry, equals the scalar
    reference."""
    platform = default_platform()
    pricing = platform.pricing_model()
    bench = create(name, precision=precision, scale=0.1, platform=platform)
    cells = _gpu_cells(bench, pricing)
    if precision is Precision.DOUBLE and name in NO_DP_GPU:
        assert not cells
        return
    assert cells, "no compilable GPU probe points"
    lanes = _gpu_stack(cells, platform, pricing).timings()
    for cell, lane in zip(cells, lanes, strict=True):
        expected = time_launch_reference(
            cell.compiled,
            cell.n_items,
            cell.local_size,
            cell.traits,
            platform.mali,
            pricing.dram_model,
            pricing.gpu_caches,
        )
        assert lane == expected  # full GpuLaunchTiming, bitwise
        pricer = pricing.gpu.pricer(cell.compiled, cell.traits)
        assert pricer.price(cell.n_items, cell.local_size) == expected


def test_gpu_dp_wide_probe_compiles_somewhere():
    """The DP grid keeps at least one multi-width point alive, so the
    register-pressure path above is actually exercised."""
    platform = default_platform()
    pricing = platform.pricing_model()
    widths = set()
    for name in PAPER_ORDER:
        bench = create(name, precision=Precision.DOUBLE, scale=0.1, platform=platform)
        widths.update(c.compiled.options.vector_width for c in _gpu_cells(bench, pricing))
    assert any(w > 1 for w in widths)


# ---------------------------------------------------------------------------
# power traces
# ---------------------------------------------------------------------------


def test_power_rejects_all_zero_durations():
    board = default_platform().power_model()
    with pytest.raises(ValueError):
        board.trace([Activity(kind=ActivityKind.IDLE, duration_s=0.0)])


def test_dp_register_collapse_survives_in_rows():
    """DP wide kernels land in a different occupancy regime than SP; the
    batched rows must reproduce that collapse, not smooth it out."""
    platform = default_platform()
    pricing = platform.pricing_model()
    rows = {}
    for precision in (Precision.SINGLE, Precision.DOUBLE):
        bench = create("nbody", precision=precision, scale=0.1, platform=platform)
        cells = [
            c for c in _gpu_cells(bench, pricing)
            if c.compiled.options.vector_width > 1 and c.local_size == 128
        ]
        if cells:
            rows[precision] = _gpu_stack(cells, platform, pricing).timings()
    for precision, priced in rows.items():
        for row in priced:
            assert dataclasses.asdict(row)  # rows are real dataclasses
            assert row.seconds > 0.0


# ---------------------------------------------------------------------------
# the one-kernel LaunchPricer is the scalar model, bit for bit
# ---------------------------------------------------------------------------


class TestLaunchPricerBitwise:
    @pytest.mark.parametrize("name", PAPER_ORDER)
    @pytest.mark.parametrize("precision", (Precision.SINGLE, Precision.DOUBLE))
    def test_vectorized_equals_scalar_reference(self, name, precision):
        from repro.mali.timing import LaunchPricer
        from repro.ocl.driver import driver_local_size

        bench = create(name, precision=precision, scale=0.05)
        quirks = (
            bench.platform.driver_quirks
            if bench.platform.driver_quirks is not None
            else default_quirks()
        )
        checked = 0
        for options, local in bench.tuning_space():
            try:
                compiled = compile_kernel(bench.kernel_ir(options), options, quirks=quirks)
            except ReproError:
                continue
            base_items = max(1, -(-bench.elements() // compiled.elems_per_item))
            local = local or driver_local_size(
                base_items, bench.platform.mali.max_work_group_size
            )
            n_items = -(-base_items // local) * local
            args = (
                bench.gpu_traits(options),
                bench.platform.mali,
                bench.platform.dram_model(),
                bench.platform.gpu_caches(),
            )
            pricer = LaunchPricer(compiled, *args)
            with perf.disabled():  # a fresh one-lane stack pass
                got = pricer.price(n_items, local)
            ref = time_launch_reference(compiled, n_items, local, *args)
            assert got == ref  # full dataclass equality: every float bitwise
            # the pricer's memo key is the historical time_launch key, so
            # both populate (and hit) the same memo entries
            expected_key = perf.content_key(
                (
                    compiled,
                    n_items,
                    local,
                    args[0],
                    args[1],
                    args[2].config,
                    args[3].l1.config,
                    args[3].l2.config,
                    1,
                )
            )
            assert pricer.key(n_items, local) == expected_key
            checked += 1
        if checked == 0:  # DP amcd: every candidate hits the driver bug
            pytest.skip(f"no feasible candidates for {name} [{precision.label}]")

    def test_price_rejects_bad_n_items(self):
        from repro.mali.timing import LaunchPricer

        bench = create("vecop", scale=0.02)
        compiled = compile_kernel(bench.kernel_ir(NAIVE), NAIVE, quirks=())
        pricer = LaunchPricer(
            compiled,
            bench.gpu_traits(NAIVE),
            bench.platform.mali,
            bench.platform.dram_model(),
            bench.platform.gpu_caches(),
        )
        with pytest.raises(ValueError):
            pricer.price(0, 32)
