"""Batched pricing is bitwise-identical to the scalar models, per layer.

The ``repro.pricing`` contract is not "close": every row a batched
``price()`` returns must equal, bit for bit, what the scalar reference
computes for that cell — including the DP register-exhaustion occupancy
collapse and the sequential-reduction accumulation order.  These tests
compare full result dataclasses with ``==`` (no ``approx``) across the
CPU, GPU, DRAM and power layers, with hypothesis driving randomized
byte mixes and activity sequences.  The CPU and GPU references are the
independent scalar models of ``tests/pricing_oracle.py``.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PAPER_ORDER, perf
from repro.benchmarks.base import Precision, cpu_pricing_inputs
from repro.benchmarks.registry import create
from repro.calibration.exynos5250 import default_platform
from repro.compiler.options import NAIVE, CompileOptions
from repro.compiler.pipeline import compile_kernel
from repro.errors import ReproError
from repro.ir.nodes import AccessPattern
from repro.mali.timing import roofline_floor_seconds
from repro.ocl.driver import default_quirks
from repro.power.rails import Activity, ActivityKind
from repro.pricing import (
    MODE_OPENMP,
    MODE_SERIAL,
    CpuCell,
    GpuLaunchCell,
    TraceCell,
    TransferCell,
)
from tests.pricing_oracle import (
    roofline_floor_reference,
    time_launch_reference,
    time_openmp_reference,
    time_serial_reference,
)

CPU_PROBES = ("vecop", "hist", "dmmm", "nbody")
GPU_PROBES = ("vecop", "dmmm", "nbody")
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
# CPU layer
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", CPU_PROBES)
@pytest.mark.parametrize("precision", [Precision.SINGLE, Precision.DOUBLE])
def test_cpu_batched_equals_scalar(name, precision):
    platform = default_platform()
    pricing = platform.pricing_model()
    bench = create(name, precision=precision, scale=0.1, platform=platform)
    _, mix, traits, n = cpu_pricing_inputs(bench)
    # several element counts priced in one batched call, compared
    # cell-by-cell against the scalar reference
    ns = (n, max(1, n // 3), 2 * n + 1)
    for mode, scalar in (
        (MODE_SERIAL, time_serial_reference),
        (MODE_OPENMP, time_openmp_reference),
    ):
        cells = [
            CpuCell(mix=mix, mode=mode, n_elements=k, traits=traits) for k in ns
        ]
        rows = pricing.cpu.price(cells)
        for k, row in zip(ns, rows):
            expected = scalar(
                mix, k, traits, platform.cpu, pricing.dram_model, pricing.cpu_caches
            )
            assert row == expected  # full CpuTiming, bitwise


def test_cpu_rejects_unknown_mode_and_bad_n():
    platform = default_platform()
    pricing = platform.pricing_model()
    bench = create("vecop", scale=0.1, platform=platform)
    _, mix, traits, _ = cpu_pricing_inputs(bench)
    with pytest.raises(ValueError):
        CpuCell(mix=mix, mode="simd", n_elements=8, traits=traits)
    cell = CpuCell(mix=mix, mode=MODE_SERIAL, n_elements=0, traits=traits)
    with pytest.raises(ValueError):
        pricing.cpu.price_one(cell)


# ---------------------------------------------------------------------------
# GPU layer
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


@pytest.mark.parametrize("name", GPU_PROBES)
@pytest.mark.parametrize("precision", [Precision.SINGLE, Precision.DOUBLE])
def test_gpu_batched_equals_scalar(name, precision):
    platform = default_platform()
    pricing = platform.pricing_model()
    bench = create(name, precision=precision, scale=0.1, platform=platform)
    cells = _gpu_cells(bench, pricing)
    assert cells, "no compilable GPU probe points"
    rows = pricing.gpu.price(cells)
    for cell, row in zip(cells, rows):
        expected = time_launch_reference(
            cell.compiled,
            cell.n_items,
            cell.local_size,
            cell.traits,
            platform.mali,
            pricing.dram_model,
            pricing.gpu_caches,
        )
        assert row == expected  # full GpuLaunchTiming, bitwise
        floor_args = (
            cell.compiled, cell.n_items, cell.traits,
            platform.mali, pricing.dram_model, pricing.gpu_caches,
        )
        assert roofline_floor_seconds(*floor_args) == roofline_floor_reference(*floor_args)


def test_gpu_dp_wide_probe_compiles_somewhere():
    """The DP grid keeps at least one multi-width point alive, so the
    register-pressure path above is actually exercised."""
    platform = default_platform()
    pricing = platform.pricing_model()
    widths = set()
    for name in GPU_PROBES:
        bench = create(name, precision=Precision.DOUBLE, scale=0.1, platform=platform)
        widths.update(c.compiled.options.vector_width for c in _gpu_cells(bench, pricing))
    assert any(w > 1 for w in widths)


# ---------------------------------------------------------------------------
# DRAM layer (hypothesis: randomized byte mixes, order-sensitive dicts)
# ---------------------------------------------------------------------------

_patterns = st.permutations(list(AccessPattern)).flatmap(
    lambda order: st.lists(
        st.floats(min_value=0.0, max_value=1e10), min_size=len(order), max_size=len(order)
    ).map(lambda sizes: dict(zip(order, sizes)))
)


@given(
    mixes=st.lists(_patterns, min_size=1, max_size=6),
    agent=st.sampled_from(["cpu1", "cpu2", "gpu"]),
    agents=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=40, deadline=None)
def test_dram_batched_equals_scalar(mixes, agent, agents):
    platform = default_platform()
    dram = platform.dram_model()
    from repro.memory.dram import DramPricingModel

    model = DramPricingModel(dram)
    cells = [
        TransferCell(agent=agent, bytes_by_pattern=mix, concurrent_agents=agents)
        for mix in mixes
    ]
    rows = model.price(cells)
    for mix, row in zip(mixes, rows):
        assert row == dram.transfer_seconds(
            agent, bytes_by_pattern=mix, concurrent_agents=agents
        )


# ---------------------------------------------------------------------------
# power layer (hypothesis: randomized activity sequences)
# ---------------------------------------------------------------------------

_activity = st.builds(
    Activity,
    kind=st.sampled_from(list(ActivityKind)),
    duration_s=st.floats(min_value=1e-9, max_value=100.0),
    active_cpu_cores=st.integers(min_value=0, max_value=2),
    cpu_ipc=st.floats(min_value=0.0, max_value=3.0),
    gpu_alu_utilization=st.floats(min_value=0.0, max_value=1.0),
    gpu_ls_utilization=st.floats(min_value=0.0, max_value=1.0),
    dram_bandwidth=st.floats(min_value=0.0, max_value=1.3e10),
)


@given(traces=st.lists(st.lists(_activity, min_size=1, max_size=5), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_power_batched_equals_scalar(traces):
    platform = default_platform()
    board = platform.power_model()
    from repro.power.model import PowerPricingModel

    model = PowerPricingModel(board)
    cells = [TraceCell(activities=tuple(acts)) for acts in traces]
    rows = model.price(cells)
    for acts, row in zip(traces, rows):
        assert row == board.trace(list(acts))  # full PowerTrace, bitwise


def test_power_rejects_all_zero_durations():
    platform = default_platform()
    from repro.power.model import PowerPricingModel

    model = PowerPricingModel(platform.power_model())
    cell = TraceCell(activities=(Activity(kind=ActivityKind.IDLE, duration_s=0.0),))
    with pytest.raises(ValueError):
        model.price([cell])
    with pytest.raises(ValueError):
        model.price_one(cell)


# ---------------------------------------------------------------------------
# shims: the historical entry points still answer bitwise the same
# ---------------------------------------------------------------------------


def test_scalar_shims_match_references():
    platform = default_platform()
    pricing = platform.pricing_model()
    from repro.cpu.openmp import time_openmp
    from repro.cpu.serial import time_serial

    for precision in (Precision.SINGLE, Precision.DOUBLE):
        bench = create("hist", precision=precision, scale=0.1, platform=platform)
        _, mix, traits, n = cpu_pricing_inputs(bench)
        args = (mix, n, traits, platform.cpu, pricing.dram_model, pricing.cpu_caches)
        assert time_serial(*args) == time_serial_reference(*args)
        assert time_openmp(*args) == time_openmp_reference(*args)


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
            rows[precision] = pricing.gpu.price(cells)
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
        bench.setup()
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
        bench.setup()
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
