"""Unit surface of ``repro.pricing``.

Covers the ``PlatformPricing`` facade, the launch errors of every GPU
pricing view, the keyword-only signatures, ``seed_cpu_timing`` and the
model-only estimate helpers the what-if studies use.
"""

from __future__ import annotations

import inspect

import pytest

from repro import perf, whatif
from repro.benchmarks.base import (
    Precision,
    Version,
    run_version,
)
from repro.benchmarks.registry import create
from repro.calibration.exynos5250 import default_platform
from repro.calibration.sensitivity import probe_speedups
from repro.compiler.options import NAIVE
from repro.compiler.pipeline import compile_kernel
from repro.errors import CLInvalidWorkGroupSize
from repro.ir.analysis import OpKind
from repro.mali.timing import GpuConfigStack, LaunchPricer, time_launch
from repro.ir.nodes import AccessPattern
from repro.pricing import GpuLaunchCell
from repro.pricing.grid import (
    PlatformPricing,
    estimate_cpu_seconds,
    estimate_opt_seconds,
    seed_cpu_timing,
)


@pytest.fixture(autouse=True)
def _fresh_perf():
    """Cold memo per test."""
    perf.reset()
    yield
    perf.reset()


# ---------------------------------------------------------------------------
# the platform facade
# ---------------------------------------------------------------------------


class TestPricingProtocol:
    def test_platform_accessor_returns_fresh_facade(self):
        platform = default_platform()
        pricing = platform.pricing_model()
        assert isinstance(pricing, PlatformPricing)
        assert pricing.platform is platform


# ---------------------------------------------------------------------------
# launch errors: every GPU view validates the local size
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("local_size", [0, 512])
def test_gpu_views_reject_work_group_sizes_no_core_holds(local_size):
    platform = default_platform()
    pricing = platform.pricing_model()
    bench = create("vecop", scale=0.05, platform=platform)
    compiled = compile_kernel(bench.kernel_ir(NAIVE), NAIVE, quirks=())
    traits = bench.gpu_traits(NAIVE)
    args = (traits, platform.mali, pricing.dram_model, pricing.gpu_caches)
    with pytest.raises(CLInvalidWorkGroupSize):
        time_launch(compiled, 1024, local_size, *args)
    with pytest.raises(CLInvalidWorkGroupSize):
        LaunchPricer(compiled, *args).price(1024, local_size)
    cell = GpuLaunchCell(compiled=compiled, traits=traits, n_items=1024, local_size=local_size)
    with pytest.raises(CLInvalidWorkGroupSize):
        GpuConfigStack((cell,), platform.mali, pricing.dram_model, pricing.gpu_caches)


# ---------------------------------------------------------------------------
# keyword-only signatures
# ---------------------------------------------------------------------------


class TestKeywordOnlySignatures:
    def test_dram_methods_reject_positional_tail(self):
        platform = default_platform()
        dram = platform.dram_model()
        mix = {AccessPattern.UNIT: 1e6}
        with pytest.raises(TypeError):
            dram.transfer_seconds("gpu", mix)
        with pytest.raises(TypeError):
            dram.effective_bandwidth("gpu", mix)
        assert dram.transfer_seconds("gpu", bytes_by_pattern=mix) > 0.0

    def test_mali_costs_reject_positional_tail(self):
        mali = default_platform().mali
        with pytest.raises(TypeError):
            mali.arith_issue_cost(OpKind.FMA, "f32", 1, 32)
        with pytest.raises(TypeError):
            mali.ls_issue_cost(1, 32)
        assert mali.arith_issue_cost(OpKind.FMA, base="f32", width=1, scalar_bits=32) > 0
        assert mali.ls_issue_cost(1, scalar_bits=32) > 0

    @pytest.mark.parametrize(
        "func, n_positional",
        [("effective_bandwidth", 2), ("transfer_seconds", 2)],
    )
    def test_signature_shape(self, func, n_positional):
        from repro.memory.dram import DramModel

        params = list(inspect.signature(getattr(DramModel, func)).parameters.values())
        for param in params[n_positional:]:
            assert param.kind is param.KEYWORD_ONLY


# ---------------------------------------------------------------------------
# seed_cpu_timing: each CPU version priced once
# ---------------------------------------------------------------------------


class TestSeedCpuTiming:
    def test_seeds_one_row_per_cpu_version(self):
        bench = create("vecop", scale=0.1)
        assert seed_cpu_timing(bench, list(Version)) == 2
        # and the same count with the memo lane off
        with perf.disabled():
            assert seed_cpu_timing(bench, list(Version)) == 2

    def test_gpu_only_groups_seed_nothing(self):
        bench = create("vecop", scale=0.1)
        assert seed_cpu_timing(bench, [Version.OPENCL, Version.OPENCL_OPT]) == 0


# ---------------------------------------------------------------------------
# model-only estimates (whatif / sensitivity seam)
# ---------------------------------------------------------------------------


class TestModelOnlyEstimates:
    def test_cpu_estimate_matches_run(self):
        bench = create("vecop", scale=0.1)
        run = run_version(bench, version=Version.SERIAL)
        assert estimate_cpu_seconds(bench) == run.elapsed_s

    def test_opt_estimate_positive_or_none(self):
        bench = create("vecop", scale=0.1)
        opt_s = estimate_opt_seconds(bench)
        assert opt_s is not None and opt_s > 0.0

    def test_whatif_estimate_speedups(self):
        platforms = {
            "t604": default_platform(),
            "t628": whatif.mali_t628_platform(),
        }
        speedups = whatif.estimate_speedups("vecop", platforms, scale=0.1)
        assert set(speedups) == {"t604", "t628"}
        for value in speedups.values():
            assert value is None or value > 0.0

    def test_whatif_estimate_requires_platforms(self):
        with pytest.raises(ValueError):
            whatif.estimate_speedups("vecop", {})

    def test_sensitivity_probe_model_only(self):
        speedups = probe_speedups(
            default_platform(), benchmarks=("vecop",), scale=0.1, model_only=True
        )
        assert speedups["vecop"] > 0.0
