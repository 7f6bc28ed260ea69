"""Platform-level pricing facade and model-only estimates.

:class:`PlatformPricing` (reached via ``platform.pricing_model()``)
holds one platform's DRAM model and cache hierarchies, which the GPU
launch pricers are built on, and the CPU cell entry
:meth:`PlatformPricing.price_one`.  On top of it sit the model-only
estimates (no functional execution, no meter) that SoC design-space
exploration and the what-if studies rank platforms by:
:func:`estimate_cpu_seconds` and :func:`estimate_opt_seconds`.
"""

from __future__ import annotations

from ..cpu.pricing import CpuConfigStack
from ..cpu.serial import CpuTiming
from .cells import MODE_OPENMP, MODE_SERIAL, CpuCell


class PlatformPricing:
    """The pricing models of one platform.

    One :class:`~repro.memory.dram.DramModel` and one cache hierarchy
    per side, shared by the CPU cell entry (:meth:`price_one`) and the
    launch pricers :meth:`~repro.benchmarks.base.Benchmark.iteration_pricer`
    builds over ``dram_model`` and ``gpu_caches``.
    """

    def __init__(self, platform) -> None:
        self.platform = platform
        self.dram_model = platform.dram_model()
        self.cpu_caches = platform.cpu_caches()
        self.gpu_caches = platform.gpu_caches()

    def price(self, cells) -> tuple[CpuTiming, ...]:
        """:meth:`price_one` of each cell, in order."""
        return tuple(map(self.price_one, cells))

    def price_one(self, cell: CpuCell) -> CpuTiming:
        """One Serial/OpenMP cell, priced as a one-lane stack."""
        stack = CpuConfigStack((cell,), self.platform.cpu, self.dram_model, self.cpu_caches)
        return stack.timings()[0]


def seed_cpu_timing(bench, versions) -> int:
    """Price a benchmark's Serial/OpenMP cells, each version once.

    A loop over :func:`~repro.benchmarks.base.cpu_region_timing`, the
    price each cell's run computes.  Returns how many versions it
    priced.
    """
    from ..benchmarks.base import Version, cpu_region_timing

    wanted = dict.fromkeys(v for v in versions if v in (Version.SERIAL, Version.OPENMP))
    for version in wanted:
        cpu_region_timing(bench, version)
    return len(wanted)


# ---------------------------------------------------------------------------
# model-only estimates (design-space currency)
# ---------------------------------------------------------------------------


def estimate_cpu_seconds(bench, mode: str = MODE_SERIAL) -> float:
    """Model-only Serial/OpenMP seconds of one timed iteration.

    The CPU timing a run of that version reports
    (:func:`~repro.benchmarks.base.cpu_region_timing`), without running
    functional NumPy code or the meter — what a platform sweep needs to
    rank design points.
    """
    from ..benchmarks.base import Version, cpu_region_timing

    version = {MODE_SERIAL: Version.SERIAL, MODE_OPENMP: Version.OPENMP}[mode]
    return cpu_region_timing(bench, version).seconds


def estimate_opt_seconds(bench) -> float | None:
    """Model-only tuned OpenCL-Opt seconds of one timed iteration.

    Runs the autotuner (compiles + prices, no functional execution) and
    returns the winning trial's modeled time, or ``None`` when no
    candidate is feasible (the paper's missing DP bars).
    """
    from ..optimizations.autotune import sweep

    best = sweep(bench).best
    return None if best is None else best.seconds
