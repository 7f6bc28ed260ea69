"""Platform-level pricing facade and model-only estimates.

:class:`PlatformPricing` (reached via ``platform.pricing_model()``)
holds one platform's DRAM model and cache hierarchies and the two
timing entries built on them: ``gpu`` hands out the launch pricers,
:meth:`PlatformPricing.price_one` prices one CPU cell.  On top of it
sit the model-only estimates (no functional execution, no meter) that
SoC design-space exploration and the what-if studies rank platforms
by: :func:`estimate_cpu_seconds` and :func:`estimate_opt_seconds`.
"""

from __future__ import annotations

from .. import perf
from ..cpu.pricing import CpuConfigStack
from ..cpu.serial import CpuTiming
from ..mali.timing import GpuPricingModel
from .cells import MODE_OPENMP, MODE_SERIAL, CpuCell


class PlatformPricing:
    """The timing entries of one platform, over shared models.

    Shares one :class:`~repro.memory.dram.DramModel` and one cache
    hierarchy per side between the GPU launch pricers (``gpu``) and
    the CPU cell entry (:meth:`price_one`).
    """

    def __init__(self, platform) -> None:
        self.platform = platform
        self.dram_model = platform.dram_model()
        self.cpu_caches = platform.cpu_caches()
        self.gpu_caches = platform.gpu_caches()
        self.gpu = GpuPricingModel(platform.mali, self.dram_model, self.gpu_caches)

    def price(self, cells) -> tuple[CpuTiming, ...]:
        """:meth:`price_one` of each cell, in order."""
        return tuple(map(self.price_one, cells))

    def price_one(self, cell: CpuCell) -> CpuTiming:
        """One Serial/OpenMP cell, priced as a one-lane stack.

        Unmemoized: :func:`~repro.benchmarks.base.cpu_region_timing` is
        the memoized form runs call.
        """
        stack = CpuConfigStack((cell,), self.platform.cpu, self.dram_model, self.cpu_caches)
        return stack.timings()[0]


def seed_cpu_timing(bench, versions) -> int:
    """Price a benchmark's Serial/OpenMP cells into the ``cpu_timing`` memo.

    A loop over :func:`~repro.benchmarks.base.cpu_region_timing`, the
    lookup each cell's run makes, so the run then hits.  Returns the
    number of timings in the memo for those versions: none when the
    memo is disabled.
    """
    from ..benchmarks.base import Version, cpu_region_timing

    wanted = dict.fromkeys(v for v in versions if v in (Version.SERIAL, Version.OPENMP))
    for version in wanted:
        cpu_region_timing(bench, version)
    return len(wanted) if perf.is_enabled() else 0


# ---------------------------------------------------------------------------
# model-only estimates (design-space currency)
# ---------------------------------------------------------------------------


def estimate_cpu_seconds(bench, mode: str = MODE_SERIAL) -> float:
    """Model-only Serial/OpenMP seconds of one timed iteration.

    The memoized CPU timing a run of that version reports
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
