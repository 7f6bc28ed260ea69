"""Platform-level pricing facade, campaign seeding, model-only estimates.

:class:`PlatformPricing` bundles the four layer
:class:`~repro.pricing.PricingModel` implementations of one
:class:`~repro.calibration.exynos5250.ExynosPlatform` behind a single
object (reached via ``platform.pricing_model()``), dispatching
heterogeneous cell lists to the right layer.  On top of it sit the grid
helpers the campaign engine and the what-if studies use:

* :func:`seed_cpu_timing` — batch-price a benchmark's pending CPU cells
  and seed the ``cpu_timing`` memo under the exact keys
  ``run_cpu_version`` will look up, so dispatch finds them warm;
* :func:`estimate_cpu_seconds` / :func:`estimate_opt_seconds` —
  model-only iteration times (no functional execution, no meter), the
  cheap currency of SoC design-space exploration.
"""

from __future__ import annotations

from .. import perf
from ..cpu.pricing import CpuPricingModel
from ..mali.timing import GpuPricingModel
from ..memory.dram import DramPricingModel
from ..power.model import PowerPricingModel
from .cells import (
    MODE_OPENMP,
    MODE_SERIAL,
    CpuCell,
    GpuLaunchCell,
    TraceCell,
    TransferCell,
)


class PlatformPricing:
    """All four batched pricing models of one platform, as one facade.

    Shares one :class:`~repro.memory.dram.DramModel` and one cache
    hierarchy per side across the layer models, and itself implements
    the :class:`~repro.pricing.PricingModel` protocol over heterogeneous
    cell lists by dispatching each cell to its layer and reassembling
    rows in input order.
    """

    def __init__(self, platform) -> None:
        self.platform = platform
        self.dram_model = platform.dram_model()
        self.cpu_caches = platform.cpu_caches()
        self.gpu_caches = platform.gpu_caches()
        self.power_model = platform.power_model()
        self.gpu = GpuPricingModel(platform.mali, self.dram_model, self.gpu_caches)
        self.cpu = CpuPricingModel(platform.cpu, self.dram_model, self.cpu_caches)
        self.dram = DramPricingModel(self.dram_model)
        self.power = PowerPricingModel(self.power_model)

    def model_for(self, cell):
        """The layer model that prices one cell type."""
        if isinstance(cell, GpuLaunchCell):
            return self.gpu
        if isinstance(cell, CpuCell):
            return self.cpu
        if isinstance(cell, TransferCell):
            return self.dram
        if isinstance(cell, TraceCell):
            return self.power
        raise TypeError(f"not a pricing cell: {cell!r}")

    def price(self, cells) -> tuple:
        """One row per cell, each layer batched over its own cells."""
        cells = tuple(cells)
        buckets: dict[int, list[int]] = {}
        models: dict[int, object] = {}
        for i, cell in enumerate(cells):
            model = self.model_for(cell)
            mk = id(model)
            models[mk] = model
            buckets.setdefault(mk, []).append(i)
        out: list = [None] * len(cells)
        for mk, idxs in buckets.items():
            rows = models[mk].price([cells[i] for i in idxs])
            for j, i in enumerate(idxs):
                out[i] = rows[j]
        return tuple(out)

    def price_one(self, cell):
        """Single-cell convenience: dispatch and price."""
        return self.model_for(cell).price_one(cell)


# ---------------------------------------------------------------------------
# campaign grid seeding
# ---------------------------------------------------------------------------


def seed_cpu_timing(bench, versions) -> int:
    """Batch-price a benchmark's CPU cells into the ``cpu_timing`` memo.

    The campaign engine calls this once per (benchmark, precision) group
    before dispatching its pending cells: the group's Serial/OpenMP
    timings are priced in one vectorized pass and seeded under the exact
    content keys ``run_cpu_version`` builds, so each cell's own lookup
    hits both tiers.  Values are bitwise what the per-cell path computes
    (the same stack epilogue, one lane at a time), so
    results are identical with seeding on or off.  Returns the number of
    cells seeded: none when the memo is disabled.
    """
    from ..benchmarks.base import Version, cpu_pricing_inputs, cpu_pricing_key

    modes = {Version.SERIAL: MODE_SERIAL, Version.OPENMP: MODE_OPENMP}
    wanted: list = []
    for version in versions:
        if version in modes and version not in wanted:
            wanted.append(version)
    if not wanted:
        return 0
    pricing = bench.platform.pricing_model()
    ir, mix, traits, n = cpu_pricing_inputs(bench)
    cells = [
        CpuCell(mix=mix, mode=modes[version], n_elements=n, traits=traits)
        for version in wanted
    ]
    rows = pricing.cpu.price(cells)
    memo = perf.cache("cpu_timing")
    return sum(
        memo.seed(cpu_pricing_key(bench, ir, version, n, traits, pricing), row)
        for version, row in zip(wanted, rows)
    )


# ---------------------------------------------------------------------------
# model-only estimates (design-space currency)
# ---------------------------------------------------------------------------


def estimate_cpu_seconds(bench, mode: str = MODE_SERIAL) -> float:
    """Model-only Serial/OpenMP seconds of one timed iteration.

    Prices the benchmark's CPU cell through its platform's
    ``pricing_model()`` without running functional NumPy code or the
    meter — what a platform sweep needs to rank design points.
    """
    from ..benchmarks.base import cpu_pricing_inputs

    pricing = bench.platform.pricing_model()
    _, mix, traits, n = cpu_pricing_inputs(bench)
    cell = CpuCell(mix=mix, mode=mode, n_elements=n, traits=traits)
    return pricing.cpu.price_one(cell).seconds


def estimate_opt_seconds(bench) -> float | None:
    """Model-only tuned OpenCL-Opt seconds of one timed iteration.

    Runs the autotuner (compiles + prices, no functional execution) and
    returns the winning candidate's modeled time, or ``None`` when no
    candidate is feasible (the paper's missing DP bars).
    """
    from ..optimizations.autotune import tune

    best = tune(bench)
    if best is None:
        return None
    options, local_size = best
    return bench.estimate_iteration_seconds(options, local_size)
