"""Calibrated description of the Samsung Exynos 5250 Arndale board.

Every hardware constant of the reproduction lives here, with its
provenance.  *Only* hardware-level quantities are calibrated — clocks,
widths, capacities, bandwidths, overheads and rail powers.  The
per-benchmark results of Figures 2–4 are emergent from these constants
plus each benchmark's honest instruction mix; no per-benchmark result is
pinned.

Provenance notes:

* CPU: dual Cortex-A15 @ 1.7 GHz, 32 KB L1 I/D, 1 MB shared L2
  (paper §IV-C; Samsung Exynos 5250 datasheet).
* GPU: quad-core Mali-T604 @ 533 MHz, 2 arithmetic pipes/core, 128-bit
  registers, 256 KB L2 (paper §II-A; ARM Mali-T604 documentation).
* DRAM: 2 GB DDR3L-1600 on a 2×32-bit interface → 12.8 GB/s peak
  (paper §IV-C; Arndale board manual).  Per-agent sustainable caps
  follow the Mont-Blanc prototype STREAM measurements on this SoC
  (~⅓ of peak for one A15, ~60 % for the GPU).
* Power rails: chosen so the board-level ratios the paper measures hold
  (Serial ≈ 3.5 W boards were typical for Arndale; OpenMP ≈ +31 %,
  GPU runs within ±20 % of Serial depending on pipe utilization).
* Meter: Yokogawa WT230, 10 Hz, 0.1 % (paper §IV-D).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cpu.config import A15Config
from ..mali.config import MaliConfig
from ..memory.cache import CacheConfig, CacheHierarchy
from ..memory.dram import DramConfig, DramModel
from ..power.meter import YokogawaWT230
from ..power.model import BoardPowerModel
from ..power.rails import PowerRailConfig


@dataclass(frozen=True)
class ExynosPlatform:
    """The full simulated platform: SoC + board + meter settings."""

    mali: MaliConfig = field(default_factory=MaliConfig)
    cpu: A15Config = field(default_factory=A15Config)
    dram: DramConfig = field(default_factory=DramConfig)
    rails: PowerRailConfig = field(default_factory=PowerRailConfig)
    # CPU hierarchy: 32 KB L1D per core, 1 MB shared L2
    cpu_l1: CacheConfig = field(default_factory=lambda: CacheConfig(size_bytes=32 * 1024))
    cpu_l2: CacheConfig = field(default_factory=lambda: CacheConfig(size_bytes=1024 * 1024))
    # GPU hierarchy: small per-core caches, 256 KB shared L2
    gpu_l1: CacheConfig = field(default_factory=lambda: CacheConfig(size_bytes=16 * 1024))
    gpu_l2: CacheConfig = field(default_factory=lambda: CacheConfig(size_bytes=256 * 1024))
    meter_sample_hz: float = 10.0
    meter_accuracy: float = 0.001
    #: driver quirk table; None = the 2013 driver's default defects
    #: (see repro.ocl.driver.default_quirks) — an empty tuple models the
    #: "future version of the compiler" the paper was promised
    driver_quirks: tuple | None = None

    # ------------------------------------------------------------------
    # model factories (models are lightweight; construct per use)
    # ------------------------------------------------------------------
    def dram_model(self) -> DramModel:
        return DramModel(self.dram)

    def cpu_caches(self) -> CacheHierarchy:
        return CacheHierarchy(self.cpu_l1, self.cpu_l2)

    def gpu_caches(self) -> CacheHierarchy:
        return CacheHierarchy(self.gpu_l1, self.gpu_l2)

    def power_model(self) -> BoardPowerModel:
        return BoardPowerModel(self.rails)

    def meter(self, seed: int | None = 0) -> YokogawaWT230:
        return YokogawaWT230(self.meter_sample_hz, self.meter_accuracy, seed=seed)

    def pricing_model(self):
        """The timing entries of this platform, as one facade.

        A fresh :class:`~repro.pricing.grid.PlatformPricing` on every
        call: the GPU launch pricers (``.gpu.pricer``) and the CPU cell
        entry (``.price_one``) over one DRAM model and one cache
        hierarchy per side.  DRAM transfers and board power come from
        :meth:`dram_model` and :meth:`power_model` directly.
        """
        from ..pricing.grid import PlatformPricing  # deferred: pricing imports models

        return PlatformPricing(self)


_DEFAULT: ExynosPlatform | None = None


def default_platform() -> ExynosPlatform:
    """The calibrated Exynos 5250 platform singleton."""
    global _DEFAULT
    if _DEFAULT is None:
        from .validation import validate_platform

        platform = ExynosPlatform()
        validate_platform(platform)
        _DEFAULT = platform
    return _DEFAULT
