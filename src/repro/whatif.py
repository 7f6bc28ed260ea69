"""What-if studies: the paper's forward-looking claims, quantified.

The conclusion argues embedded GPUs are "promising candidates for next
generation HPC systems", and §V-A notes the amcd FP64 compiler defect
"will be corrected in a future version of the compiler".  This module
builds the counterfactual platforms and runs them:

* :func:`mali_t628_platform` / :func:`mali_t760_platform` — the next
  Midgard generations (more shader cores, higher clocks, LPDDR3
  bandwidth growth), calibrated from their public specs relative to the
  T604;
* :func:`fixed_driver_platform` — the same SoC with the FP64 defect
  fixed, which finally yields the double-precision amcd numbers the
  paper could not print;
* :func:`compare_platforms` — per-benchmark Opt runs across variants;
* :func:`estimate_speedups` — the model-only variant: prices each
  platform through its ``pricing_model()`` without functional runs,
  the cheap currency of wide design-space sweeps.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .benchmarks.base import Draws, Precision, RunResult, Version, run_version
from .benchmarks.registry import create
from .calibration.exynos5250 import ExynosPlatform, default_platform
from .memory.dram import DramConfig


def _scaled_dram(base: DramConfig, factor: float) -> DramConfig:
    return dataclasses.replace(
        base,
        peak_bandwidth=base.peak_bandwidth * factor,
        cpu_single_core_cap=base.cpu_single_core_cap * factor,
        cpu_dual_core_cap=base.cpu_dual_core_cap * factor,
        gpu_cap=base.gpu_cap * factor,
    )


def mali_t628_platform(base: ExynosPlatform | None = None) -> ExynosPlatform:
    """Exynos 5420-class: Mali-T628 MP6 @ 600 MHz, LPDDR3e (~14.9 GB/s)."""
    base = base or default_platform()
    return dataclasses.replace(
        base,
        mali=dataclasses.replace(base.mali, shader_cores=6, clock_hz=600e6),
        dram=_scaled_dram(base.dram, 14.9 / 12.8),
    )


def mali_t760_platform(base: ExynosPlatform | None = None) -> ExynosPlatform:
    """Exynos 5433-class: Mali-T760 MP8 @ 700 MHz, LPDDR3 (~16.5 GB/s).

    Midgard gen-4 also improved the FP64 rate and cheapened atomics.
    """
    base = base or default_platform()
    mali = dataclasses.replace(
        base.mali,
        shader_cores=8,
        clock_hz=700e6,
        fp64_cost_factor=1.5,
        atomic_cycles=base.mali.atomic_cycles * 0.6,
    )
    return dataclasses.replace(base, mali=mali, dram=_scaled_dram(base.dram, 16.5 / 12.8))


def fixed_driver_platform(base: ExynosPlatform | None = None) -> ExynosPlatform:
    """The T604 with the promised driver fix: an empty quirk table."""
    base = base or default_platform()
    return dataclasses.replace(base, driver_quirks=())


@dataclass(frozen=True)
class PlatformComparison:
    """Per-benchmark Opt runs across platform variants."""

    benchmark: str
    precision: Precision
    runs: dict[str, RunResult]
    serial_seconds: float

    def speedup(self, platform_name: str) -> float | None:
        run = self.runs[platform_name]
        if not run.ok:
            return None
        return self.serial_seconds / run.elapsed_s


def compare_platforms(
    benchmark: str,
    platforms: dict[str, ExynosPlatform],
    precision: Precision = Precision.SINGLE,
    scale: float = 0.5,
    seed: int = 1234,
) -> PlatformComparison:
    """Run the Opt version of one benchmark on each platform variant.

    The Serial baseline (the A15 cluster, identical across these
    variants) is taken from the first platform so speedups compare.
    The platforms' instances share one :class:`Draws` record, so the
    benchmark's inputs are drawn once, not per platform.
    """
    if not platforms:
        raise ValueError("need at least one platform")
    runs: dict[str, RunResult] = {}
    serial_seconds = None
    draws = Draws(seed, readers=len(platforms))
    for name, platform in platforms.items():
        bench = create(
            benchmark, precision=precision, scale=scale, seed=seed, platform=platform,
            draws=draws,
        )
        if serial_seconds is None:
            serial_seconds = run_version(bench, version=Version.SERIAL).elapsed_s
        runs[name] = run_version(bench, version=Version.OPENCL_OPT)
    return PlatformComparison(
        benchmark=benchmark,
        precision=precision,
        runs=runs,
        serial_seconds=serial_seconds,
    )


def estimate_speedups(
    benchmark: str,
    platforms: dict[str, ExynosPlatform],
    precision: Precision = Precision.SINGLE,
    scale: float = 0.5,
    seed: int = 1234,
) -> dict[str, float | None]:
    """Model-only Opt-over-Serial speedup per platform variant.

    The model-only counterpart of :func:`compare_platforms`: every number
    comes from ``platform.pricing_model()`` — tuner pricing for the Opt
    candidate, the CPU cell timing for the Serial baseline — with no
    functional NumPy execution and no meter.  ``None`` marks a variant
    where no Opt candidate is feasible (the paper's missing DP bars).
    The Serial baseline is taken from the first platform, exactly like
    :func:`compare_platforms`.

    Thin wrapper over :func:`repro.designspace.opt_over_serial`, the one
    model-only path shared with the sensitivity probes.
    """
    from .designspace import opt_over_serial

    return opt_over_serial(
        benchmark,
        platforms,
        precision=precision,
        scale=scale,
        seed=seed,
    )


def run_fixed_driver_amcd(
    precision: Precision = Precision.DOUBLE, scale: float = 0.5, seed: int = 1234
) -> RunResult:
    """The counterfactual the paper couldn't run: DP amcd, fixed driver."""
    bench = create(
        "amcd", precision=precision, scale=scale, seed=seed,
        platform=fixed_driver_platform(),
    )
    return run_version(bench, version=Version.OPENCL_OPT)
