"""Sensitivity analysis of the calibration constants.

Every hardware constant in :mod:`repro.calibration.exynos5250` was set
once from public specs; this module answers "how much does conclusion X
depend on constant Y?" by perturbing one constant at a time and
re-pricing a compact probe (a few benchmark Opt-vs-Serial speedups).
A reproduction whose headline flips when a constant moves ±20 % would
be calibration-fitting, not modelling — the tests pin that it doesn't.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from ..benchmarks.base import Precision
from .exynos5250 import ExynosPlatform, default_platform

#: compact probe set spanning the result regimes: memory-bound,
#: atomic-bound, compute-bound
PROBE_BENCHMARKS = ("vecop", "hist", "dmmm")


@dataclass(frozen=True)
class Perturbation:
    """One named way of scaling a platform constant."""

    name: str
    apply: Callable[[ExynosPlatform, float], ExynosPlatform]


def _scale_mali(field: str):
    def apply(p: ExynosPlatform, f: float) -> ExynosPlatform:
        return dataclasses.replace(
            p, mali=dataclasses.replace(p.mali, **{field: getattr(p.mali, field) * f})
        )

    return apply


def _scale_cpu(field: str):
    def apply(p: ExynosPlatform, f: float) -> ExynosPlatform:
        return dataclasses.replace(
            p, cpu=dataclasses.replace(p.cpu, **{field: getattr(p.cpu, field) * f})
        )

    return apply


def _scale_dram_caps(p: ExynosPlatform, f: float) -> ExynosPlatform:
    d = p.dram
    return dataclasses.replace(
        p,
        dram=dataclasses.replace(
            d,
            cpu_single_core_cap=min(d.cpu_single_core_cap * f, d.peak_bandwidth),
            cpu_dual_core_cap=min(d.cpu_dual_core_cap * f, d.peak_bandwidth),
            gpu_cap=min(d.gpu_cap * f, d.peak_bandwidth),
        ),
    )


PERTURBATIONS: tuple[Perturbation, ...] = (
    Perturbation("mali.clock_hz", _scale_mali("clock_hz")),
    Perturbation("mali.wg_schedule_cycles", _scale_mali("wg_schedule_cycles")),
    Perturbation("mali.scalar_access_dram_efficiency", _scale_mali("scalar_access_dram_efficiency")),
    Perturbation("mali.atomic_cycles", _scale_mali("atomic_cycles")),
    Perturbation("cpu.clock_hz", _scale_cpu("clock_hz")),
    Perturbation("cpu.fp_mac_latency", _scale_cpu("fp_mac_latency")),
    Perturbation("dram.agent_caps", _scale_dram_caps),
)


@dataclass(frozen=True)
class SensitivityRow:
    """Probe speedups under one perturbation factor."""

    constant: str
    factor: float
    speedups: dict[str, float]

    def max_relative_change(self, baseline: "SensitivityRow") -> float:
        changes = [
            abs(self.speedups[b] - baseline.speedups[b]) / baseline.speedups[b]
            for b in self.speedups
        ]
        return max(changes)


def probe_speedups(
    platform: ExynosPlatform,
    benchmarks: tuple[str, ...] = PROBE_BENCHMARKS,
    scale: float = 0.25,
    seed: int = 1234,
) -> dict[str, float]:
    """Opt-over-Serial speedups of the probe set on a platform.

    Each probe is priced through the platform's ``pricing_model()``
    (:func:`repro.designspace.opt_over_serial`), with no functional
    execution and no meter: the numbers equal ``serial.elapsed_s /
    opt.elapsed_s`` of :func:`~repro.benchmarks.base.run_version` on
    the same platform, bit for bit.
    """
    from ..designspace import opt_over_serial

    out = {}
    for name in benchmarks:
        sp = opt_over_serial(
            name, {"probe": platform}, precision=Precision.SINGLE, scale=scale, seed=seed,
        )["probe"]
        if sp is None:
            raise RuntimeError(f"no feasible Opt candidate for probe {name!r}")
        out[name] = sp
    return out


def analyze_sensitivity(
    factors: tuple[float, ...] = (0.8, 1.25),
    perturbations: tuple[Perturbation, ...] = PERTURBATIONS,
    benchmarks: tuple[str, ...] = PROBE_BENCHMARKS,
    scale: float = 0.25,
) -> tuple[SensitivityRow, list[SensitivityRow]]:
    """(baseline, perturbed rows) for the probe benchmarks."""
    base_platform = default_platform()
    baseline = SensitivityRow(
        constant="baseline",
        factor=1.0,
        speedups=probe_speedups(base_platform, benchmarks, scale),
    )
    rows = []
    for pert in perturbations:
        for factor in factors:
            platform = pert.apply(base_platform, factor)
            rows.append(
                SensitivityRow(
                    constant=pert.name,
                    factor=factor,
                    speedups=probe_speedups(platform, benchmarks, scale),
                )
            )
    return baseline, rows


def format_sensitivity(baseline: SensitivityRow, rows: list[SensitivityRow]) -> str:
    benchmarks = list(baseline.speedups)
    lines = [
        "calibration sensitivity (Opt speedup over Serial)",
        "  " + f"{'constant':38s} {'x':>5s} " + " ".join(f"{b:>8s}" for b in benchmarks)
        + f" {'max Δ':>7s}",
        "  " + f"{'baseline':38s} {'1.00':>5s} "
        + " ".join(f"{baseline.speedups[b]:8.2f}" for b in benchmarks),
    ]
    for row in rows:
        delta = row.max_relative_change(baseline)
        lines.append(
            f"  {row.constant:38s} {row.factor:5.2f} "
            + " ".join(f"{row.speedups[b]:8.2f}" for b in benchmarks)
            + f" {delta:6.1%}"
        )
    return "\n".join(lines)
