"""Problem-size sweeps: where the GPU pays off and where it doesn't.

Not a paper figure, but the quantitative backbone of two §III-A claims:
"the global work size must be in the order of several thousands to
maximize the GPU resources utilization", and the general wisdom that
fixed launch/driver overheads dominate small problems.  The sweep runs
one benchmark across problem scales and reports the Serial/Opt
crossover.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..benchmarks.base import Precision, Version, run_version
from ..benchmarks.registry import create


@dataclass(frozen=True)
class SweepPoint:
    """One problem size in the sweep."""

    scale: float
    elements: int
    serial_s: float
    opt_s: float
    opt_energy_ratio: float

    @property
    def speedup(self) -> float:
        return self.serial_s / self.opt_s


@dataclass(frozen=True)
class SizeSweep:
    """Sweep result with crossover analysis."""

    benchmark: str
    precision: Precision
    points: tuple[SweepPoint, ...]

    def crossover_scale(self) -> float | None:
        """Smallest swept scale where the GPU Opt version wins, or None."""
        for p in self.points:
            if p.speedup > 1.0:
                return p.scale
        return None


def run_size_sweep(
    benchmark: str,
    scales: tuple[float, ...] = (0.01, 0.05, 0.25, 1.0),
    precision: Precision = Precision.SINGLE,
    seed: int = 1234,
) -> SizeSweep:
    """Run Serial and OpenCL Opt across problem scales."""
    points = []
    for scale in sorted(scales):
        bench = create(benchmark, precision=precision, scale=scale, seed=seed)
        serial = run_version(bench, version=Version.SERIAL)
        opt = run_version(bench, version=Version.OPENCL_OPT)
        if not opt.ok:
            continue
        _, _, energy = opt.relative_to(serial)
        points.append(
            SweepPoint(
                scale=scale,
                elements=bench.elements(),
                serial_s=serial.elapsed_s,
                opt_s=opt.elapsed_s,
                opt_energy_ratio=energy,
            )
        )
    return SizeSweep(benchmark=benchmark, precision=precision, points=tuple(points))


def format_sweep(sweep: SizeSweep) -> str:
    """Render a problem-size sweep as an aligned table."""
    lines = [
        f"problem-size sweep: {sweep.benchmark} [{sweep.precision.label}]",
        f"  {'scale':>6s} {'elements':>12s} {'serial':>10s} {'opt':>10s} "
        f"{'speedup':>8s} {'energy':>7s}",
    ]
    for p in sweep.points:
        lines.append(
            f"  {p.scale:6.2f} {p.elements:12,d} {p.serial_s * 1e3:8.2f}ms "
            f"{p.opt_s * 1e3:8.2f}ms {p.speedup:7.2f}x {p.opt_energy_ratio:7.2f}"
        )
    crossover = sweep.crossover_scale()
    if crossover is None:
        lines.append("  GPU never wins in the swept range")
    else:
        lines.append(f"  GPU wins from scale {crossover:g} upward")
    return "\n".join(lines)
