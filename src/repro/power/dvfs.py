"""DVFS operating points, frequency governors, and energy policies.

The paper measures every benchmark at one fixed frequency (Mali-T604 at
533 MHz, Cortex-A15 at 1.7 GHz).  Real embedded deployments run under a
DVFS governor, and the race-to-idle vs pace-to-deadline choice dominates
energy-to-solution on heterogeneous SoCs.  This module models that axis
without disturbing the fixed-frequency calibration:

* :class:`OPPTable` — per-rail operating points (frequency/voltage
  pairs) derived from the Exynos 5250 DVFS tables.  The *top* OPP is the
  rail's nominal point, so the paper's fixed-frequency measurement is
  exactly the degenerate one-OPP table (every derived scale factor is
  ``1.0`` there, and ``x * 1.0 == x`` in IEEE-754 for finite ``x``).
* **Timing** rescales through the existing pricing seam: an OPP swaps
  ``clock_hz`` on the Mali / A15 config and reprices.  Compute-bound
  phases scale with 1/f; DRAM-bound phases scale sublinearly because the
  roofline DRAM term in :mod:`repro.mali.timing` is clock-independent.
* **Power** scales with the classic dynamic-power term ``f · V²``
  relative to the nominal OPP, applied to the *dynamic* rail
  coefficients only (the board floor, host polling and DRAM energy/byte
  stay fixed, mirroring :class:`repro.calibration.socspace.SoCConfig`).
* **Governors** pick an OPP for a steady workload: ``performance``
  (max), ``powersave`` (min), and an ``ondemand``/schedutil-like
  utilization-driven governor built on a two-point frequency-response
  fit ``t(f) = a/f + b``.
* **Energy policies** trade work power against deadline slack:
  ``race_to_idle`` runs at the max OPP then drops to the board idle
  floor for the remaining slack; ``pace_to_deadline`` picks the lowest
  OPP that still meets the latency budget.

:func:`settle` is the one place that decides which OPP each governor
takes; the campaign's governed runs and the design space's governor
sweep both call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .rails import PowerRailConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle: calibration uses power
    from ..calibration.exynos5250 import ExynosPlatform

# ---------------------------------------------------------------------------
# governor names
# ---------------------------------------------------------------------------

#: the paper's fixed-frequency operation — no DVFS at all
GOVERNOR_DEFAULT = "fixed"

#: frequency governors: pick one OPP for the whole timed region
FREQUENCY_GOVERNORS = ("performance", "powersave", "ondemand")

#: deadline policies: an OPP choice *plus* idle-slack accounting
DEADLINE_POLICIES = ("race_to_idle", "pace_to_deadline")

#: every legal value of the campaign governor axis
GOVERNORS = (GOVERNOR_DEFAULT,) + FREQUENCY_GOVERNORS + DEADLINE_POLICIES

#: ondemand's steady-state utilization target (Linux default is 80 %)
ONDEMAND_UP_THRESHOLD = 0.8


# ---------------------------------------------------------------------------
# operating points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatingPoint:
    """One DVFS operating point: a frequency/voltage pair."""

    frequency_hz: float
    voltage_v: float

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ValueError("frequency_hz must be positive")
        if self.voltage_v <= 0:
            raise ValueError("voltage_v must be positive")


@dataclass(frozen=True)
class OPPTable:
    """Ordered operating points of one rail (ascending frequency).

    The last (highest-frequency) point is the rail's *nominal* OPP — the
    paper's fixed measurement point.  Voltages must be non-decreasing in
    frequency (that is what makes racing cheap and pacing cheap in
    different regimes).
    """

    points: tuple[OperatingPoint, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("an OPP table needs at least one operating point")
        for prev, cur in zip(self.points, self.points[1:]):
            if cur.frequency_hz <= prev.frequency_hz:
                raise ValueError("OPP frequencies must be strictly increasing")
            if cur.voltage_v < prev.voltage_v:
                raise ValueError("OPP voltages must be non-decreasing in frequency")

    @classmethod
    def fixed(cls, frequency_hz: float, voltage_v: float = 1.0) -> "OPPTable":
        """The degenerate one-OPP table: the paper's fixed frequency."""
        return cls((OperatingPoint(frequency_hz, voltage_v),))

    # ------------------------------------------------------------------
    @property
    def min(self) -> OperatingPoint:
        return self.points[0]

    @property
    def max(self) -> OperatingPoint:
        return self.points[-1]

    @property
    def nominal(self) -> OperatingPoint:
        """The calibration point: the table's top OPP."""
        return self.points[-1]

    def __len__(self) -> int:
        return len(self.points)

    # ------------------------------------------------------------------
    def power_scale(self, opp: OperatingPoint) -> float:
        """Dynamic-power factor ``(f/f0) · (V/V0)²`` vs the nominal OPP.

        Exactly ``1.0`` at the nominal point, so nominal-OPP rails are
        bit-identical to the calibrated rails.
        """
        nominal = self.nominal
        if opp == nominal:
            return 1.0
        f = opp.frequency_hz / nominal.frequency_hz
        v = opp.voltage_v / nominal.voltage_v
        return f * (v * v)

    def rescaled(self, top_hz: float) -> "OPPTable":
        """The same voltage ladder with the top OPP moved to ``top_hz``.

        Keeps OPP tables consistent with the ``SoCConfig`` clock axes: a
        design-space point clocked at 700 MHz gets the Exynos ladder
        scaled so its nominal OPP is *exactly* the config's clock (the
        top frequency is assigned, not multiplied, so no float residue
        leaks into the fixed-frequency reproduction).

        The lower OPPs are multiplied by ``top_hz / f_top``.  When that
        product rounds two neighbouring OPPs onto one frequency — only
        possible for points a few float ulps apart — the ladder cannot
        keep its shape, and a ``ValueError`` naming the collapsed pair
        is raised instead of silently merging them.
        """
        if top_hz <= 0:
            raise ValueError("top_hz must be positive")
        top = self.nominal
        if top_hz == top.frequency_hz:
            return self
        ratio = top_hz / top.frequency_hz
        freqs = [p.frequency_hz * ratio for p in self.points[:-1]] + [top_hz]
        for i in range(1, len(freqs)):
            if freqs[i] <= freqs[i - 1]:
                raise ValueError(
                    f"rescaling to {top_hz!r} Hz collapses the OPPs at "
                    f"{self.points[i - 1].frequency_hz!r} Hz and "
                    f"{self.points[i].frequency_hz!r} Hz onto one frequency; "
                    f"the ladder's points are too close to rescale by {ratio!r}"
                )
        return OPPTable(
            tuple(OperatingPoint(f, p.voltage_v) for f, p in zip(freqs, self.points))
        )


#: Mali-T604 OPPs of the Exynos 5250 (mainline exynos5250.dtsi ladder);
#: the 533 MHz top bin is the paper's measurement point.
MALI_T604_OPPS = OPPTable(
    (
        OperatingPoint(100e6, 0.925),
        OperatingPoint(160e6, 0.95),
        OperatingPoint(266e6, 1.0),
        OperatingPoint(350e6, 1.075),
        OperatingPoint(450e6, 1.15),
        OperatingPoint(533e6, 1.25),
    )
)

#: Cortex-A15 OPPs of the Exynos 5250; 1.7 GHz is the paper's point.
A15_OPPS = OPPTable(
    (
        OperatingPoint(200e6, 0.9125),
        OperatingPoint(400e6, 0.925),
        OperatingPoint(600e6, 0.95),
        OperatingPoint(800e6, 1.0),
        OperatingPoint(1000e6, 1.05),
        OperatingPoint(1200e6, 1.125),
        OperatingPoint(1400e6, 1.2),
        OperatingPoint(1600e6, 1.25),
        OperatingPoint(1.7e9, 1.3),
    )
)


# ---------------------------------------------------------------------------
# platform derivation
# ---------------------------------------------------------------------------


def rails_at(
    rails: PowerRailConfig,
    *,
    gpu_table: OPPTable | None = None,
    gpu_opp: OperatingPoint | None = None,
    cpu_table: OPPTable | None = None,
    cpu_opp: OperatingPoint | None = None,
) -> PowerRailConfig:
    """Rail coefficients at given operating points.

    Scales only the dynamic coefficients of the affected rail — GPU:
    ``gpu_base_w`` / ``gpu_alu_w`` / ``gpu_ls_w``; CPU:
    ``cpu_core_base_w`` / ``cpu_core_ipc_w`` — by the rail's ``f · V²``
    factor.  The board floor, host polling and DRAM energy/byte are
    frequency-independent.  At a rail's nominal OPP the factor is
    exactly ``1.0`` and the coefficient survives bit for bit.
    """
    changes: dict[str, float] = {}
    if gpu_opp is not None:
        if gpu_table is None:
            raise ValueError("gpu_opp needs its gpu_table for the nominal point")
        factor = gpu_table.power_scale(gpu_opp)
        if factor != 1.0:
            changes["gpu_base_w"] = rails.gpu_base_w * factor
            changes["gpu_alu_w"] = rails.gpu_alu_w * factor
            changes["gpu_ls_w"] = rails.gpu_ls_w * factor
    if cpu_opp is not None:
        if cpu_table is None:
            raise ValueError("cpu_opp needs its cpu_table for the nominal point")
        factor = cpu_table.power_scale(cpu_opp)
        if factor != 1.0:
            changes["cpu_core_base_w"] = rails.cpu_core_base_w * factor
            changes["cpu_core_ipc_w"] = rails.cpu_core_ipc_w * factor
    return replace(rails, **changes) if changes else rails


def platform_at(
    base: ExynosPlatform,
    *,
    gpu_table: OPPTable | None = None,
    gpu_opp: OperatingPoint | None = None,
    cpu_table: OPPTable | None = None,
    cpu_opp: OperatingPoint | None = None,
) -> ExynosPlatform:
    """The platform with one or both rails moved to an operating point.

    Swaps ``clock_hz`` on the Mali / A15 config (timing reprices through
    the existing pricing models: 1/f on compute, clock-independent DRAM
    roofline term) and scales the dynamic rail coefficients by
    ``f · V²``.  With both rails at their nominal OPP the platform
    compares equal to ``base`` field for field.
    """
    changes: dict = {}
    if gpu_opp is not None and gpu_opp.frequency_hz != base.mali.clock_hz:
        changes["mali"] = replace(base.mali, clock_hz=gpu_opp.frequency_hz)
    if cpu_opp is not None and cpu_opp.frequency_hz != base.cpu.clock_hz:
        changes["cpu"] = replace(base.cpu, clock_hz=cpu_opp.frequency_hz)
    rails = rails_at(
        base.rails,
        gpu_table=gpu_table,
        gpu_opp=gpu_opp,
        cpu_table=cpu_table,
        cpu_opp=cpu_opp,
    )
    if rails is not base.rails:
        changes["rails"] = rails
    return replace(base, **changes) if changes else base


# ---------------------------------------------------------------------------
# frequency-response fit (the ondemand governor's model)
# ---------------------------------------------------------------------------


def frequency_response(
    t_slow: float, f_slow: float, t_fast: float, f_fast: float
) -> tuple[float, float]:
    """Fit ``t(f) = a/f + b`` from two (seconds, clock) samples.

    ``a/f`` is the clocked (busy) part of the region, ``b`` the
    clock-independent part (DRAM roofline term, fixed overheads) —
    exactly the split :mod:`repro.mali.timing` builds into
    ``GpuLaunchTiming``.  Both coefficients are clamped to ``>= 0``
    (float residue can push a tiny component negative).
    """
    if f_slow <= 0 or f_fast <= 0 or f_fast == f_slow:
        raise ValueError("need two distinct positive clock samples")
    if t_slow < 0 or t_fast < 0:
        raise ValueError("region times must be >= 0")
    b = (t_fast * f_fast - t_slow * f_slow) / (f_fast - f_slow)
    b = max(b, 0.0)
    a = max(f_fast * (t_fast - b), 0.0)
    return a, b


def utilization(a: float, b: float, frequency_hz: float) -> float:
    """Steady-state busy fraction ``(a/f) / (a/f + b)`` at a clock."""
    if frequency_hz <= 0:
        raise ValueError("frequency_hz must be positive")
    busy = a / frequency_hz
    total = busy + b
    if total <= 0:
        return 0.0
    return min(busy / total, 1.0)


# ---------------------------------------------------------------------------
# the governor decision
# ---------------------------------------------------------------------------


def settle(
    governor: str,
    table: OPPTable,
    *,
    time_at,
    deadline_s: float | None = None,
) -> OperatingPoint | None:
    """The operating point a governor settles on for one timed region.

    ``time_at(opp)`` is the region's model seconds at an OPP, ``inf``
    where the region cannot run (it fails to build or launch).

    * ``fixed`` and ``performance`` take the nominal (top) OPP,
      ``powersave`` the bottom one.
    * ``ondemand`` prices the region at the table's extremes, fits the
      two-point frequency response, and takes the *lowest* OPP whose
      steady-state utilization stays at or below
      :data:`ONDEMAND_UP_THRESHOLD` — the fixed point of the Linux
      governor's ramp-up rule for a steady workload (it would ramp up
      from any busier OPP, and it never ramps above the max).  It stays
      at the nominal OPP when either extreme prices ``inf``.
    * ``race_to_idle`` takes the max OPP and ``pace_to_deadline`` the
      slowest OPP whose time fits ``deadline_s`` (lowest voltage wins on
      the ``f · V²`` term); both return ``None`` when no candidate fits.
      The caller idles out the remaining slack of the window.
    """
    if governor in (GOVERNOR_DEFAULT, "performance"):
        return table.nominal
    if governor == "powersave":
        return table.min
    if governor == "ondemand":
        if len(table) == 1:
            return table.nominal
        t_slow, t_fast = time_at(table.min), time_at(table.max)
        if math.isinf(t_slow) or math.isinf(t_fast):
            return table.nominal
        a, b = frequency_response(
            t_slow, table.min.frequency_hz, t_fast, table.max.frequency_hz
        )
        for opp in table.points:
            if utilization(a, b, opp.frequency_hz) <= ONDEMAND_UP_THRESHOLD:
                return opp
        return table.max
    if governor not in DEADLINE_POLICIES:
        raise ValueError(f"unknown governor {governor!r}; expected one of {GOVERNORS}")
    if deadline_s is None or deadline_s <= 0:
        raise ValueError(f"{governor} needs a positive deadline_s")
    candidates = (table.max,) if governor == "race_to_idle" else table.points
    for opp in candidates:
        if time_at(opp) <= deadline_s:
            return opp
    return None
