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
"""

from __future__ import annotations

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


def select_opp(
    table: OPPTable,
    governor: str,
    *,
    time_at=None,
    up_threshold: float = ONDEMAND_UP_THRESHOLD,
) -> OperatingPoint:
    """The operating point a frequency governor settles on.

    ``performance`` takes the max OPP, ``powersave`` the min.
    ``ondemand`` prices the region at the table's extremes via
    ``time_at(opp) -> seconds``, fits the two-point frequency response,
    and picks the *lowest* OPP whose steady-state utilization stays at
    or below ``up_threshold`` — the fixed point of the Linux governor's
    ramp-up rule for a steady workload (it would ramp up from any
    busier OPP, and it never ramps above the max).
    """
    if governor == "performance":
        return table.max
    if governor == "powersave":
        return table.min
    if governor != "ondemand":
        raise ValueError(f"unknown frequency governor {governor!r}")
    if len(table) == 1:
        return table.max
    if time_at is None:
        raise ValueError("the ondemand governor needs a time_at(opp) estimator")
    a, b = frequency_response(
        time_at(table.min),
        table.min.frequency_hz,
        time_at(table.max),
        table.max.frequency_hz,
    )
    for opp in table.points:
        if utilization(a, b, opp.frequency_hz) <= up_threshold:
            return opp
    return table.max


# ---------------------------------------------------------------------------
# deadline policies
# ---------------------------------------------------------------------------


class DeadlineInfeasible(ValueError):
    """No operating point finishes the region within the deadline."""


@dataclass(frozen=True)
class PolicyPlan:
    """One energy policy's schedule of a timed region under a deadline.

    The window is exactly ``deadline_s`` long: the region runs at
    ``opp`` for ``work_s`` seconds drawing ``work_power_w``, then the
    board sits at ``idle_power_w`` for the remaining slack.  Energy is
    the closed-form two-segment sum the property tests check against
    the trace-based accounting.
    """

    policy: str
    opp: OperatingPoint
    work_s: float
    deadline_s: float
    work_power_w: float
    idle_power_w: float

    def __post_init__(self) -> None:
        if self.work_s < 0 or self.deadline_s <= 0:
            raise ValueError("work_s must be >= 0 and deadline_s > 0")
        if self.work_s > self.deadline_s:
            raise ValueError("plan misses its deadline")
        if self.work_power_w < 0 or self.idle_power_w < 0:
            raise ValueError("plan powers must be >= 0")

    @property
    def slack_s(self) -> float:
        return self.deadline_s - self.work_s

    @property
    def energy_j(self) -> float:
        """Closed-form window energy: work segment plus idle slack."""
        return self.work_s * self.work_power_w + self.slack_s * self.idle_power_w

    @property
    def mean_power_w(self) -> float:
        """Window-average power (the meter's view over the deadline)."""
        return self.energy_j / self.deadline_s


def plan_policy(
    policy: str,
    table: OPPTable,
    *,
    deadline_s: float,
    time_at,
    power_at,
    idle_power_w: float,
) -> PolicyPlan:
    """Schedule a timed region under ``policy`` and a deadline.

    ``time_at(opp)`` and ``power_at(opp)`` are model estimators for the
    region's seconds and mean work power at an operating point.

    * ``race_to_idle`` — max OPP, then the idle floor for the slack.
    * ``pace_to_deadline`` — the lowest-frequency OPP whose time still
      fits the deadline (lowest voltage wins on the ``f · V²`` term,
      which is what makes pacing beat racing whenever the idle floor is
      small against the voltage saving).

    Raises :class:`DeadlineInfeasible` when even the max OPP misses.
    """
    if deadline_s <= 0:
        raise ValueError("deadline_s must be positive")
    if policy == "race_to_idle":
        opp = table.max
        work = time_at(opp)
        if work > deadline_s:
            raise DeadlineInfeasible(
                f"race_to_idle: even the max OPP "
                f"({opp.frequency_hz / 1e6:g} MHz) needs {work:.6g} s "
                f"against a {deadline_s:.6g} s deadline"
            )
        return PolicyPlan(
            policy=policy,
            opp=opp,
            work_s=work,
            deadline_s=deadline_s,
            work_power_w=power_at(opp),
            idle_power_w=idle_power_w,
        )
    if policy != "pace_to_deadline":
        raise ValueError(f"unknown energy policy {policy!r}")
    for opp in table.points:
        work = time_at(opp)
        if work <= deadline_s:
            return PolicyPlan(
                policy=policy,
                opp=opp,
                work_s=work,
                deadline_s=deadline_s,
                work_power_w=power_at(opp),
                idle_power_w=idle_power_w,
            )
    raise DeadlineInfeasible(
        f"pace_to_deadline: no OPP of the "
        f"{len(table)}-point table meets the {deadline_s:.6g} s deadline"
    )
