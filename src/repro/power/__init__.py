"""Power and energy measurement stack: rails, trace, meter, energy, DVFS."""

from .dvfs import (
    A15_OPPS,
    DEADLINE_POLICIES,
    FREQUENCY_GOVERNORS,
    GOVERNOR_DEFAULT,
    GOVERNORS,
    MALI_T604_OPPS,
    OperatingPoint,
    OPPTable,
    platform_at,
    settle,
)
from .energy import EnergyReport
from .meter import PowerMeasurement, YokogawaWT230
from .model import BoardPowerModel, PowerTrace, TraceSegment
from .rails import Activity, ActivityKind, PowerRailConfig

__all__ = [
    "A15_OPPS",
    "Activity",
    "ActivityKind",
    "BoardPowerModel",
    "DEADLINE_POLICIES",
    "EnergyReport",
    "FREQUENCY_GOVERNORS",
    "GOVERNOR_DEFAULT",
    "GOVERNORS",
    "MALI_T604_OPPS",
    "OperatingPoint",
    "OPPTable",
    "PowerMeasurement",
    "PowerRailConfig",
    "PowerTrace",
    "TraceSegment",
    "YokogawaWT230",
    "platform_at",
    "settle",
]
