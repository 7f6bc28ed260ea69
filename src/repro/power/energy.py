"""Energy-to-solution accounting.

The paper's Figure 4 metric: energy consumed by the timed region,
normalized to the Serial version.  ``energy = mean measured power ×
elapsed time``, with time and power coming from the timing models and
the meter simulation respectively.
"""

from __future__ import annotations

from dataclasses import dataclass

from .meter import PowerMeasurement


@dataclass(frozen=True)
class EnergyReport:
    """Time / power / energy of one benchmark run (one timed region)."""

    elapsed_s: float
    mean_power_w: float
    energy_j: float
    meter: PowerMeasurement | None = None

    def __post_init__(self) -> None:
        if self.elapsed_s < 0 or self.mean_power_w < 0 or self.energy_j < 0:
            raise ValueError("EnergyReport fields must be non-negative")

    @classmethod
    def from_measurement(cls, elapsed_s: float, meter: PowerMeasurement) -> "EnergyReport":
        return cls(
            elapsed_s=elapsed_s,
            mean_power_w=meter.mean_power_w,
            energy_j=meter.mean_power_w * elapsed_s,
            meter=meter,
        )
