"""Board power model: activities → a piecewise-constant power trace."""

from __future__ import annotations

from dataclasses import dataclass

from .rails import Activity, PowerRailConfig


@dataclass(frozen=True)
class TraceSegment:
    """One homogeneous stretch of the power trace."""

    duration_s: float
    watts: float


@dataclass(frozen=True)
class PowerTrace:
    """Piecewise-constant board power over a run.

    ``repeats`` counts back-to-back repetitions of ``segments`` without
    materializing them: a 20k-repeat meter run stays a handful of
    :class:`TraceSegment` objects plus a counter.  Every derived
    quantity accumulates in the exact order the materialized tuple
    would (float addition is not associative), so a lazy trace is
    observationally identical to ``PowerTrace(segments * repeats)``.
    """

    segments: tuple[TraceSegment, ...]
    repeats: int = 1

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")

    @property
    def duration_s(self) -> float:
        total = 0.0
        for _ in range(self.repeats):
            for s in self.segments:
                total += s.duration_s
        return total

    @property
    def energy_j(self) -> float:
        """Exact energy of the trace (what a perfect meter would report)."""
        total = 0.0
        for _ in range(self.repeats):
            for s in self.segments:
                total += s.duration_s * s.watts
        return total

    @property
    def mean_power_w(self) -> float:
        d = self.duration_s
        return self.energy_j / d if d > 0 else 0.0

    def power_at(self, t: float) -> float:
        """Instantaneous power at time ``t`` (for the sampling meter)."""
        acc = 0.0
        for _ in range(self.repeats):
            for seg in self.segments:
                acc += seg.duration_s
                if t < acc:
                    return seg.watts
        return self.segments[-1].watts if self.segments else 0.0

    def repeated(self, times: int) -> "PowerTrace":
        """The trace of ``times`` back-to-back repetitions of the run."""
        if times < 1:
            raise ValueError("times must be >= 1")
        return PowerTrace(self.segments, self.repeats * times)


class BoardPowerModel:
    """Turns a sequence of activities into a power trace."""

    def __init__(self, rails: PowerRailConfig | None = None):
        self.rails = rails or PowerRailConfig()

    def trace(self, activities: list[Activity]) -> PowerTrace:
        segments = tuple(
            TraceSegment(duration_s=a.duration_s, watts=self.rails.power(a))
            for a in activities
            if a.duration_s > 0.0
        )
        if not segments:
            raise ValueError("no non-empty activity segments")
        return PowerTrace(segments)
