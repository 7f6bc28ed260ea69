"""DRAM bandwidth model for the Arndale board's DDR3L-1600 memory.

The Exynos 5250 has a 2×32-bit LPDDR3/DDR3L interface at 800 MHz DDR —
12.8 GB/s theoretical peak — shared by the Cortex-A15 cluster and the
Mali-T604.  A single in-order A15 core cannot generate enough outstanding
misses to saturate it; the GPU, with many threads in flight, gets much
closer.  :class:`DramModel` captures peak bandwidth, per-agent request
caps and multi-agent contention.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CalibrationError
from ..ir.nodes import AccessPattern
from .patterns import PatternEfficiency, effective_bandwidth_fraction


@dataclass(frozen=True)
class DramConfig:
    """Calibrated DRAM parameters (see ``repro.calibration.exynos5250``)."""

    #: theoretical peak bandwidth, bytes/second
    peak_bandwidth: float = 12.8e9
    #: per-agent sustainable caps (limited by outstanding-miss capacity)
    cpu_single_core_cap: float = 4.0e9
    cpu_dual_core_cap: float = 5.6e9
    gpu_cap: float = 7.8e9
    #: efficiency table for access patterns
    efficiency: PatternEfficiency = PatternEfficiency()
    #: bandwidth lost per additional active agent (banking conflicts)
    contention_penalty: float = 0.12

    def __post_init__(self) -> None:
        if self.peak_bandwidth <= 0:
            raise CalibrationError("peak_bandwidth must be positive")
        for cap in (self.cpu_single_core_cap, self.cpu_dual_core_cap, self.gpu_cap):
            if not 0 < cap <= self.peak_bandwidth:
                raise CalibrationError("agent caps must be in (0, peak_bandwidth]")


class DramModel:
    """Prices byte streams into transfer seconds."""

    def __init__(self, config: DramConfig | None = None):
        self.config = config or DramConfig()

    # ------------------------------------------------------------------
    def agent_cap(self, agent: str) -> float:
        """Sustainable request bandwidth for an agent before patterns."""
        caps = {
            "cpu1": self.config.cpu_single_core_cap,
            "cpu2": self.config.cpu_dual_core_cap,
            "gpu": self.config.gpu_cap,
        }
        try:
            return caps[agent]
        except KeyError:
            raise ValueError(f"unknown DRAM agent {agent!r}; expected one of {sorted(caps)}") from None

    def effective_bandwidth(
        self,
        agent: str,
        *,
        bytes_by_pattern: dict[AccessPattern, float],
        concurrent_agents: int = 1,
    ) -> float:
        """Achievable bytes/second for this stream mix from this agent.

        Everything past ``agent`` is keyword-only (the ``run_version``
        convention): a positional byte dict next to a positional agent
        count has silently transposed arguments before.
        """
        frac = effective_bandwidth_fraction(bytes_by_pattern, self.config.efficiency)
        cap = self.agent_cap(agent)
        contention = max(1.0 - self.config.contention_penalty * (concurrent_agents - 1), 0.25)
        return min(cap, self.config.peak_bandwidth) * min(frac, 1.0) * contention

    def transfer_seconds(
        self,
        agent: str,
        *,
        bytes_by_pattern: dict[AccessPattern, float],
        concurrent_agents: int = 1,
    ) -> float:
        """Seconds to move the given byte mix through DRAM (keyword-only)."""
        total = sum(bytes_by_pattern.values())
        if total <= 0.0:
            return 0.0
        bw = self.effective_bandwidth(
            agent, bytes_by_pattern=bytes_by_pattern, concurrent_agents=concurrent_agents
        )
        return total / bw
