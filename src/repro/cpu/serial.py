"""Single-core Cortex-A15 timing from the same kernel IR.

The Serial baseline executes the scalar (naive) kernel body once per
problem element inside an ordinary ``for`` loop.  The A15 model
(:mod:`repro.cpu.pricing`) therefore prices the *uncompiled* scalar
IR: per-element arithmetic through the core's functional units,
loads/stores through the L1 with L2/DRAM penalties from the cache
model, branch misprediction, and a DRAM roofline at the single-core
bandwidth cap — partly hidden by the A15's out-of-order window.
:class:`CpuTiming` is the row it returns per cell.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CpuTiming:
    """Timing breakdown of one timed iteration on the CPU."""

    seconds: float
    compute_seconds: float
    mem_stall_seconds: float
    dram_seconds: float
    overhead_seconds: float
    dram_bytes: float
    active_cores: int
    #: instructions-per-cycle estimate over the run (power-model input)
    ipc: float

    @property
    def dram_bandwidth(self) -> float:
        return self.dram_bytes / self.seconds if self.seconds > 0 else 0.0
