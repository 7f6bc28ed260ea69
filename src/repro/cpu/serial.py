"""Single-core Cortex-A15 timing from the same kernel IR.

The Serial baseline executes the scalar (naive) kernel body once per
problem element inside an ordinary ``for`` loop.  ``time_serial``
therefore prices the *uncompiled* scalar IR: per-element arithmetic
through the core's functional units, loads/stores through the L1 with
L2/DRAM penalties from the cache model, branch misprediction, and a
DRAM roofline at the single-core bandwidth cap — partly hidden by the
A15's out-of-order window.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.analysis import InstructionMix
from ..memory.cache import CacheHierarchy
from ..memory.dram import DramModel
from ..workload import WorkloadTraits
from .config import A15Config


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


def time_serial(
    mix: InstructionMix,
    n_elements: int,
    traits: WorkloadTraits,
    config: A15Config,
    dram: DramModel,
    caches: CacheHierarchy,
) -> CpuTiming:
    """Price one timed iteration of the Serial version.

    ``mix`` is the per-element instruction mix (the scalar kernel IR
    analyzed as-is); ``n_elements`` is the element count of one timed
    iteration; ``traits.streams`` describe that iteration's footprints.

    A one-lane view over :class:`~repro.cpu.pricing.CpuConfigStack`
    (through :class:`~repro.cpu.pricing.CpuPricer`); sweeps pricing many
    cells build one stack over them instead, one lane per cell.
    """
    from .pricing import CpuPricer  # deferred: pricing imports CpuTiming

    return CpuPricer(mix, traits, config, dram, caches).price_serial((n_elements,))[0]
