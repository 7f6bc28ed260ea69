"""Cell types of the pricing entry points.

A *cell* is one unit of model-evaluation work: one GPU launch to time,
or one CPU (Serial/OpenMP) iteration to time.  Cells are plain frozen
descriptions — no model state — so a design-space sweep can stack
thousands of them as the lanes of one config-axis stack
(:class:`~repro.mali.timing.GpuConfigStack`,
:class:`~repro.cpu.pricing.CpuConfigStack`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..compiler.pipeline import CompiledKernel
from ..ir.analysis import InstructionMix
from ..workload import WorkloadTraits

#: ``CpuCell.mode`` values
MODE_SERIAL = "serial"
MODE_OPENMP = "openmp"


@dataclass(frozen=True)
class GpuLaunchCell:
    """One NDRange launch to price (the ``time_launch`` argument set)."""

    compiled: CompiledKernel
    traits: WorkloadTraits
    n_items: int
    local_size: int
    concurrent_agents: int = 1


@dataclass(frozen=True)
class CpuCell:
    """One Serial or OpenMP timed iteration to price."""

    mix: InstructionMix
    mode: str
    n_elements: int
    traits: WorkloadTraits

    def __post_init__(self) -> None:
        if self.mode not in (MODE_SERIAL, MODE_OPENMP):
            raise ValueError(f"unknown CPU pricing mode {self.mode!r}")
