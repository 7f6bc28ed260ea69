"""Pricing: one entry point per cell kind.

The paper reports one time, power and energy per (benchmark, version,
precision) cell, so a run needs one price per launch and per CPU
region:

* a GPU launch — :meth:`~repro.mali.timing.LaunchPricer.price`, which
  the tuner reaches through ``platform.pricing_model().gpu.pricer()``
  and the command queue through :func:`~repro.mali.timing.time_launch`;
* a CPU (Serial/OpenMP) cell —
  :meth:`~repro.pricing.grid.PlatformPricing.price_one`, memoized by
  :func:`~repro.benchmarks.base.cpu_region_timing`;
* a DRAM transfer — :meth:`~repro.memory.dram.DramModel.transfer_seconds`;
* a power trace — :meth:`~repro.power.model.BoardPowerModel.trace`.

The launch and CPU formulas exist once, as the array epilogues of the
config-axis stacks (:class:`~repro.mali.timing.GpuConfigStack`,
:class:`~repro.cpu.pricing.CpuConfigStack`); each entry point prices a
one-lane stack, and a design-space sweep prices thousands of
:mod:`~repro.pricing.cells` as the lanes of one.  Every lane is bitwise
what the scalar references of ``tests/pricing_oracle.py`` compute.
"""

from __future__ import annotations

from .cells import MODE_OPENMP, MODE_SERIAL, CpuCell, GpuLaunchCell

__all__ = [
    "CpuCell",
    "GpuLaunchCell",
    "MODE_OPENMP",
    "MODE_SERIAL",
]
