"""Batched grid pricing: one protocol, four layer implementations.

A planner describes its work as :mod:`~repro.pricing.cells` values and
hands the list to a :class:`PricingModel`.  The GPU and CPU layers
price a call's cells as the lanes of one config-axis stack
(:class:`~repro.mali.timing.GpuConfigStack`,
:class:`~repro.cpu.pricing.CpuConfigStack`), the one implementation of
their formulas; the DRAM and power layers price cell by cell through
their scalar models (``transfer_seconds``, ``BoardPowerModel.trace``),
which are what production calls.

The contract every implementation honors is **bitwise identity**: the
batched rows equal the scalar models' results bit for bit — elementwise
float64 operations match the scalar expressions, reductions accumulate
sequentially in source dict order (never ``np.sum``), and guarded-out
terms are added as exact ``0.0``.  The single-cell entry points
(``time_launch``, ``time_serial``, ``time_openmp``,
``transfer_seconds``, ``BoardPowerModel.trace``) are one-lane views or
conveniences over the same code, and memo cache keys are unchanged.

Implementations:

* :class:`~repro.mali.timing.GpuPricingModel` — launch timings;
* :class:`~repro.cpu.pricing.CpuPricingModel` — Serial/OpenMP timings;
* :class:`~repro.memory.dram.DramPricingModel` — transfer seconds;
* :class:`~repro.power.model.PowerPricingModel` — power traces;
* :class:`~repro.pricing.grid.PlatformPricing` — all four behind one
  platform-level facade (``ExynosPlatform.pricing_model()``).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from .cells import (
    MODE_OPENMP,
    MODE_SERIAL,
    CpuCell,
    GpuLaunchCell,
    TraceCell,
    TransferCell,
)

__all__ = [
    "CpuCell",
    "GpuLaunchCell",
    "MODE_OPENMP",
    "MODE_SERIAL",
    "PricingModel",
    "TraceCell",
    "TransferCell",
]


@runtime_checkable
class PricingModel(Protocol):
    """Batched evaluation surface of one model layer.

    ``price`` takes a whole planned sequence of cells and returns one
    result row per cell, in order, computed with as few vectorized
    passes as the layer can manage; ``price_one`` is the single-cell
    convenience the scalar entry points shim through.  Rows are the
    layer's existing result types (``GpuLaunchTiming``, ``CpuTiming``,
    transfer seconds, ``PowerTrace``) — batched pricing changes how many
    Python-level passes run, never what they return.
    """

    def price(self, cells) -> tuple:
        """One result row per cell, in input order."""
        ...  # pragma: no cover - protocol

    def price_one(self, cell):
        """The row a one-element ``price`` would return."""
        ...  # pragma: no cover - protocol
