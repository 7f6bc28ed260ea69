"""Occupancy → latency-hiding model.

Midgard hides arithmetic and memory latency by keeping many threads
resident per core and switching between them every cycle.  With few
resident threads (register-hungry kernels, tiny work-groups) the pipes
stall on dependencies and DRAM latency shows through.  We model the
achievable fraction of pipe/bandwidth utilization as a saturating
function of resident threads: full hiding needs roughly
``FULL_HIDING_THREADS`` threads in flight, with diminishing returns
below that (square-root law — each extra thread hides a decreasing
share of remaining stall time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..compiler.regalloc import MAX_THREADS_PER_CORE
from ..errors import CLInvalidWorkGroupSize

#: resident threads per core at which latency is fully hidden
FULL_HIDING_THREADS = 64
#: resident threads per core needed to saturate DRAM bandwidth (fewer
#: than for ALU latency: each thread can have several misses in flight)
FULL_BANDWIDTH_THREADS = 32
#: utilization floor: even one thread keeps the pipes this busy
MIN_HIDING = 0.12


@dataclass(frozen=True)
class Occupancy:
    """Resident-thread state of one shader core for a launch."""

    threads_per_core: int
    resident_groups: int
    local_size: int

    @property
    def hiding(self) -> float:
        """Fraction of peak issue/bandwidth the core can sustain."""
        if self.threads_per_core >= FULL_HIDING_THREADS:
            return 1.0
        frac = self.threads_per_core / FULL_HIDING_THREADS
        return max(MIN_HIDING, math.sqrt(frac))

    @property
    def bandwidth_hiding(self) -> float:
        """Fraction of achievable DRAM bandwidth these threads sustain."""
        if self.threads_per_core >= FULL_BANDWIDTH_THREADS:
            return 1.0
        frac = self.threads_per_core / FULL_BANDWIDTH_THREADS
        return max(MIN_HIDING, math.sqrt(frac))

    @property
    def occupancy(self) -> float:
        return self.threads_per_core / MAX_THREADS_PER_CORE


def check_local_size(local_size: int) -> None:
    """Raise ``CL_INVALID_WORK_GROUP_SIZE`` unless one work-group of
    ``local_size`` threads fits on a shader core."""
    if local_size < 1:
        raise CLInvalidWorkGroupSize(f"local size must be >= 1, got {local_size}")
    if local_size > MAX_THREADS_PER_CORE:
        raise CLInvalidWorkGroupSize(
            f"local size {local_size} exceeds device maximum {MAX_THREADS_PER_CORE}"
        )


def derive_occupancy(register_limited_threads: int, local_size: int) -> Occupancy:
    """Resident threads per core given register limits and the WG size.

    Work-groups are resident as whole units, so the register-limited
    thread budget is quantized down to a multiple of ``local_size`` —
    this is how a badly chosen local size hurts even register-light
    kernels, and why the paper recommends tuning it by hand.

    Raises ``CL_INVALID_WORK_GROUP_SIZE`` semantics when a single
    work-group cannot fit on a core at all (:func:`check_local_size`).
    """
    check_local_size(local_size)
    groups = register_limited_threads // local_size
    if groups < 1:
        # a single work-group larger than the register-limited thread
        # budget still runs, but its threads time-share the register
        # file: effective parallelism drops below even the register
        # limit (this is how the driver's NULL pick of a too-large
        # local size hurts register-hungry kernels)
        effective = max(int(register_limited_threads * 0.6), 1)
        return Occupancy(
            threads_per_core=effective,
            resident_groups=1,
            local_size=local_size,
        )
    return Occupancy(
        threads_per_core=groups * local_size,
        resident_groups=groups,
        local_size=local_size,
    )
