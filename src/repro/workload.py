"""Workload traits shared by every device model.

The kernel IR describes *what one work-item does*; :class:`WorkloadTraits`
describes the *dataset-level* properties a cycle-accurate simulator would
discover from addresses but an analytical model must be told: per-buffer
footprints and reuse (for the cache model), load imbalance (spmv's ragged
rows), and the serial fractions of the CPU implementations (hist's
reduction stage, red's final pass).

Benchmarks construct these from their actual problem instances — e.g.
spmv computes the row-length coefficient of variation from the matrix it
actually built — so the traits are measured properties of real data, not
free parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .memory.cache import StreamSpec


@dataclass(frozen=True)
class WorkloadTraits:
    """Dataset-level properties of one benchmark version's kernel run.

    Attributes:
        streams: per-buffer traffic description for the cache hierarchy.
        imbalance_cv: coefficient of variation of per-work-item (or
            per-chunk) work; 0 means perfectly uniform.  Drives the GPU
            job-manager imbalance term and the OpenMP imbalance term.
        serial_fraction: fraction of total work that cannot be
            parallelized on the CPU (Amdahl term for the OpenMP model).
        elements: logical problem elements processed per timed iteration
            (the NDRange before vectorization divides it).
    """

    streams: tuple[StreamSpec, ...] = ()
    imbalance_cv: float = 0.0
    serial_fraction: float = 0.0
    elements: int = 0

    def __post_init__(self) -> None:
        if self.imbalance_cv < 0:
            raise ValueError("imbalance_cv must be >= 0")
        if not 0.0 <= self.serial_fraction <= 1.0:
            raise ValueError("serial_fraction must be in [0, 1]")
        if self.elements < 0:
            raise ValueError("elements must be >= 0")

    @property
    def total_footprint_bytes(self) -> float:
        return sum(s.footprint_bytes for s in self.streams)
