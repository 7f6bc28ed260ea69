"""Two-core OpenMP timing model.

The OpenMP versions split the element loop across both Cortex-A15 cores.
Observed scaling in the paper is 1.2×–1.9× (mean 1.7×) — never 2× —
because of four effects, each modelled explicitly:

* **Amdahl** — per-benchmark serial fractions (hist's bucket merge,
  red's final reduction) stay on one core;
* **bandwidth contention** — two cores share the DDR3L interface and
  together sustain only ~1.4× the single-core bandwidth;
* **imbalance** — ragged per-chunk work (spmv rows) makes the slower
  core set the finish time;
* **runtime overhead** — fork/join per parallel region and per-thread
  chunk scheduling.
"""

from __future__ import annotations

from ..ir.analysis import InstructionMix
from ..memory.cache import CacheHierarchy
from ..memory.dram import DramModel
from ..workload import WorkloadTraits
from .config import A15Config
from .serial import CpuTiming


def time_openmp(
    mix: InstructionMix,
    n_elements: int,
    traits: WorkloadTraits,
    config: A15Config,
    dram: DramModel,
    caches: CacheHierarchy,
) -> CpuTiming:
    """Price one timed iteration of the OpenMP version on both cores.

    A one-lane view over :class:`~repro.cpu.pricing.CpuConfigStack`
    (through :class:`~repro.cpu.pricing.CpuPricer`).
    """
    from .pricing import CpuPricer  # deferred: pricing imports CpuTiming

    return CpuPricer(mix, traits, config, dram, caches).price_openmp((n_elements,))[0]
