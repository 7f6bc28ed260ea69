"""The nine HPC benchmarks of the paper (§IV-A), in four versions each."""

from .amcd import Amcd, simulate_chains
from .base import (
    Benchmark,
    Draws,
    MIN_METER_SAMPLES,
    Precision,
    RunResult,
    Version,
    execute_run,
    execute_runs,
    measure_trace,
    run_cpu_version,
    run_gpu_version,
    run_version,
)
from .conv2d import Conv2D
from .dmmm import Dmmm
from .hist import Histogram
from .nbody import NBody, nbody_step
from .reduction import Reduction
from .registry import BENCHMARKS, PAPER_ORDER, all_benchmarks, create
from .spmv import SpMV
from .stencil3d import Stencil3D
from .vecop import VecOp

__all__ = [
    "Amcd",
    "BENCHMARKS",
    "Benchmark",
    "Conv2D",
    "Dmmm",
    "Draws",
    "Histogram",
    "MIN_METER_SAMPLES",
    "NBody",
    "PAPER_ORDER",
    "Precision",
    "Reduction",
    "RunResult",
    "SpMV",
    "Stencil3D",
    "VecOp",
    "Version",
    "all_benchmarks",
    "create",
    "execute_run",
    "execute_runs",
    "measure_trace",
    "nbody_step",
    "run_cpu_version",
    "run_gpu_version",
    "run_version",
    "simulate_chains",
]
