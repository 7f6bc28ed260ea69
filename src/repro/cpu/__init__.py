"""Cortex-A15 CPU models: serial and OpenMP baselines."""

from .config import A15Config, DEFAULT_CPU_OP_CYCLES
from .serial import CpuTiming

__all__ = ["A15Config", "CpuTiming", "DEFAULT_CPU_OP_CYCLES"]
