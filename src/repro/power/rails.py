"""Board power rails for the Arndale / Exynos 5250.

The paper measures *wall* power of the whole board with a bench meter,
so the model sums rails: a constant board floor (regulators, DRAM
refresh, peripherals, the idle cluster), per-active-CPU-core dynamic
power scaling with achieved IPC, GPU power scaling with arithmetic and
load/store pipe utilization, and DRAM power proportional to bandwidth.

Rail coefficients are calibrated so the *ratios* the paper reports hold:
OpenMP ≈ +31 % over Serial (second core), OpenCL within ±20 % of Serial
(GPU active but CPU nearly idle), with memory-bound GPU runs *below*
Serial (ALUs idle) and compute-bound ones above (all pipes busy) —
Figure 3's spread.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import CalibrationError


class ActivityKind(enum.Enum):
    """What the board is doing during a power-trace segment."""

    IDLE = "idle"
    CPU = "cpu"            # serial or OpenMP compute
    GPU_KERNEL = "gpu"     # GPU executing, host core polling
    HOST_COPY = "copy"     # CPU moving buffers for the GPU


@dataclass(frozen=True)
class Activity:
    """One homogeneous segment of a run, as the power model sees it."""

    kind: ActivityKind
    duration_s: float
    active_cpu_cores: int = 0
    cpu_ipc: float = 0.0
    gpu_alu_utilization: float = 0.0
    gpu_ls_utilization: float = 0.0
    dram_bandwidth: float = 0.0  # bytes/s

    def __post_init__(self) -> None:
        if self.duration_s < 0:
            raise ValueError("duration_s must be >= 0")
        if not 0.0 <= self.gpu_alu_utilization <= 1.0:
            raise ValueError("gpu_alu_utilization must be in [0, 1]")
        if not 0.0 <= self.gpu_ls_utilization <= 1.0:
            raise ValueError("gpu_ls_utilization must be in [0, 1]")
        # a negative bandwidth would price board power *below* the idle
        # floor; negative cores/IPC would likewise subtract rail power
        if self.active_cpu_cores < 0:
            raise ValueError("active_cpu_cores must be >= 0")
        if self.cpu_ipc < 0:
            raise ValueError("cpu_ipc must be >= 0")
        if self.dram_bandwidth < 0:
            raise ValueError("dram_bandwidth must be >= 0")


@dataclass(frozen=True)
class PowerRailConfig:
    """Calibrated rail coefficients (watts)."""

    board_idle_w: float = 2.35
    #: active CPU core: static+clock component
    cpu_core_base_w: float = 0.70
    #: dynamic component per unit of achieved IPC per core
    cpu_core_ipc_w: float = 0.25
    #: GPU with clocks on but pipes idle
    gpu_base_w: float = 0.10
    #: GPU arithmetic pipes at 100 % utilization (all cores)
    gpu_alu_w: float = 1.20
    #: GPU load/store pipes at 100 % utilization
    gpu_ls_w: float = 0.50
    #: host core lightly polling the GPU queue
    host_polling_w: float = 0.15
    #: DRAM dynamic power per GB/s of traffic
    dram_w_per_gbps: float = 0.085

    def __post_init__(self) -> None:
        for name in (
            "board_idle_w",
            "cpu_core_base_w",
            "cpu_core_ipc_w",
            "gpu_base_w",
            "gpu_alu_w",
            "gpu_ls_w",
            "host_polling_w",
            "dram_w_per_gbps",
        ):
            if getattr(self, name) < 0:
                raise CalibrationError(f"{name} must be >= 0")

    # ------------------------------------------------------------------
    def power(self, activity: Activity) -> float:
        """Instantaneous board power (watts) during an activity segment:
        one lane of :func:`stack_watts`."""
        return float(
            stack_watts(
                self,
                activity.kind,
                dram_bandwidth=activity.dram_bandwidth,
                active_cpu_cores=activity.active_cpu_cores,
                cpu_ipc=activity.cpu_ipc,
                gpu_alu_utilization=activity.gpu_alu_utilization,
                gpu_ls_utilization=activity.gpu_ls_utilization,
            )
        )


def stack_watts(
    rails: PowerRailConfig,
    kind: ActivityKind,
    *,
    dram_bandwidth,
    active_cpu_cores=None,
    cpu_ipc=None,
    gpu_alu_utilization=None,
    gpu_ls_utilization=None,
):
    """The board rail chain over row arrays: watts per lane.

    All operands are float64 arrays (or scalars broadcasting over them),
    and :meth:`PowerRailConfig.power` is the one-lane call.  Each lane
    adds the rails in the order of the scalar reference in
    ``tests/pricing_oracle.py``, so it equals that chain bit for bit.
    ``active_cpu_cores`` lanes are clamped to at least one core.
    """
    import numpy as np

    bw = np.asarray(dram_bandwidth)
    if np.any(bw < 0):
        raise ValueError("dram_bandwidth must be >= 0")
    base = rails.board_idle_w + ((rails.dram_w_per_gbps * bw) / 1e9)
    if kind == ActivityKind.IDLE:
        return base
    if kind in (ActivityKind.CPU, ActivityKind.HOST_COPY):
        ipc = np.asarray(cpu_ipc)
        if np.any(ipc < 0):
            raise ValueError("cpu_ipc must be >= 0")
        cores = np.maximum(np.asarray(active_cpu_cores), 1)
        return base + cores * (rails.cpu_core_base_w + rails.cpu_core_ipc_w * ipc)
    if kind == ActivityKind.GPU_KERNEL:
        alu = np.asarray(gpu_alu_utilization)
        ls = np.asarray(gpu_ls_utilization)
        if np.any(alu < 0) or np.any(ls < 0):
            raise ValueError("GPU pipe utilizations must be >= 0")
        return (
            ((base + rails.host_polling_w) + rails.gpu_base_w)
            + rails.gpu_alu_w * alu
        ) + rails.gpu_ls_w * ls
    raise ValueError(f"unknown activity kind {kind!r}")


def gpu_floor_watts(rails: PowerRailConfig) -> float:
    """Rigorous lower bound on any GPU-kernel lane of :func:`stack_watts`.

    Exactly the zero-bandwidth, zero-utilization prefix of the GPU
    addition chain — ``(board_idle_w + host_polling_w) + gpu_base_w``
    in the same IEEE-754 operation order (``base`` collapses to the
    literal ``board_idle_w`` when the DRAM term is zero).  The omitted
    terms (DRAM traffic, ALU/LS utilization) are all non-negative and
    float rounding is monotone, so every real lane is >= this floor bit
    for bit.  The design-space pruning bound
    (:meth:`repro.designspace.DesignSpace.opt_bounds`) takes it of each
    distinct rail-scaled config.
    """
    return (rails.board_idle_w + rails.host_polling_w) + rails.gpu_base_w
