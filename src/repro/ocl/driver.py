"""Driver-stack behaviours: quirks, heuristics and transfer costs.

Three empirical behaviours of the 2013 ARM Mali driver stack matter to
the paper's results and are modelled here:

* **the FP64 compiler defect** — "a compiler issue that does not allow
  the correct termination of the compilation phase for the OpenCL
  kernel in double precision" (paper §V-A, amcd).  The defect triggers
  on kernels combining double-precision arithmetic with an inlined
  integer-RNG helper (the Metropolis acceptance pattern);
* **the unreliable NULL local-size heuristic** — "we noticed that,
  currently, the driver is not always capable of doing a good
  selection" (§III-A): the driver picks the largest power-of-two
  divisor of the global size up to 128, ignoring register pressure and
  work-group-count quantization;
* **host transfer costs** — memcpy bandwidth for enqueue read/write
  copies and cache-maintenance cost for map/unmap on the unified
  memory, driving the Section III-A host-code comparison.

It also holds the rules every build and pricing path shares: the
quirk table of a platform (:func:`platform_quirks`), the launch
geometry (:func:`launch_geometry`) and the device-side fill
(:func:`fill_activity`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..calibration.exynos5250 import ExynosPlatform
from ..compiler.options import CompileOptions
from ..errors import CompilerInternalError
from ..ir.analysis import walk_stmts
from ..ir.nodes import Call, Kernel
from ..memory.dram import DramConfig
from ..power.rails import Activity, ActivityKind

#: sustained CPU memcpy bandwidth for enqueue read/write copies, bytes/s
HOST_MEMCPY_BANDWIDTH = 2.2e9
#: fixed driver cost of any enqueue data command, seconds
TRANSFER_BASE_OVERHEAD_S = 12e-6
#: cache clean/invalidate bandwidth for map/unmap on unified memory
CACHE_MAINTENANCE_BANDWIDTH = 9.0e9
#: fixed cost of a map or unmap call, seconds
MAP_BASE_OVERHEAD_S = 6e-6

#: helper-function names the FP64 compiler defect trips over
_RNG_HELPER_NAMES = frozenset({"lcg_rand", "xorshift", "rand_lcg"})


@dataclass(frozen=True)
class Fp64RngCompilerBug:
    """The amcd double-precision compile failure, as a quirk-table entry."""

    def check(self, kernel: Kernel, options: CompileOptions) -> None:
        if not kernel.uses_fp64:
            return
        for stmt in walk_stmts(kernel.body):
            if isinstance(stmt, Call) and stmt.name in _RNG_HELPER_NAMES:
                raise CompilerInternalError(
                    f"internal error: compilation of kernel {kernel.name!r} did not "
                    "terminate (known driver defect: fp64 kernels with inlined "
                    f"integer RNG helper {stmt.name!r}; fixed in a future driver)"
                )


@dataclass(frozen=True)
class EmbeddedProfileNoFp64:
    """OpenCL *Embedded Profile* restriction: no ``cl_khr_fp64``.

    §II-B of the paper: most pre-T604 embedded GPUs shipped the Embedded
    Profile, whose relaxations include exactly the 64-bit support HPC
    needs — "devices that can be profitably used in a HPC scenario will
    still have to support the OpenCL Full Profile".  Building a kernel
    that touches fp64 on such a device fails outright.
    """

    def check(self, kernel: Kernel, options: CompileOptions) -> None:
        if kernel.uses_fp64:
            raise CompilerInternalError(
                f"kernel {kernel.name!r} uses double precision, but this device "
                "implements only the OpenCL Embedded Profile (no cl_khr_fp64); "
                "HPC workloads require a Full Profile device such as the Mali-T604"
            )


def default_quirks() -> tuple:
    """The quirk table of the simulated driver version."""
    return (Fp64RngCompilerBug(),)


def platform_quirks(platform: ExynosPlatform | None) -> tuple:
    """The quirk table a kernel builds under on ``platform``: its own
    ``driver_quirks``, else (and without a platform) :func:`default_quirks`.

    The run path's program build, the tuner's pricer and the design
    space all compile under this rule.
    """
    quirks = None if platform is None else platform.driver_quirks
    return default_quirks() if quirks is None else quirks


def embedded_profile_quirks() -> tuple:
    """Quirk table of a pre-T604 Embedded Profile device."""
    return (EmbeddedProfileNoFp64(), Fp64RngCompilerBug())


def driver_local_size(global_size: int, max_work_group_size: int) -> int:
    """The driver's work-group size pick when ``local_work_size=NULL``.

    Real behaviour per the paper: frequently adequate, sometimes bad.
    The modelled heuristic takes the largest power-of-two divisor of the
    global size, capped at 128 — it never considers register pressure
    (so register-heavy kernels get quantized occupancy) nor the
    work-group count (so small launches land on fewer groups than
    cores).
    """
    if global_size < 1:
        raise ValueError("global_size must be >= 1")
    pick = 1
    while pick * 2 <= min(128, max_work_group_size) and global_size % (pick * 2) == 0:
        pick *= 2
    return pick


def launch_geometry(
    n_elements: int, elems_per_item: int, local_size: int | None, max_work_group_size: int
) -> tuple[int, int]:
    """``(global size, local size)`` of a launch covering ``n_elements``.

    Each work-item covers ``elems_per_item`` elements (vectorized
    kernels need a proportionally smaller grid).  An explicit local size
    rounds the global size up to a multiple of it (kernels guard the
    tail); ``None`` takes the driver's pick for the unrounded grid.  The
    run path, the tuner and the design space all size launches here.
    """
    global_size = max(1, -(-n_elements // elems_per_item))
    if local_size is None:
        return global_size, driver_local_size(global_size, max_work_group_size)
    return -(-global_size // local_size) * local_size, local_size


def fill_activity(nbytes: int, dram: DramConfig) -> Activity:
    """``clEnqueueFillBuffer`` of ``nbytes``: a device-side memset.

    On the unified-memory Mali a fill is a GPU-side write stream at the
    store bandwidth, with a fixed floor for the command itself; it is
    how kernels like the histogram zero their accumulators inside the
    timed region.
    """
    bw = dram.gpu_cap * dram.efficiency.unit
    duration = max(nbytes / bw, 2e-6)
    return Activity(
        kind=ActivityKind.GPU_KERNEL,
        duration_s=duration,
        gpu_alu_utilization=0.02,
        gpu_ls_utilization=0.9,
        dram_bandwidth=nbytes / duration,
    )


def copy_seconds(nbytes: int) -> float:
    """Host-side time for an enqueue read/write copy of ``nbytes``."""
    return TRANSFER_BASE_OVERHEAD_S + nbytes / HOST_MEMCPY_BANDWIDTH


def map_seconds(nbytes: int, zero_copy: bool) -> float:
    """Host-side time for a map (or unmap) of ``nbytes``.

    Zero-copy (ALLOC_HOST_PTR) buffers pay only cache maintenance; a
    map of a non-host-allocated buffer degenerates to a full copy.
    """
    if zero_copy:
        return MAP_BASE_OVERHEAD_S + nbytes / CACHE_MAINTENANCE_BANDWIDTH
    return copy_seconds(nbytes)
