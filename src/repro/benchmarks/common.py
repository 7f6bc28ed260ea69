"""Shared host-code helpers for the GPU versions of the benchmarks.

All benchmarks use the paper's recommended host-code pattern (§III-A):
``CL_MEM_ALLOC_HOST_PTR`` buffers with map/unmap, so that "both the
application processor and the Mali GPU access the data" through the
unified memory with no copies.  The functional side copies nothing
either.  An input buffer is a read-only view of the instance's array,
as if the host had produced it in the mapped region, and its staging
still enqueues the map and unmap a writing host would.  An output
buffer is fresh: ``gpu_result`` hands it back, and
:func:`~repro.benchmarks.base.run_gpu_version` verifies the result in
its read mapping.  So a kernel function must never write into an
input: one that does raises, and its cell fails.  The memmap ablation
bench exercises the slower flag combinations explicitly.
"""

from __future__ import annotations

import numpy as np

from ..ocl.buffer import Buffer
from ..ocl.context import Context
from ..ocl.enums import MapFlag, MemFlag
from ..ocl.queue import CommandQueue


def alloc_mapped(
    ctx: Context,
    queue: CommandQueue,
    data: np.ndarray | None = None,
    shape: tuple[int, ...] | int | None = None,
    dtype=None,
) -> Buffer:
    """An ``ALLOC_HOST_PTR`` buffer: the input ``data``, or an output.

    With ``data`` the buffer shares it read-only (no copy) and is staged
    through a write map and an unmap; without, it is a zeroed
    ``READ_WRITE`` buffer of ``shape`` and ``dtype``.
    """
    if data is None:
        return Buffer(ctx, MemFlag.READ_WRITE | MemFlag.ALLOC_HOST_PTR, shape=shape, dtype=dtype)
    buf = Buffer.host_produced(ctx, data)
    queue.enqueue_map_buffer(buf, MapFlag.WRITE)
    queue.enqueue_unmap_mem_object(buf)
    return buf


class SingleKernelMixin:
    """GPU set-up for benchmarks with one kernel and one launch (the
    default :meth:`~repro.benchmarks.base.Benchmark.iteration_cells`).

    Subclasses provide :meth:`gpu_buffers` (ordered as the kernel's
    parameters, with the output under the key named by
    ``result_buffer``) and :meth:`kernel_func`.
    """

    #: key of the output buffer in the :meth:`gpu_buffers` dict
    result_buffer: str = "out"

    def gpu_buffers(self, ctx: Context, queue: CommandQueue) -> dict[str, Buffer]:
        raise NotImplementedError

    def kernel_func(self):
        raise NotImplementedError

    def gpu_setup(self, ctx: Context, queue: CommandQueue, options) -> dict:
        from ..ocl.program import KernelSpec, Program

        ir = self.kernel_ir(options)
        spec = KernelSpec(ir=ir, func=self.kernel_func(), traits=self.gpu_traits(options))
        program = Program(ctx, [spec]).build(options)
        kernel = program.create_kernel(ir.name)
        buffers = self.gpu_buffers(ctx, queue)
        kernel.set_args(*buffers.values())
        return {"kernels": {ir.name: kernel}, "buffers": buffers, "options": options}

    def gpu_result(self, state: dict) -> Buffer:
        return state["buffers"][self.result_buffer]
