"""Shared host-code helpers for the GPU versions of the benchmarks.

All benchmarks use the paper's recommended host-code pattern (§III-A):
``CL_MEM_ALLOC_HOST_PTR`` buffers with map/unmap staging, so that "both
the application processor and the Mali GPU access the data" through the
unified memory with no copies.  The memmap ablation bench exercises the
slower flag combinations explicitly.
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
    flags: MemFlag = MemFlag.READ_WRITE,
) -> Buffer:
    """Create an ``ALLOC_HOST_PTR`` buffer, staging ``data`` via map."""
    flags = flags | MemFlag.ALLOC_HOST_PTR
    if data is not None:
        buf = Buffer(ctx, flags, hostbuf=data)
        view, _ = queue.enqueue_map_buffer(buf, MapFlag.WRITE)
        view[...] = data
        queue.enqueue_unmap_mem_object(buf)
    else:
        buf = Buffer(ctx, flags, shape=shape, dtype=dtype)
    return buf


def read_mapped(queue: CommandQueue, buf: Buffer) -> np.ndarray:
    """Map a buffer for reading and return a copy of its contents."""
    view, _ = queue.enqueue_map_buffer(buf, MapFlag.READ)
    out = np.array(view, copy=True)
    queue.enqueue_unmap_mem_object(buf)
    return out


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

    def gpu_result(self, queue: CommandQueue, state: dict) -> np.ndarray:
        return read_mapped(queue, state["buffers"][self.result_buffer])
