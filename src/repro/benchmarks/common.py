"""Shared host-code helpers for the GPU versions of the benchmarks.

All benchmarks use the paper's recommended host-code pattern (§III-A):
``CL_MEM_ALLOC_HOST_PTR`` buffers with map/unmap, so that "both the
application processor and the Mali GPU access the data" through the
unified memory with no copies.  The functional side copies nothing
either.  An input buffer is a read-only view of the instance's array,
as if the host had produced it in the mapped region, and its staging
still enqueues the map and unmap a writing host would.  An output
buffer is fresh.  The result is the one the last declared launch
writes through its last parameter, and
:func:`~repro.benchmarks.base.run_gpu_version` verifies it in its read
mapping.  So a kernel function must never write into an
input: one that does raises, and its cell fails.  The memmap ablation
bench exercises the slower flag combinations explicitly.

The host numerics follow one memory rule, for the same reason: on a
unified memory the cost lies in the bytes moved.  The only full-size
arrays a cell allocates are its inputs, its output buffer and a
memoized result.  Every other temporary works on :data:`BLOCK`
elements at a time (see :func:`blocks`), so it stays in cache instead
of faulting in fresh pages, and each float input is cast to the
instance's dtype as soon as it is drawn.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..ocl.buffer import Buffer
from ..ocl.context import Context
from ..ocl.enums import MapFlag, MemFlag
from ..ocl.queue import CommandQueue

#: elements in one piece of host scratch (``np.histogram`` bins in
#: pieces of the same size); a constant, not a tuning knob
BLOCK = 1 << 16


def blocks(n: int) -> Iterator[slice]:
    """Consecutive slices covering ``range(n)``, each ``BLOCK`` long
    (the last may be shorter)."""
    return (slice(start, start + BLOCK) for start in range(0, n, BLOCK))


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

