"""OpenCL buffer objects and the Mali unified-memory semantics.

Section III-A of the paper, "Memory allocation and mapping", is about
exactly these objects:

* memory from plain ``malloc`` is **not** GPU-visible at all — a kernel
  argument must be a ``cl_mem``;
* ``CL_MEM_USE_HOST_PTR`` wraps an existing host allocation, but the
  driver still requires ``clEnqueueWriteBuffer``/``clEnqueueReadBuffer``
  copies to move data in and out — "it does not solve the additional
  copy issue";
* ``CL_MEM_ALLOC_HOST_PTR`` lets the driver allocate GPU-mapped memory
  that the host can *map* (``clEnqueueMapBuffer`` /
  ``clEnqueueUnmapMemObject``) at cache-maintenance cost only — the
  zero-copy path the paper recommends on this unified-memory SoC.

The buffer stores its device-visible contents in a NumPy array; the
command queue charges the appropriate transfer costs per flag.  An
input the host produced in a mapped region (:meth:`Buffer.host_produced`)
is stored as a read-only view of the host's array, not a copy.
"""

from __future__ import annotations

import numpy as np

from ..errors import CLInvalidMemObject, CLInvalidValue
from .context import Context
from .enums import MemFlag


class Buffer:
    """A ``cl_mem`` buffer object."""

    def __init__(
        self,
        context: Context,
        flags: MemFlag,
        hostbuf: np.ndarray | None = None,
        shape: tuple[int, ...] | int | None = None,
        dtype: np.dtype | type | None = None,
    ):
        if hostbuf is None and (shape is None or dtype is None):
            raise CLInvalidValue("Buffer needs either hostbuf or shape+dtype")
        if flags & MemFlag.USE_HOST_PTR and flags & MemFlag.ALLOC_HOST_PTR:
            raise CLInvalidValue("USE_HOST_PTR and ALLOC_HOST_PTR are mutually exclusive")
        if (flags & (MemFlag.USE_HOST_PTR | MemFlag.COPY_HOST_PTR)) and hostbuf is None:
            raise CLInvalidValue("USE_HOST_PTR/COPY_HOST_PTR require a hostbuf")

        self.host_array: np.ndarray | None = None
        if flags & MemFlag.USE_HOST_PTR:
            assert hostbuf is not None
            # device-visible storage is distinct: the driver copies
            self.host_array = hostbuf
            storage = np.zeros_like(hostbuf)
        elif hostbuf is not None:
            if flags & MemFlag.COPY_HOST_PTR:
                storage = np.array(hostbuf, copy=True)
            else:
                # shape/dtype template only; contents undefined
                storage = np.empty_like(hostbuf)
        else:
            storage = np.zeros(shape, dtype=dtype)
        self._attach(context, flags, storage)

    @classmethod
    def host_produced(cls, context: Context, data: np.ndarray) -> "Buffer":
        """A ``READ_ONLY | ALLOC_HOST_PTR`` buffer holding ``data``.

        Models a host that produced its input directly in the mapped
        region (§III-A), so the storage is a read-only view of ``data``:
        a kernel, fill or host write into it raises ``ValueError``.
        """
        view = data.view()
        view.flags.writeable = False
        buffer = cls.__new__(cls)
        buffer.host_array = None
        buffer._attach(context, MemFlag.READ_ONLY | MemFlag.ALLOC_HOST_PTR, view)
        return buffer

    def _attach(self, context: Context, flags: MemFlag, storage: np.ndarray) -> None:
        self.context = context
        self.flags = flags
        self.released = False
        self._mapped = False
        self._storage = storage
        context.register_buffer(self)

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Buffer size in bytes."""
        return int(self._storage.nbytes)

    @property
    def shape(self) -> tuple[int, ...]:
        return self._storage.shape

    @property
    def dtype(self) -> np.dtype:
        return self._storage.dtype

    @property
    def zero_copy(self) -> bool:
        """True when host mapping costs only cache maintenance."""
        return bool(self.flags & MemFlag.ALLOC_HOST_PTR)

    # ------------------------------------------------------------------
    # storage access — used by the queue, not by user code
    # ------------------------------------------------------------------
    def device_view(self) -> np.ndarray:
        """The device-visible contents (the simulated GPU's view)."""
        self._check_alive()
        if self._mapped:
            raise CLInvalidMemObject(
                f"buffer used by a kernel while mapped to the host; "
                f"unmap it first (clEnqueueUnmapMemObject)"
            )
        return self._storage

    def _map(self) -> np.ndarray:
        self._check_alive()
        if self._mapped:
            raise CLInvalidMemObject("buffer is already mapped")
        self._mapped = True
        return self._storage

    def _unmap(self) -> None:
        self._check_alive()
        if not self._mapped:
            raise CLInvalidMemObject("buffer is not mapped")
        self._mapped = False

    def _write_from(self, src: np.ndarray) -> int:
        self._check_alive()
        if src.nbytes != self.size:
            raise CLInvalidValue(
                f"write of {src.nbytes} bytes into a {self.size}-byte buffer"
            )
        np.copyto(self._storage, src.reshape(self._storage.shape))
        return self.size

    def _read_into(self, dst: np.ndarray) -> int:
        self._check_alive()
        if dst.nbytes != self.size:
            raise CLInvalidValue(
                f"read of {self.size} bytes into a {dst.nbytes}-byte array"
            )
        np.copyto(dst, self._storage.reshape(dst.shape))
        return self.size

    def release(self) -> None:
        """``clReleaseMemObject``."""
        self.released = True

    def _check_alive(self) -> None:
        if self.released:
            raise CLInvalidMemObject("buffer has been released")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Buffer(size={self.size}, flags={self.flags!r}, "
            f"mapped={self._mapped}, zero_copy={self.zero_copy})"
        )
