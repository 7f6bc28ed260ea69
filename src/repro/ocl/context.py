"""OpenCL context (``clCreateContext`` analogue)."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import CLInvalidValue
from .device import Device


@dataclass
class Context:
    """Owns devices and the memory objects created against them."""

    devices: tuple[Device, ...]
    _buffers: list = field(default_factory=list, repr=False)

    def __init__(self, devices: tuple[Device, ...] | list[Device] | Device):
        if isinstance(devices, Device):
            devices = (devices,)
        devices = tuple(devices)
        if not devices:
            raise CLInvalidValue("a context needs at least one device")
        self.devices = devices
        self._buffers = []

    @property
    def device(self) -> Device:
        """The single device of a one-device context (the common case)."""
        return self.devices[0]

    def register_buffer(self, buffer) -> None:
        self._buffers.append(buffer)

    def release(self) -> None:
        """``clReleaseContext``: release and forget every memory object
        created against this context."""
        for buffer in self._buffers:
            buffer.release()
        self._buffers.clear()

    @property
    def allocated_bytes(self) -> int:
        return sum(b.size for b in self._buffers if not b.released)
