"""OpenCL device objects backed by the simulated hardware."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..calibration.exynos5250 import ExynosPlatform, default_platform
from .enums import DeviceType


@dataclass(frozen=True)
class Device:
    """A compute device of the simulated platform.

    The Mali-T604 is the paper's subject: the first embedded GPU with
    OpenCL **Full Profile** support, including ``cl_khr_fp64`` — the
    property that makes it HPC-relevant at all (Embedded Profile
    relaxes exactly the FP64/IEEE-754 guarantees HPC needs).
    """

    name: str
    device_type: DeviceType
    vendor: str
    profile: str
    extensions: tuple[str, ...]
    max_work_group_size: int
    max_compute_units: int
    global_mem_bytes: int
    hardware: ExynosPlatform = field(repr=False, compare=False, default=None)  # type: ignore[assignment]

    def supports_fp64(self) -> bool:
        return "cl_khr_fp64" in self.extensions


def mali_embedded_profile(platform: ExynosPlatform | None = None) -> Device:
    """A pre-T604 embedded GPU exposing only the *Embedded Profile*.

    §II-B: the Embedded Profile relaxes 64-bit integer support, image
    support and the floating-point requirements — everything HPC needs.
    This device exists so the Full-vs-Embedded contrast the paper builds
    its relevance on can be demonstrated: double-precision kernels fail
    to build here.
    """
    import dataclasses

    from .driver import embedded_profile_quirks

    hw = platform or default_platform()
    hw = dataclasses.replace(hw, driver_quirks=embedded_profile_quirks())
    return Device(
        name="Embedded-Profile GPU (pre-T604 class)",
        device_type=DeviceType.GPU,
        vendor="ARM",
        profile="EMBEDDED_PROFILE",
        extensions=("cl_khr_global_int32_base_atomics",),
        max_work_group_size=hw.mali.max_work_group_size,
        max_compute_units=hw.mali.shader_cores,
        global_mem_bytes=2 * 1024**3,
        hardware=hw,
    )


def mali_t604(platform: ExynosPlatform | None = None) -> Device:
    """The simulated Mali-T604 device."""
    hw = platform or default_platform()
    return Device(
        name="Mali-T604",
        device_type=DeviceType.GPU,
        vendor="ARM",
        profile="FULL_PROFILE",
        extensions=(
            "cl_khr_fp64",
            "cl_khr_int64_base_atomics",
            "cl_khr_global_int32_base_atomics",
            "cl_khr_byte_addressable_store",
        ),
        max_work_group_size=hw.mali.max_work_group_size,
        max_compute_units=hw.mali.shader_cores,
        global_mem_bytes=2 * 1024**3,
        hardware=hw,
    )
