"""OpenCL kernel objects (``clCreateKernel``/``clSetKernelArg``)."""

from __future__ import annotations

from typing import Any

import numpy as np

from ..errors import CLInvalidKernelArgs, CLInvalidValue
from .buffer import Buffer
from .program import Program


class Kernel:
    """A kernel handle with bound arguments."""

    def __init__(self, program: Program, name: str):
        self.program = program
        self.name = name
        built = program.built_kernel(name)
        self.spec = built.spec
        self.compiled = built.compiled
        self.launch_error = built.launch_error
        n_params = len(self.spec.ir.params)
        self._args: list[Any] = [None] * n_params

    # ------------------------------------------------------------------
    @property
    def elems_per_item(self) -> int:
        """Elements each work-item covers after compilation (vectorized
        kernels need a proportionally smaller global size)."""
        if self.compiled is None:
            return self.spec.ir.elems_per_item
        return self.compiled.elems_per_item

    def set_arg(self, index: int, value: Buffer | np.generic | int | float) -> None:
        """``clSetKernelArg``."""
        if not 0 <= index < len(self._args):
            raise CLInvalidValue(
                f"kernel {self.name!r} has {len(self._args)} args; index {index} invalid"
            )
        self._args[index] = value

    def set_args(self, *values) -> None:
        """Convenience: bind all arguments at once."""
        if len(values) != len(self._args):
            raise CLInvalidKernelArgs(
                f"kernel {self.name!r} expects {len(self._args)} args, got {len(values)}"
            )
        for i, v in enumerate(values):
            self.set_arg(i, v)

    def bound_args(self) -> list[Any]:
        """Validated argument list for a launch."""
        missing = [i for i, a in enumerate(self._args) if a is None]
        if missing:
            raise CLInvalidKernelArgs(
                f"kernel {self.name!r}: arguments {missing} not set"
            )
        return list(self._args)

    def work_group_info(self) -> dict:
        """``clGetKernelWorkGroupInfo`` analogue.

        Reports the per-kernel limits a Mali developer tunes against:
        the register-limited work-group ceiling, the preferred size
        multiple (the quad granularity of the tripipe front end), and
        the compiler's register/spill accounting.
        """
        if self.compiled is None:
            return {
                "kernel_work_group_size": 0,
                "preferred_work_group_size_multiple": 4,
                "registers": None,
                "spilled": None,
                "launchable": False,
            }
        report = self.compiled.registers
        device_max = self.program.context.device.max_work_group_size
        return {
            "kernel_work_group_size": min(report.threads_per_core, device_max),
            "preferred_work_group_size_multiple": 4,
            "registers": report.registers_128,
            "spilled": report.spilled_registers,
            "launchable": True,
        }

    def global_size_for(self, n_elements: int) -> int:
        """NDRange global size covering ``n_elements`` problem elements.

        Rounds up to a multiple of the per-item coverage; the functional
        implementations guard the tail exactly like real kernels do.
        """
        per_item = self.elems_per_item
        return max(1, -(-n_elements // per_item))
