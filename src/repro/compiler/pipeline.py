"""The kernel compilation pipeline.

``compile_kernel`` is the model's stand-in for ``clBuildProgram`` +
``clCreateKernel`` on the Mali driver stack: it validates the IR, runs
the source-level optimization passes in the order a programmer applies
them (layout and qualifiers are source rewrites, then the compiler
vectorizes and unrolls), consults the driver *quirk table* (the ARM
compiler defect that breaks double-precision ``amcd``), and finally
allocates registers — which may insert spill code or fail with
``CL_OUT_OF_RESOURCES`` semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Protocol, Sequence

from .. import perf
from ..ir.analysis import InstructionMix, analyze
from ..ir.nodes import Kernel
from ..ir.validate import validate
from .layout import SoaLayoutPass
from .options import CompileOptions
from .passes import KernelPass, PassContext, run_pipeline
from .qualifiers import QualifiersPass
from .regalloc import RegisterReport, allocate
from .unroll import UnrollPass
from .vectorize import VectorizePass


class DriverQuirk(Protocol):
    """A defect or behaviour of the (closed-source) driver stack.

    ``check`` raises an appropriate :class:`repro.errors.CompilerError`
    when the quirk triggers for this kernel/options combination.
    """

    def check(self, kernel: Kernel, options: CompileOptions) -> None: ...


@dataclass(frozen=True)
class CompiledKernel:
    """Result of a successful compilation."""

    kernel: Kernel
    source_kernel: Kernel
    options: CompileOptions
    registers: RegisterReport
    log: tuple[str, ...]
    warnings: tuple[str, ...]
    mix: InstructionMix = field(repr=False, compare=False, default=None)  # type: ignore[assignment]

    @property
    def name(self) -> str:
        return self.kernel.name

    @property
    def elems_per_item(self) -> int:
        return self.kernel.elems_per_item

    def __getstate__(self):
        # the pricing layer attaches derived mix columns to the instance
        # dict; they are per-process (keyed by config identity) and
        # rebuildable, so only the declared fields travel across pickles
        return {f.name: getattr(self, f.name) for f in fields(self)}


def default_passes() -> list[KernelPass]:
    """Pass order: source rewrites first, then codegen transforms."""
    return [SoaLayoutPass(), QualifiersPass(), VectorizePass(), UnrollPass()]


def compile_kernel(
    kernel: Kernel,
    options: CompileOptions | None = None,
    quirks: Sequence[DriverQuirk] = (),
    passes: list[KernelPass] | None = None,
) -> CompiledKernel:
    """Compile a kernel IR under the given optimization options.

    Raises:
        repro.errors.IRError: structurally invalid input IR.
        repro.errors.CompilerInternalError: a driver quirk fired.
        repro.errors.RegisterAllocationError: register file exhausted
            (the runtime reports this as ``CL_OUT_OF_RESOURCES``).
    """
    options = options or CompileOptions()
    if passes is not None:
        # A custom pass list is not content-hashable; always compile fresh.
        return _compile_uncached(kernel, options, quirks, passes)
    key = (kernel, options, tuple(quirks))
    return perf.cache("compile").get_or_compute(
        key, lambda: _compile_uncached(kernel, options, quirks, None)
    )


def _compile_uncached(
    kernel: Kernel,
    options: CompileOptions,
    quirks: Sequence[DriverQuirk],
    passes: list[KernelPass] | None,
) -> CompiledKernel:
    validate(kernel)

    for quirk in quirks:
        quirk.check(kernel, options)

    ctx = PassContext()
    transformed = run_pipeline(kernel, options, passes or default_passes(), ctx)
    transformed, report = allocate(transformed, options, ctx)
    validate(transformed)

    return CompiledKernel(
        kernel=transformed,
        source_kernel=kernel,
        options=options,
        registers=report,
        log=tuple(ctx.log),
        warnings=tuple(ctx.warnings),
        mix=analyze(transformed),
    )
