"""Vector Operation (vecop): element-wise vector addition.

Paper §IV-A: "performs an addition of two vectors in an element-by-
element basis.  Given the memory-bound nature of the kernel, this
benchmark stresses the memory bandwidth of the platform under study."

One flop per three memory elements — firmly under the bandwidth
roofline everywhere.  The GPU's win comes entirely from sustaining
higher DRAM bandwidth than a single A15 core (more outstanding
requests), and the Opt win from vector loads/stores (one LS issue per
128 bits) plus the smaller NDRange.
"""

from __future__ import annotations

import numpy as np

from ..compiler.options import CompileOptions
from ..ir.builder import KernelBuilder
from ..ir.nodes import Kernel as IrKernel, OpKind
from ..memory.cache import StreamSpec
from ..workload import WorkloadTraits
from .base import Benchmark
from .common import SingleKernelMixin, alloc_mapped


class VecOp(SingleKernelMixin, Benchmark):
    """``c[i] = a[i] + b[i]`` over ``n`` elements."""

    name = "vecop"
    description = "element-wise vector addition; stresses memory bandwidth"

    DEFAULT_N = 1 << 22
    lazy_inputs = ("a", "b")

    def setup(self) -> None:
        self.n = max(1024, int(self.DEFAULT_N * self.scale))

    def draw_inputs(self) -> dict[str, np.ndarray]:
        a = self.take("a", lambda rng: rng.random(self.n))
        b = self.take("b", lambda rng: rng.random(self.n))
        return {"a": a.astype(self.ftype, copy=False), "b": b.astype(self.ftype, copy=False)}

    def elements(self) -> int:
        return self.n

    def reference_result(self) -> np.ndarray:
        return self.a + self.b

    def run_numpy(self) -> np.ndarray:
        return np.add(self.a, self.b)

    # ------------------------------------------------------------------
    def kernel_ir(self, options: CompileOptions) -> IrKernel:
        f = self.fdt
        b = KernelBuilder("vecop_add")
        b.buffer("a", f)
        b.buffer("b", f)
        b.buffer("c", f)
        b.int_ops(2)  # global id + bounds guard
        b.load(f, param="a")
        b.load(f, param="b")
        b.arith(OpKind.ADD, f)
        b.store(f, param="c")
        return b.build(base_live_values=4.0)

    def _streams(self) -> tuple[StreamSpec, ...]:
        nbytes = float(self.n * np.dtype(self.ftype).itemsize)
        return (
            StreamSpec("a", nbytes),
            StreamSpec("b", nbytes),
            StreamSpec("c", nbytes),
        )

    def cpu_traits(self) -> WorkloadTraits:
        return WorkloadTraits(streams=self._streams(), elements=self.n)

    # ------------------------------------------------------------------
    def gpu_buffers(self, ctx, queue):
        return {
            "a": alloc_mapped(ctx, queue, data=self.a),
            "b": alloc_mapped(ctx, queue, data=self.b),
            "out": alloc_mapped(ctx, queue, shape=self.n, dtype=self.ftype),
        }

    def kernel_func(self):
        def vecop_add(a, b, c):
            np.add(a, b, out=c)

        return vecop_add

    def tuning_space(self):
        # no loops: unrolling does not apply; sweep widths and locals
        for width in (1, 2, 4, 8, 16):
            options = CompileOptions(
                vector_width=width, qualifiers=True, vector_loads=(width == 1)
            )
            for local in (32, 64, 128, 256):
                yield options, local
