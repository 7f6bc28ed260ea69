"""3D Stencil (3dstc): 7-point stencil over a 3D volume.

Paper §IV-A: "produces a new 3D volume from an input 3D volume.  Each
point of the output is a linear combination of the point with the same
co-ordinates in the input and the neighboring points on each dimension.
This benchmark is useful to evaluate the performance in presence of
memory accesses with regular strides."

§V-A: the Opt version "does not take advantage of vector instruction
and limits the optimizations to work-group size tuning and data reuse"
— the tuning space here matches that: no compute vectorization, only
vector loads, unrolling of the short neighbor accumulation, qualifiers
and the local size sweep.

The host stencil accumulates the six neighbours in place in the output's
interior, in the order the expression ``c0*center + c1*(n1 + ... + n6)``
rounds them, adds the ``c0*center`` term one band of about
:data:`~repro.benchmarks.common.BLOCK` points at a time, and the kernel
function writes straight into its output buffer.
"""

from __future__ import annotations

import numpy as np

from ..compiler.options import CompileOptions
from ..ir.builder import KernelBuilder
from ..ir.nodes import AccessPattern, Kernel as IrKernel, OpKind
from ..memory.cache import StreamSpec
from ..workload import WorkloadTraits
from .base import Benchmark
from .common import BLOCK, alloc_mapped


class Stencil3D(Benchmark):
    """7-point stencil: out = c0*center + c1*sum(neighbors)."""

    name = "3dstc"
    description = "7-point 3D stencil; regular strided accesses"

    DEFAULT_DIM = 96
    C0 = 0.4
    C1 = 0.1
    lazy_inputs = ("grid",)

    def setup(self) -> None:
        self.dim = max(16, int(self.DEFAULT_DIM * self.scale ** (1 / 3)))

    def draw_inputs(self) -> dict[str, np.ndarray]:
        d = self.dim
        grid = self.take("grid", lambda rng: rng.standard_normal((d, d, d)))
        return {"grid": grid.astype(self.ftype, copy=False)}

    def elements(self) -> int:
        return self.dim**3

    def _stencil(self, g: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The stencil of ``g`` into ``out`` (a fresh array by default);
        boundary points copy the input."""
        if out is None:
            out = np.empty_like(g)
        out[...] = g
        core = out[1:-1, 1:-1, 1:-1]
        np.add(g[2:, 1:-1, 1:-1], g[:-2, 1:-1, 1:-1], out=core)
        core += g[1:-1, 2:, 1:-1]
        core += g[1:-1, :-2, 1:-1]
        core += g[1:-1, 1:-1, 2:]
        core += g[1:-1, 1:-1, :-2]
        core *= self.ftype(self.C1)
        c0 = self.ftype(self.C0)
        centre = g[1:-1, 1:-1, 1:-1]
        planes = max(1, BLOCK // centre[0].size)
        term = np.empty((planes,) + centre.shape[1:], dtype=g.dtype)
        for top in range(0, len(core), planes):
            n = min(planes, len(core) - top)
            np.multiply(centre[top : top + n], c0, out=term[:n])
            core[top : top + n] += term[:n]
        return out

    def reference_result(self) -> np.ndarray:
        return self._stencil(self.grid)

    def run_numpy(self) -> np.ndarray:
        return self._stencil(self.grid)

    # ------------------------------------------------------------------
    def kernel_ir(self, options: CompileOptions) -> IrKernel:
        f = self.fdt
        b = KernelBuilder("stencil3d_7pt")
        b.buffer("src", f, const=True)
        b.buffer("dst", f)
        b.int_ops(6)  # 3D index reconstruction + boundary guard
        # x-neighbors and the center are unit-stride; y/z are strided
        b.load(f, pattern=AccessPattern.UNIT, param="src", count=3.0, sequential=True)
        b.load(f, pattern=AccessPattern.STRIDED, param="src", count=4.0, vectorizable=False)
        b.arith(OpKind.ADD, f, count=5.0)   # neighbor sum
        b.arith(OpKind.MUL, f, count=1.0)   # c1 * sum
        b.arith(OpKind.FMA, f, count=1.0)   # c0*center + ...
        b.store(f, param="dst")
        return b.build(base_live_values=10.0)

    def _streams(self) -> tuple[StreamSpec, ...]:
        fsize = np.dtype(self.ftype).itemsize
        vol = float(self.dim**3 * fsize)
        # each input point is touched by 7 stencils; planes of reuse fit
        # in L2 (three dim^2 planes), which the cache model discovers
        return (
            StreamSpec("src", vol, touches_per_byte=7.0,
                       reuse_window_bytes=float(3 * self.dim**2 * fsize)),
            StreamSpec("dst", vol),
        )

    def cpu_traits(self) -> WorkloadTraits:
        return WorkloadTraits(streams=self._streams(), elements=self.elements())

    # ------------------------------------------------------------------
    def gpu_buffers(self, ctx, queue, options):
        return {
            "src": alloc_mapped(ctx, queue, data=self.grid),
            "dst": alloc_mapped(ctx, queue, shape=self.grid.shape, dtype=self.ftype),
        }

    def kernel_funcs(self):
        return {"stencil3d_7pt": self._stencil}

    def tuning_space(self):
        # paper: no vectorization for 3dstc; work-group tuning + reuse
        for unroll in (1, 2):
            options = CompileOptions(vector_loads=True, unroll=unroll, qualifiers=True)
            for local in (32, 64, 128, 256):
                yield options, local
