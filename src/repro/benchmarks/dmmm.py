"""Dense matrix-matrix multiplication (dmmm): ``C = A @ B``.

Paper §IV-A: "matrix multiplication is a common computation in many
numerical simulations and measures the ability of the compute
accelerator to exploit data reuse and compute performance."

Two source variants, mirroring what the paper's authors wrote by hand:

* **naive** — one output element per work-item; the k-loop loads
  ``A[i,k]`` (unit stride) and ``B[k,j]`` (column access: a large
  stride that defeats both vector loads and the caches).  On the CPU
  the same access pattern is why the Serial version runs far below
  peak — every ``B`` touch is an L1 miss once the matrix exceeds 32 KB.
* **optimized** — each work-item computes a register tile: the k-loop
  broadcasts ``A[i,k]`` (scalar, kept in a register thanks to
  ``const``/``restrict``) against a *row segment* ``B[k, j:j+w]``
  (unit-stride vector load), accumulating ``w`` outputs.  Vectorizing
  along ``j`` is what turns the B stream unit-stride — the data-reuse
  optimization the paper credits for dmmm's 25.5× (SP) and 30× (DP).

The register tile also multiplies reuse: each loaded ``A`` scalar feeds
``w`` columns and each ``B`` vector feeds ``unroll`` rows, which the
traits express as reduced touches (less L2→DRAM traffic).
"""

from __future__ import annotations

import numpy as np

from ..compiler.options import CompileOptions
from ..ir.builder import KernelBuilder
from ..ir.nodes import AccessPattern, Kernel as IrKernel, OpKind, Scaling
from ..memory.cache import StreamSpec
from ..workload import WorkloadTraits
from .base import Benchmark
from .common import SingleKernelMixin, alloc_mapped


class Dmmm(SingleKernelMixin, Benchmark):
    """Square matrix product, row-major storage."""

    name = "dmmm"
    description = "dense C = A @ B; data reuse and compute throughput"

    DEFAULT_N = 512
    lazy_inputs = ("A", "B")

    def setup(self) -> None:
        self.n = max(64, int(self.DEFAULT_N * self.scale ** (1 / 3)))

    def draw_inputs(self) -> dict[str, np.ndarray]:
        A = self.take("A", lambda rng: rng.standard_normal((self.n, self.n)))
        B = self.take("B", lambda rng: rng.standard_normal((self.n, self.n)))
        return {"A": A.astype(self.ftype, copy=False), "B": B.astype(self.ftype, copy=False)}

    def elements(self) -> int:
        return self.n**2

    def reference_result(self) -> np.ndarray:
        wide = self.A.astype(np.float64, copy=False) @ self.B.astype(np.float64, copy=False)
        return wide.astype(self.ftype, copy=False)

    def verify(self, result: np.ndarray) -> bool:
        rtol = 2e-3 if self.ftype == np.float32 else 1e-9
        atol = float(rtol * np.sqrt(self.n))
        return self._verify_against_reference(result, rtol=rtol, atol=atol)

    def run_numpy(self) -> np.ndarray:
        return self.A @ self.B

    # ------------------------------------------------------------------
    def kernel_ir(self, options: CompileOptions) -> IrKernel:
        if options.any_enabled:
            return self._tiled_ir()
        return self._naive_ir()

    def serial_ir(self) -> IrKernel:
        """Serial triple loop: for a fixed output column, the inner
        k-walk strides through B by a full row — the classic
        cache-hostile access that keeps the naive CPU code far below
        peak once B outgrows the L1."""
        f = self.fdt
        b = KernelBuilder("dmmm_serial")
        b.buffer("A", f)
        b.buffer("B", f)
        b.buffer("C", f)
        b.int_ops(4)
        with b.loop(trip=float(self.n), vectorizable=False, scaling=Scaling.PER_ELEMENT):
            b.load(f, pattern=AccessPattern.UNIT, param="A", vectorizable=False, sequential=True)
            b.load(f, pattern=AccessPattern.STRIDED, param="B", vectorizable=False)
            b.arith(OpKind.FMA, f, vectorizable=False, accumulates=True)
            b.int_ops(1)
        b.store(f, param="C", scaling=Scaling.PER_ELEMENT)
        return b.build(base_live_values=6.0)

    def _naive_ir(self) -> IrKernel:
        """Naive GPU port: one output per work-item.  Adjacent
        work-items share ``i`` and walk adjacent ``j``, so the ``B[k,j]``
        accesses are unit-stride *across* the NDRange (coalesced-ish),
        while each item's ``A[i,k]`` walk is sequential."""
        f = self.fdt
        b = KernelBuilder("dmmm_naive")
        b.buffer("A", f)
        b.buffer("B", f)
        b.buffer("C", f)
        b.int_ops(4)
        with b.loop(trip=float(self.n), vectorizable=False, scaling=Scaling.PER_ELEMENT):
            b.load(f, pattern=AccessPattern.UNIT, param="A", vectorizable=False, sequential=True)
            b.load(f, pattern=AccessPattern.UNIT, param="B", vectorizable=False)
            b.arith(OpKind.FMA, f, vectorizable=False, accumulates=True)
            b.int_ops(1)
        b.store(f, param="C", scaling=Scaling.PER_ELEMENT)
        return b.build(base_live_values=6.0)

    def _tiled_ir(self) -> IrKernel:
        """Optimized source: j-streaming register tile.

        Written so the streaming vectorizer widens across output
        columns: the B row-segment load and the FMA are vectorizable
        (unit stride along j), the A broadcast stays scalar.
        """
        f = self.fdt
        b = KernelBuilder("dmmm_tiled")
        b.buffer("A", f)
        b.buffer("B", f)
        b.buffer("C", f)
        b.int_ops(4)
        with b.loop(trip=float(self.n), vectorizable=False, scaling=Scaling.PER_ELEMENT):
            b.load(f, pattern=AccessPattern.BROADCAST, param="A", vectorizable=False)
            b.load(f, pattern=AccessPattern.UNIT, param="B")
            b.arith(OpKind.FMA, f, accumulates=True)
            b.int_ops(1)
        b.store(f, param="C")
        return b.build(base_live_values=8.0)

    # ------------------------------------------------------------------
    def _streams(self, options: CompileOptions) -> tuple[StreamSpec, ...]:
        fsize = np.dtype(self.ftype).itemsize
        mat = float(self.n**2 * fsize)
        if options.any_enabled:
            # register tiling: each A scalar feeds w columns, each B
            # vector feeds the unrolled rows; concurrent work-items of a
            # group share B rows through the L2
            # each A scalar feeds the w columns of its item's tile; each
            # B row segment is re-fetched once per output row unless the
            # unroll factor tiles rows
            w = max(options.vector_width, 4 if options.vector_loads else 1)
            reuse_a = max(self.n / w, 1.0)
            reuse_b = max(self.n / options.unroll, 1.0)
            pattern_b = AccessPattern.UNIT
        else:
            # naive: every work-item streams a full row of A and a full
            # column's worth of B rows; re-touches only after the whole
            # matrix has gone by
            reuse_a = float(self.n)
            reuse_b = float(self.n)
            pattern_b = AccessPattern.UNIT
        return (
            StreamSpec("A", mat, touches_per_byte=reuse_a),
            StreamSpec("B", mat, touches_per_byte=reuse_b, pattern=pattern_b),
            StreamSpec("C", mat),
        )

    def cpu_traits(self) -> WorkloadTraits:
        fsize = np.dtype(self.ftype).itemsize
        mat = float(self.n**2 * fsize)
        return WorkloadTraits(
            streams=(
                StreamSpec("A", mat, touches_per_byte=float(self.n)),
                StreamSpec("B", mat, touches_per_byte=float(self.n), pattern=AccessPattern.STRIDED),
                StreamSpec("C", mat),
            ),
            elements=self.elements(),
        )

    def gpu_traits(self, options: CompileOptions) -> WorkloadTraits:
        return WorkloadTraits(streams=self._streams(options), elements=self.elements())

    # ------------------------------------------------------------------
    def gpu_buffers(self, ctx, queue):
        return {
            "A": alloc_mapped(ctx, queue, data=self.A),
            "B": alloc_mapped(ctx, queue, data=self.B),
            "out": alloc_mapped(ctx, queue, shape=(self.n, self.n), dtype=self.ftype),
        }

    def kernel_func(self):
        def dmmm_kernel(A, B, C):
            np.matmul(A, B, out=C)

        return dmmm_kernel

    def tuning_space(self):
        for width in (4, 8, 16):
            for unroll in (1, 2, 4):
                options = CompileOptions(vector_width=width, unroll=unroll, qualifiers=True)
                for local in (32, 64, 128, 256):
                    yield options, local
