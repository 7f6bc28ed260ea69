"""Reduction (red): sum of a vector.

Paper §IV-A: "applies the addition operator to produce a single
(scalar) output value from an input vector ... allows to measure the
capability of the compute accelerator to adapt from massively parallel
computation stages to almost sequential execution."

§V-A: "red makes use of a two-stage reduction, that performs a constant
number of parallel reductions based on the number of used work-groups.
The main difference in performance between OpenCL and OpenCL Opt for
this benchmark is due to the vectorization and the use of a tuned
work-group size."

Stage 1: a fixed grid of work-items each accumulates a contiguous chunk,
then a work-group tree folds partials (barriers).  Stage 2: one group
reduces the per-group partials.  Vectorization strip-mines the chunk
loop — the loop-mode path of the vectorizer.
"""

from __future__ import annotations

import numpy as np

from ..compiler.options import CompileOptions
from ..ir.builder import KernelBuilder
from ..ir.nodes import Kernel as IrKernel, MemSpace, OpKind, Scaling
from ..memory.cache import StreamSpec
from ..ocl.buffer import Buffer
from ..ocl.program import KernelSpec, Program
from ..workload import WorkloadTraits
from .. import perf
from .base import Benchmark, Launch
from .common import alloc_mapped


class Reduction(Benchmark):
    """Two-stage parallel sum of ``n`` values."""

    name = "red"
    description = "vector sum; parallel-to-sequential adaptation"

    DEFAULT_N = 1 << 23
    #: stage-1 work-items (fixed grid, chunked accumulation)
    STAGE1_ITEMS = 4096
    lazy_inputs = ("data",)

    def setup(self) -> None:
        self.n = max(self.STAGE1_ITEMS * 4, int(self.DEFAULT_N * self.scale))

    def draw_inputs(self) -> dict[str, np.ndarray]:
        data = self.take("data", lambda rng: rng.standard_normal(self.n))
        return {"data": data.astype(self.ftype, copy=False)}

    def elements(self) -> int:
        return self.n

    @property
    def chunk(self) -> float:
        return self.n / self.STAGE1_ITEMS

    def reference_result(self) -> np.ndarray:
        # sum in float64 then cast: the GPU tree sum is far more accurate
        # than a naive serial left-fold, so compare against the well-
        # conditioned value
        return np.asarray([self.data.astype(np.float64, copy=False).sum()], dtype=self.ftype)

    def verify(self, result: np.ndarray) -> bool:
        ref = float(self.reference()[0])
        # the input never changes, so its magnitude is summed once
        scale = perf.instance_memo(self, "abs_sum", lambda: float(np.abs(self.data).sum()) or 1.0)
        tol = (1e-5 if self.ftype == np.float32 else 1e-12) * scale
        return bool(abs(float(np.ravel(result)[0]) - ref) <= tol)

    def run_numpy(self) -> np.ndarray:
        return np.asarray([self.data.sum(dtype=np.float64)], dtype=self.ftype)

    # ------------------------------------------------------------------
    def serial_ir(self) -> IrKernel:
        """Serial sum: one load + one add per element."""
        f = self.fdt
        b = KernelBuilder("red_serial")
        b.buffer("data", f, const=True)
        b.load(f, param="data", sequential=True)
        b.arith(OpKind.ADD, f, accumulates=True)
        return b.build(base_live_values=3.0)

    def kernel_ir(self, options: CompileOptions) -> IrKernel:
        """Stage 1: chunk accumulation + work-group tree fold.

        The naive port interleaves its accumulation (work-item ``i``
        reads ``data[i]``, ``data[i+G]``, ... - the pattern GPU tutorials
        teach for NVIDIA coalescing), so each Mali thread touches a new
        cache line per step and the scalar-access bandwidth penalty
        applies.  The optimized source gives each item a *contiguous*
        chunk walked with vector loads.
        """
        f = self.fdt
        sequential_chunks = options.any_enabled
        b = KernelBuilder("red_stage1")
        b.buffer("data", f, const=True)
        b.buffer("partials", f)
        b.int_ops(4)
        with b.loop(trip=self.chunk, vectorizable=True, scaling=Scaling.PER_ITEM):
            b.load(f, param="data", sequential=sequential_chunks)
            b.arith(OpKind.ADD, f, accumulates=True)
        # work-group tree: log2(local) rounds of (barrier, local ld/st, add)
        tree_rounds = 7.0  # log2(128); the exact local size varies by run
        b.barrier(count=tree_rounds)
        b.load(f, space=MemSpace.LOCAL, count=tree_rounds, scaling=Scaling.PER_ITEM, vectorizable=False)
        b.arith(OpKind.ADD, f, count=tree_rounds, scaling=Scaling.PER_ITEM, vectorizable=False)
        b.store(f, space=MemSpace.LOCAL, count=tree_rounds, scaling=Scaling.PER_ITEM, vectorizable=False)
        b.store(f, param="partials", scaling=Scaling.PER_ITEM)
        return b.build(base_live_values=5.0)

    #: work-group size of the final fold
    STAGE2_LOCAL = 128

    def _stage2_ir(self, n_partials: int) -> IrKernel:
        """One work-group cooperatively folds the partials: each item
        accumulates a chunk, then a barrier tree combines them."""
        f = self.fdt
        b = KernelBuilder("red_stage2")
        b.buffer("partials", f, const=True)
        b.buffer("result", f)
        b.int_ops(3)
        chunk = max(n_partials / self.STAGE2_LOCAL, 1.0)
        with b.loop(trip=chunk, vectorizable=True, scaling=Scaling.PER_ITEM):
            b.load(f, param="partials", sequential=True)
            b.arith(OpKind.ADD, f, accumulates=True)
        tree_rounds = 7.0  # log2(STAGE2_LOCAL)
        b.barrier(count=tree_rounds)
        b.load(f, space=MemSpace.LOCAL, count=tree_rounds, scaling=Scaling.PER_ITEM, vectorizable=False)
        b.arith(OpKind.ADD, f, count=tree_rounds, scaling=Scaling.PER_ITEM, vectorizable=False)
        b.store(f, space=MemSpace.LOCAL, count=tree_rounds, scaling=Scaling.PER_ITEM, vectorizable=False)
        b.store(f, param="result", scaling=Scaling.PER_ITEM)
        return b.build(base_live_values=4.0)

    # ------------------------------------------------------------------
    def _streams(self) -> tuple[StreamSpec, ...]:
        fsize = np.dtype(self.ftype).itemsize
        return (
            StreamSpec("data", float(self.n * fsize)),
            StreamSpec("partials", float(self.STAGE1_ITEMS * fsize)),
        )

    def cpu_traits(self) -> WorkloadTraits:
        # OpenMP: per-thread partial sums; the final fold is serial
        return WorkloadTraits(
            streams=self._streams(),
            serial_fraction=0.01,
            elements=self.n,
        )

    def gpu_traits(self, options: CompileOptions) -> WorkloadTraits:
        return WorkloadTraits(streams=self._streams(), elements=self.n)

    def iteration_cells(self, options: CompileOptions, local_size: int | None) -> tuple:
        """Stage 1 over the fixed grid of ``STAGE1_ITEMS`` work-items,
        then one work-group of ``STAGE2_LOCAL`` folding the partials."""
        return (
            Launch(self.kernel_ir(options), self.gpu_traits(options), self.STAGE1_ITEMS, local_size),
            Launch(
                self._stage2_ir(self.STAGE1_ITEMS),
                self._stage2_traits(),
                self.STAGE2_LOCAL,
                self.STAGE2_LOCAL,
            ),
        )

    # ------------------------------------------------------------------
    def gpu_setup(self, ctx, queue, options: CompileOptions) -> dict:
        stage1 = self.kernel_ir(options)
        stage2 = self._stage2_ir(self.STAGE1_ITEMS)
        specs = [
            KernelSpec(
                ir=stage1,
                func=self._stage1_func(),
                traits=self.gpu_traits(options),
            ),
            KernelSpec(
                ir=stage2,
                func=self._stage2_func(),
                traits=self._stage2_traits(),
            ),
        ]
        program = Program(ctx, specs).build(options)
        buffers = {
            "data": alloc_mapped(ctx, queue, data=self.data),
            "partials": alloc_mapped(ctx, queue, shape=self.STAGE1_ITEMS, dtype=self.ftype),
            "result": alloc_mapped(ctx, queue, shape=1, dtype=self.ftype),
        }
        k1 = program.create_kernel(stage1.name)
        k1.set_args(buffers["data"], buffers["partials"])
        k2 = program.create_kernel(stage2.name)
        k2.set_args(buffers["partials"], buffers["result"])
        return {"kernels": {stage1.name: k1, stage2.name: k2}, "buffers": buffers, "options": options}

    def gpu_result(self, state: dict) -> Buffer:
        return state["buffers"]["result"]

    def _stage1_func(self):
        items = self.STAGE1_ITEMS

        def red_stage1(data, partials):
            wide = data.astype(np.float64, copy=False)
            if len(data) % items == 0:
                # equal chunks: one reshaped row-sum, same per-chunk
                # contiguous pairwise reduction as summing each split
                partials[...] = wide.reshape(items, -1).sum(axis=1).astype(partials.dtype)
            else:
                chunks = np.array_split(wide, items)
                partials[...] = np.array([c.sum() for c in chunks], dtype=partials.dtype)

        return red_stage1

    def _stage2_func(self):
        def red_stage2(partials, result):
            result[...] = partials.astype(np.float64, copy=False).sum()

        return red_stage2

    def _stage2_traits(self) -> WorkloadTraits:
        fsize = np.dtype(self.ftype).itemsize
        return WorkloadTraits(
            streams=(StreamSpec("partials", float(self.STAGE1_ITEMS * fsize)),),
            elements=self.STAGE1_ITEMS,
        )

    def tuning_space(self):
        for width in (1, 2, 4, 8, 16):
            for unroll in (1, 2):
                options = CompileOptions(
                    vector_width=width, unroll=unroll, qualifiers=True,
                    vector_loads=(width == 1),
                )
                for local in (32, 64, 128, 256):
                    yield options, local
