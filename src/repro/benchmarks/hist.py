"""Histogram (hist): bucket counts of a value vector.

Paper §IV-A: "computes the histogram of the values present in a vector
using a configurable bucket size.  It uses local privatization that
requires a reduction stage which can become a bottleneck on highly
parallel architectures."

Two GPU source variants (the paper's naive port vs the rewritten Opt):

* **naive** — every work-item atomically increments the global bin
  array.  Hot buckets serialize at the coherence point, which is why
  the naive port *loses* to Serial in Figure 2.
* **optimized** — per-work-group privatized histograms (contention
  drops by the group count) plus a merge kernel.  More arithmetic, far
  less serialization: ~3× over Serial, and visibly *higher* power than
  the naive version (Figure 3's hist outlier) because the pipes stop
  idling on atomics.
"""

from __future__ import annotations

import math

import numpy as np

from ..compiler.options import CompileOptions
from ..ir.builder import KernelBuilder
from ..ir.dtypes import U32
from ..ir.nodes import AccessPattern, Kernel as IrKernel, MemSpace, OpKind, Scaling
from ..memory.cache import StreamSpec
from ..ocl.program import KernelSpec, Program
from ..workload import WorkloadTraits
from .base import Benchmark
from .common import alloc_mapped, launch, read_mapped


class Histogram(Benchmark):
    """256-bin histogram of ``n`` values in [0, 1)."""

    name = "hist"
    description = "bucketed histogram; atomics / privatized reduction"

    DEFAULT_N = 1 << 22
    BUCKETS = 256
    #: work-groups used by the privatized variant's first stage
    PRIVATE_COPIES = 64

    def setup(self) -> None:
        self.n = max(4096, int(self.DEFAULT_N * self.scale))
        # mildly skewed distribution: hot buckets exist but don't dominate
        raw = self.take("values", lambda rng: rng.beta(2.0, 3.0, size=self.n))
        self.values = raw.astype(self.ftype, copy=False)
        counts = np.bincount(
            np.minimum((raw * self.BUCKETS).astype(np.int64), self.BUCKETS - 1),
            minlength=self.BUCKETS,
        )
        #: measured probability mass of the hottest bucket -> contention
        self.hot_fraction = float(counts.max() / self.n)

    def elements(self) -> int:
        return self.n

    def reference_result(self) -> np.ndarray:
        idx = np.minimum((self.values * self.BUCKETS).astype(np.int64), self.BUCKETS - 1)
        return np.bincount(idx, minlength=self.BUCKETS).astype(np.uint32)

    def verify(self, result: np.ndarray) -> bool:
        return self._verify_against_reference(result, exact=True)

    def run_numpy(self) -> np.ndarray:
        idx = np.minimum((self.values * self.BUCKETS).astype(np.int64), self.BUCKETS - 1)
        return np.bincount(idx, minlength=self.BUCKETS).astype(np.uint32)

    # ------------------------------------------------------------------
    # kernel IR: two source variants
    # ------------------------------------------------------------------
    def kernel_ir(self, options: CompileOptions) -> IrKernel:
        if options.any_enabled:
            return self._privatized_ir()
        return self._naive_ir()

    def _bucket_ops(self, b: KernelBuilder) -> None:
        f = self.fdt
        b.load(f, param="values")
        b.arith(OpKind.MUL, f)       # value * BUCKETS
        b.arith(OpKind.CVT, f)       # float -> int bucket
        b.arith(OpKind.CMP, f)  # clamp (vector compare)

    def _naive_ir(self) -> IrKernel:
        b = KernelBuilder("hist_global_atomic")
        b.buffer("values", self.fdt, const=True)
        b.buffer("bins", U32)
        b.int_ops(2)
        self._bucket_ops(b)
        b.atomic(OpKind.ADD, U32, contention=self.hot_fraction)
        return b.build(base_live_values=5.0)

    def _privatized_ir(self) -> IrKernel:
        b = KernelBuilder("hist_privatized")
        b.buffer("values", self.fdt, const=True)
        b.buffer("bins", U32)
        b.int_ops(2)
        self._bucket_ops(b)
        # private per-work-group copy in local memory: conflicts only
        # within one group, resolved near the core
        b.atomic(OpKind.ADD, U32, contention=self.hot_fraction,
                 space=MemSpace.LOCAL)
        return b.build(base_live_values=6.0)

    def _merge_ir(self) -> IrKernel:
        """Second stage: sum PRIVATE_COPIES partial histograms."""
        b = KernelBuilder("hist_merge")
        b.buffer("partials", U32, const=True)
        b.buffer("bins", U32)
        b.int_ops(2)
        with b.loop(trip=float(self.PRIVATE_COPIES), vectorizable=True):
            b.load(U32, param="partials")
            b.arith(OpKind.ADD, U32)
        b.store(U32, param="bins", scaling=Scaling.PER_ITEM)
        return b.build(base_live_values=4.0)

    # ------------------------------------------------------------------
    def _streams(self) -> tuple[StreamSpec, ...]:
        fsize = np.dtype(self.ftype).itemsize
        return (
            StreamSpec("values", float(self.n * fsize)),
            StreamSpec(
                "bins",
                float(self.BUCKETS * 4),
                touches_per_byte=max(self.n / self.BUCKETS, 1.0),
                pattern=AccessPattern.ATOMIC,
            ),
        )

    def cpu_traits(self) -> WorkloadTraits:
        # CPU code has no atomics (serial) / private copies (OpenMP);
        # the merge of two private histograms is the serial fraction
        merge_work = self.BUCKETS / self.n
        return WorkloadTraits(
            streams=(
                StreamSpec("values", float(self.n * np.dtype(self.ftype).itemsize)),
                StreamSpec("bins", float(self.BUCKETS * 4), touches_per_byte=max(self.n / self.BUCKETS, 1.0)),
            ),
            serial_fraction=min(merge_work * 4.0, 0.05),
            elements=self.n,
        )

    def serial_ir(self) -> IrKernel:
        """Serial code: plain load/increment, no atomics."""
        b = KernelBuilder("hist_serial")
        b.buffer("values", self.fdt, const=True)
        b.buffer("bins", U32)
        self._bucket_ops(b)
        # bins are L1-resident: read-modify-write as plain ops
        b.load(U32, pattern=AccessPattern.GATHER, param="bins", vectorizable=False)
        b.arith(OpKind.ADD, U32, vectorizable=False)
        b.store(U32, pattern=AccessPattern.GATHER, param="bins", vectorizable=False)
        return b.build(base_live_values=5.0)

    def gpu_traits(self, options: CompileOptions) -> WorkloadTraits:
        launches = 2 if options.any_enabled else 1
        return WorkloadTraits(
            streams=self._streams(),
            elements=self.n,
            launches=launches,
        )

    # ------------------------------------------------------------------
    # GPU orchestration (two kernels in the optimized variant)
    # ------------------------------------------------------------------
    def gpu_setup(self, ctx, queue, options: CompileOptions) -> dict:
        main_ir = self.kernel_ir(options)
        specs = [
            KernelSpec(ir=main_ir, func=self._main_func(), traits=self.gpu_traits(options))
        ]
        if options.any_enabled:
            specs.append(
                KernelSpec(
                    ir=self._merge_ir(), func=self._merge_func(), traits=self._merge_traits()
                )
            )
        program = Program(ctx, specs).build(options)
        buffers = {
            "values": alloc_mapped(ctx, queue, data=self.values),
            "bins": alloc_mapped(ctx, queue, shape=self.BUCKETS, dtype=np.uint32),
        }
        state: dict = {"buffers": buffers, "options": options}
        main = program.create_kernel(main_ir.name)
        if options.any_enabled:
            buffers["partials"] = alloc_mapped(
                ctx, queue, shape=(self.PRIVATE_COPIES, self.BUCKETS), dtype=np.uint32
            )
            main.set_args(buffers["values"], buffers["partials"])
            merge = program.create_kernel("hist_merge")
            merge.set_args(buffers["partials"], buffers["bins"])
            state["merge"] = merge
        else:
            main.set_args(buffers["values"], buffers["bins"])
        state["main"] = main
        return state

    def gpu_iteration(self, queue, state: dict, local_size: int | None) -> None:
        buffers = state["buffers"]
        # histograms accumulate: zeroing the bins is part of the timed
        # region, done device-side (clEnqueueFillBuffer)
        queue.enqueue_fill_buffer(buffers["bins"], 0)
        if "partials" in buffers:
            queue.enqueue_fill_buffer(buffers["partials"], 0)
        launch(queue, state["main"], self.n, local_size)
        if "merge" in state:
            launch(queue, state["merge"], self.BUCKETS, min(local_size or 64, self.BUCKETS))

    def gpu_result(self, queue, state: dict) -> np.ndarray:
        return read_mapped(queue, state["buffers"]["bins"])

    # ------------------------------------------------------------------
    def _main_func(self):
        buckets = self.BUCKETS
        copies = self.PRIVATE_COPIES

        def hist_kernel(values, bins):
            idx = np.minimum((values * buckets).astype(np.int64), buckets - 1)
            if bins.ndim == 2:  # privatized variant: scatter across copies
                chunk = math.ceil(len(values) / copies)
                for c in range(copies):
                    part = idx[c * chunk : (c + 1) * chunk]
                    bins[c] += np.bincount(part, minlength=buckets).astype(np.uint32)
            else:
                bins += np.bincount(idx, minlength=buckets).astype(np.uint32)

        return hist_kernel

    def _merge_func(self):
        def hist_merge(partials, bins):
            bins[...] = partials.sum(axis=0, dtype=np.uint64).astype(np.uint32)

        return hist_merge

    def _merge_traits(self) -> WorkloadTraits:
        nbytes = float(self.PRIVATE_COPIES * self.BUCKETS * 4)
        return WorkloadTraits(
            streams=(StreamSpec("partials", nbytes), StreamSpec("bins", float(self.BUCKETS * 4))),
            elements=self.BUCKETS,
        )

    def iteration_pricer(self, options: CompileOptions):
        """Main + (optional) merge kernel pricer, compiled once each."""
        main = self._pricer_one(self.kernel_ir(options), options, self.n, self.gpu_traits(options))
        fill_main = self._fill_seconds(self.BUCKETS * 4)
        merge = None
        fill_merge = 0.0
        if options.any_enabled:
            merge = self._pricer_one(self._merge_ir(), options, self.BUCKETS, self._merge_traits())
            fill_merge = self._fill_seconds(self.PRIVATE_COPIES * self.BUCKETS * 4)

        def estimate(local_size: int | None) -> float:
            seconds = main(local_size)
            seconds += fill_main
            if merge is not None:
                seconds += merge(min(local_size or 64, self.BUCKETS))
                seconds += fill_merge
            return seconds

        return estimate

    def _fill_seconds(self, nbytes: int) -> float:
        """Cost of the clEnqueueFillBuffer zeroing in the timed region."""
        bw = self.platform.dram.gpu_cap * self.platform.dram.efficiency.unit
        return max(nbytes / bw, 2e-6)

    def _pricer_one(self, ir, options, n_elements, traits):
        """One-kernel pricing callable (compiles and builds tables once)."""
        from ..compiler.pipeline import compile_kernel
        from ..mali.timing import LaunchPricer
        from ..ocl.driver import default_quirks, driver_local_size

        quirks = (
            self.platform.driver_quirks
            if self.platform.driver_quirks is not None
            else default_quirks()
        )
        compiled = compile_kernel(ir, options, quirks=quirks)
        base_items = max(1, -(-n_elements // compiled.elems_per_item))
        pricer = LaunchPricer(
            compiled, traits,
            self.platform.mali, self.platform.dram_model(), self.platform.gpu_caches(),
        )

        def one(local_size) -> float:
            local = local_size or driver_local_size(base_items, self.platform.mali.max_work_group_size)
            local = min(local, self.platform.mali.max_work_group_size)
            n_items = -(-base_items // local) * local
            return pricer.price(n_items, local).seconds

        return one

    def tuning_space(self):
        for width in (1, 4, 8):
            options = CompileOptions(
                vector_width=width, qualifiers=True, vector_loads=(width == 1)
            )
            for local in (64, 128, 256):
                yield options, local
