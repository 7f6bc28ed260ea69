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
from ..ocl.buffer import Buffer
from ..ocl.program import KernelSpec, Program
from ..workload import WorkloadTraits
from .base import Benchmark, Fill, Launch
from .common import alloc_mapped


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
        return WorkloadTraits(streams=self._streams(), elements=self.n)

    def iteration_cells(self, options: CompileOptions, local_size: int | None) -> tuple:
        """Histograms accumulate, so the timed region zeroes the bins
        (and the privatized variant's partials) device-side first; the
        privatized variant then merges its partials in a second kernel."""
        bins = Fill("bins", self.BUCKETS * 4)
        main = Launch(self.kernel_ir(options), self.gpu_traits(options), self.n, local_size)
        if not options.any_enabled:
            return (bins, main)
        merge = Launch(
            self._merge_ir(), self._merge_traits(), self.BUCKETS, min(local_size or 64, self.BUCKETS)
        )
        return (bins, Fill("partials", self.PRIVATE_COPIES * self.BUCKETS * 4), main, merge)

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
        main = program.create_kernel(main_ir.name)
        kernels = {main_ir.name: main}
        if options.any_enabled:
            buffers["partials"] = alloc_mapped(
                ctx, queue, shape=(self.PRIVATE_COPIES, self.BUCKETS), dtype=np.uint32
            )
            main.set_args(buffers["values"], buffers["partials"])
            merge = kernels["hist_merge"] = program.create_kernel("hist_merge")
            merge.set_args(buffers["partials"], buffers["bins"])
        else:
            main.set_args(buffers["values"], buffers["bins"])
        return {"kernels": kernels, "buffers": buffers, "options": options}

    def gpu_result(self, state: dict) -> Buffer:
        return state["buffers"]["bins"]

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

    def tuning_space(self):
        for width in (1, 4, 8):
            options = CompileOptions(
                vector_width=width, qualifiers=True, vector_loads=(width == 1)
            )
            for local in (64, 128, 256):
                yield options, local
