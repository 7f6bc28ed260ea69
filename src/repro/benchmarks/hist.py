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

The values are Beta(2, 3): mildly skewed, so hot buckets exist but do
not dominate.  The atomic contention of both main kernels is the
largest of the 256 bucket masses of that distribution, taken from its
closed-form CDF (:func:`beta_cdf`), so set-up draws nothing and the
values are a lazy input that only functional execution pays for.

The host numerics count buckets :data:`~repro.benchmarks.common.BLOCK`
values at a time (:func:`bucket_counts`): the functional run and both
main kernel functions.  The reference is an independent formulation,
``np.histogram`` over ``[0, 1]`` (which also bins in blocks); both put
a float32 value that rounds to 1.0 in the last bucket, so every count
matches bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from ..compiler.options import CompileOptions
from ..ir.builder import KernelBuilder
from ..ir.dtypes import U32
from ..ir.nodes import AccessPattern, Kernel as IrKernel, MemSpace, OpKind, Scaling
from ..memory.cache import StreamSpec
from ..workload import WorkloadTraits
from .base import Benchmark, Fill, Launch
from .common import alloc_mapped, blocks


def beta_cdf(x: np.ndarray, a: int, b: int) -> np.ndarray:
    """The Beta(``a``, ``b``) CDF at ``x`` for integer shapes, in float64.

    The density ``x**(a-1) * (1-x)**(b-1) / B(a, b)`` with its
    ``(1-x)**(b-1)`` expanded binomially, integrated term by term from 0.
    """
    norm = math.factorial(a + b - 1) / (math.factorial(a - 1) * math.factorial(b - 1))
    return norm * sum((-1) ** k * math.comb(b - 1, k) * x ** (a + k) / (a + k) for k in range(b))


def bucket_counts(values: np.ndarray, buckets: int) -> np.ndarray:
    """``int64`` counts of the buckets ``min(int(v * buckets), buckets - 1)``
    of ``values`` in [0, 1], taken block by block."""
    counts = np.zeros(buckets, dtype=np.int64)
    for block in blocks(len(values)):
        idx = (values[block] * buckets).astype(np.int64)
        counts += np.bincount(np.minimum(idx, buckets - 1, out=idx), minlength=buckets)
    return counts


class Histogram(Benchmark):
    """256-bin histogram of ``n`` values in [0, 1)."""

    name = "hist"
    description = "bucketed histogram; atomics / privatized reduction"

    DEFAULT_N = 1 << 22
    BUCKETS = 256
    #: Beta shape parameters of the values, read by the draw and the CDF
    SHAPE = (2, 3)
    #: work-groups used by the privatized variant's first stage
    PRIVATE_COPIES = 64
    lazy_inputs = ("values",)

    def setup(self) -> None:
        """Size and hot-bucket mass; draws nothing.

        ``hot_fraction``, the atomic contention, is the largest bucket
        mass of the values' distribution: the same at every scale, and
        the share a large enough draw of the values tends to.
        """
        self.n = max(4096, int(self.DEFAULT_N * self.scale))
        edges = np.arange(self.BUCKETS + 1) / self.BUCKETS
        self.hot_fraction = float(np.diff(beta_cdf(edges, *self.SHAPE)).max())

    def draw_inputs(self) -> dict[str, np.ndarray]:
        """The ``n`` Beta(:attr:`SHAPE`) values, drawn in float64 and cast."""
        raw = self.take("values", lambda rng: rng.beta(*self.SHAPE, size=self.n))
        return {"values": raw.astype(self.ftype, copy=False)}

    def elements(self) -> int:
        return self.n

    def reference_result(self) -> np.ndarray:
        counts, _ = np.histogram(self.values, self.BUCKETS, (0.0, 1.0))
        return counts.astype(np.uint32)

    def verify(self, result: np.ndarray) -> bool:
        return self._verify_against_reference(result, exact=True)

    def run_numpy(self) -> np.ndarray:
        return bucket_counts(self.values, self.BUCKETS).astype(np.uint32)

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
        b.buffer("partials", U32)
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
    def gpu_buffers(self, ctx, queue, options):
        buffers = {
            "values": alloc_mapped(ctx, queue, data=self.values),
            "bins": alloc_mapped(ctx, queue, shape=self.BUCKETS, dtype=np.uint32),
        }
        if options.any_enabled:
            buffers["partials"] = alloc_mapped(
                ctx, queue, shape=(self.PRIVATE_COPIES, self.BUCKETS), dtype=np.uint32
            )
        return buffers

    def kernel_funcs(self):
        buckets = self.BUCKETS
        copies = self.PRIVATE_COPIES

        def hist_global_atomic(values, bins):
            bins += bucket_counts(values, buckets).astype(np.uint32)

        def hist_privatized(values, partials):
            chunk = math.ceil(len(values) / copies)
            for c in range(copies):
                part = values[c * chunk : (c + 1) * chunk]
                partials[c] += bucket_counts(part, buckets).astype(np.uint32)

        def hist_merge(partials, bins):
            bins[...] = partials.sum(axis=0, dtype=np.uint64).astype(np.uint32)

        return {
            "hist_global_atomic": hist_global_atomic,
            "hist_privatized": hist_privatized,
            "hist_merge": hist_merge,
        }

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
