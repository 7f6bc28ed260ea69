"""2D Convolution (2dcon): dense 2D filter over an image.

Paper §IV-A: "produces a new matrix from an input matrix of the same
size ... useful to evaluate the performance in presence of spatial
locality and strided memory accesses."

§V-A: 2dcon "provide[s] extensive parallelism at both vector and thread
level.  In these cases most of the optimizations can be successfully
applied (loop unrolling, vectorization, group-size and vector-size
tuning) leading to a considerable increase in performance" — 24× in
single precision.  In double precision the wide vector+unroll points
exhaust the register file (``CL_OUT_OF_RESOURCES``), the tuner falls
back, and the Opt bar drops to ~10× — Figure 2(b)'s behaviour.

The naive port's weakness is mechanical: every tap re-loads the filter
coefficient from memory (no ``const``/``restrict``, so the compiler
cannot keep it in registers across the potentially-aliasing output
store), and all loads are scalar — the LS pipe saturates long before
the arithmetic pipes.
"""

from __future__ import annotations

import numpy as np

from ..compiler.options import CompileOptions
from ..ir.builder import KernelBuilder
from ..ir.nodes import AccessPattern, Kernel as IrKernel, MemSpace, OpKind, Scaling
from .. import perf
from ..memory.cache import StreamSpec
from ..workload import WorkloadTraits
from .base import Benchmark
from .common import SingleKernelMixin, alloc_mapped


def correlate_same(image: np.ndarray, filt: np.ndarray) -> np.ndarray:
    """Zero-padded "same"-size correlation with an odd K×K filter.

    ``out[i, j] = Σ filt[u, v] · image[i + u - K//2, j + v - K//2]`` over
    the taps ``(u, v)``, reading zeros outside the image.  Evaluated as
    K² shifted float64 multiply-adds over the padded image, accumulated
    from the last tap back to the first: the order of a direct
    convolution with the flipped filter, so the sums round exactly as
    that convolution's do.
    """
    k = filt.shape[0]
    pad = k // 2
    h, w = image.shape
    padded = np.zeros((h + 2 * pad, w + 2 * pad))
    padded[pad : pad + h, pad : pad + w] = image
    weights = filt.astype(np.float64, copy=False)
    out = np.zeros((h, w))
    tap = np.empty((h, w))
    for u in reversed(range(k)):
        for v in reversed(range(k)):
            np.multiply(padded[u : u + h, v : v + w], weights[u, v], out=tap)
            out += tap
    return out


class Conv2D(SingleKernelMixin, Benchmark):
    """K×K convolution, one output pixel per work-item."""

    name = "2dcon"
    description = "2D convolution; vector+thread parallelism everywhere"

    DEFAULT_DIM = 1536
    K = 3
    lazy_inputs = ("image", "filter")

    def setup(self) -> None:
        self.dim = max(64, int(self.DEFAULT_DIM * np.sqrt(self.scale)))

    def draw_inputs(self) -> dict[str, np.ndarray]:
        def normalised_filter(rng: np.random.Generator) -> np.ndarray:
            filt = rng.random((self.K, self.K))
            return filt / filt.sum()

        image = self.take("image", lambda rng: rng.standard_normal((self.dim, self.dim)))
        filt = self.take("filter", normalised_filter)
        return {
            "image": image.astype(self.ftype, copy=False),
            "filter": filt.astype(self.ftype, copy=False),
        }

    def elements(self) -> int:
        return self.dim**2

    def _convolve(self) -> np.ndarray:
        def compute() -> np.ndarray:
            return correlate_same(self.image, self.filter).astype(self.ftype, copy=False)

        # reference, run_numpy and the GPU kernel all evaluate exactly
        # this convolution of the staged instance data: share one result
        return perf.instance_memo(self, "convolve", compute)

    def reference_result(self) -> np.ndarray:
        return self._convolve()

    def verify(self, result: np.ndarray) -> bool:
        rtol = 1e-3 if self.ftype == np.float32 else 1e-9
        return self._verify_against_reference(result, rtol=rtol, atol=rtol)

    def run_numpy(self) -> np.ndarray:
        return self._convolve()

    # ------------------------------------------------------------------
    def kernel_ir(self, options: CompileOptions) -> IrKernel:
        f = self.fdt
        # the naive port keeps the filter in a plain __global buffer;
        # the optimized source declares it __constant (served by the
        # constant cache instead of full LS transactions)
        filt_space = MemSpace.CONSTANT if options.any_enabled else MemSpace.GLOBAL
        b = KernelBuilder("conv2d")
        b.buffer("image", f)
        b.buffer("filt", f, space=filt_space)
        b.buffer("output", f)
        b.int_ops(4)  # 2D index + boundary guards
        # filter-row loop: K iterations, each touching a row segment of
        # the window; taps along the row are unit-stride (vectorizable
        # across output pixels), the filter coefficient is a broadcast
        with b.loop(trip=float(self.K), vectorizable=False, scaling=Scaling.PER_ELEMENT):
            b.load(f, pattern=AccessPattern.UNIT, param="image", count=float(self.K), sequential=True, aligned=False)
            b.load(f, pattern=AccessPattern.BROADCAST, param="filt",
                   space=filt_space, count=float(self.K), vectorizable=False)
            b.arith(OpKind.FMA, f, count=float(self.K), accumulates=True)
            b.int_ops(2)
        b.store(f, param="output")
        return b.build(base_live_values=11.0)

    def _streams(self) -> tuple[StreamSpec, ...]:
        fsize = np.dtype(self.ftype).itemsize
        img = float(self.dim**2 * fsize)
        return (
            # each input pixel feeds K*K windows; rows of reuse fit in L2
            StreamSpec("image", img, touches_per_byte=float(self.K * self.K),
                       reuse_window_bytes=float(self.K * self.dim * fsize)),
            StreamSpec("filt", float(self.K**2 * fsize),
                       touches_per_byte=float(self.dim**2), pattern=AccessPattern.BROADCAST),
            StreamSpec("output", img),
        )

    def cpu_traits(self) -> WorkloadTraits:
        return WorkloadTraits(streams=self._streams(), elements=self.elements())

    # ------------------------------------------------------------------
    def gpu_buffers(self, ctx, queue):
        return {
            "image": alloc_mapped(ctx, queue, data=self.image),
            "filt": alloc_mapped(ctx, queue, data=self.filter),
            "out": alloc_mapped(ctx, queue, shape=self.image.shape, dtype=self.ftype),
        }

    def kernel_func(self):
        conv = self._convolve

        def conv2d_kernel(image, filt, output):
            output[...] = conv()

        return conv2d_kernel

    def tuning_space(self):
        # "most of the optimizations can be successfully applied"
        for width in (1, 4, 8, 16):
            for unroll in (1, 2, 4):
                options = CompileOptions(
                    vector_width=width, unroll=unroll, qualifiers=True,
                    vector_loads=(width == 1),
                )
                for local in (32, 64, 128, 256):
                    yield options, local
