"""Sparse Vector-Matrix Multiplication (spmv): ``y = A @ x``, CSR format.

Paper §IV-A: "multiplies a vector and a sparse matrix to produce a new
vector.  It is useful as metric to measure performance in cases of load
imbalance."  §V-A: the OpenCL version loses to Serial; even the Opt
version only reaches 1.25× — the ragged rows defeat the job manager's
balance, the ``x`` gathers defeat coalescing, and without the special
sparse data structures the paper deliberately avoids (§IV-B, [16][17])
the kernel "can only partially exploit the available bandwidth".

The matrix is generated with log-normal row lengths; the imbalance
coefficient the models consume is *measured from the generated matrix*,
not assumed.  The row lengths are drawn in ``setup()``; the column
indices, values and ``x`` are drawn on first functional use.
"""

from __future__ import annotations

import numpy as np

from ..compiler.options import CompileOptions
from ..ir.builder import KernelBuilder
from ..ir.dtypes import I32
from ..ir.nodes import AccessPattern, Kernel as IrKernel, OpKind, Scaling
from ..memory.cache import StreamSpec
from ..workload import WorkloadTraits
from .base import Benchmark
from .common import alloc_mapped


def csr_matvec(
    data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """``y = A @ x`` for a CSR matrix in which every row holds an entry.

    One gather-multiply over all nonzeros, then one segmented sum per
    row; the result has the dtype of ``data * x``.
    """
    return np.add.reduceat(data * x[indices], indptr[:-1])


class SpMV(Benchmark):
    """CSR sparse matrix-vector product, one row per work-item."""

    name = "spmv"
    description = "CSR y = A x; ragged rows stress load balance"

    DEFAULT_ROWS = 1 << 15
    MEAN_NNZ_PER_ROW = 24.0
    lazy_inputs = ("indices", "data", "x")

    def setup(self) -> None:
        self.rows = max(256, int(self.DEFAULT_ROWS * self.scale))
        self.cols = self.rows
        # log-normal row lengths: a few heavy rows, many light ones
        mean = np.log(self.MEAN_NNZ_PER_ROW)
        lengths = self.take(
            "row_lengths", lambda rng: rng.lognormal(mean=mean, sigma=0.9, size=self.rows)
        )
        lengths = np.maximum(lengths.astype(np.int64), 1)
        lengths = np.minimum(lengths, self.cols)
        self.row_lengths = lengths
        self.nnz = int(lengths.sum())
        self.indptr = np.zeros(self.rows + 1, dtype=np.int32)
        np.cumsum(lengths, out=self.indptr[1:])

    def draw_inputs(self) -> dict[str, np.ndarray]:
        indices = self.take("indices", self._draw_columns)
        data = self.take("data", lambda rng: rng.standard_normal(self.nnz))
        x = self.take("x", lambda rng: rng.standard_normal(self.cols))
        return {
            "indices": indices,
            "data": data.astype(self.ftype, copy=False),
            "x": x.astype(self.ftype, copy=False),
        }

    def _draw_columns(self, rng: np.random.Generator) -> np.ndarray:
        """Distinct column indices within every row, in CSR order.

        One draw covers all nonzeros; one sort of ``row * cols + col``
        finds the rows holding a repeated column, and only those rows
        are redrawn without replacement, in ascending row order.
        """
        cols = rng.integers(0, self.cols, size=self.nnz)
        row_of = np.repeat(np.arange(self.rows, dtype=np.int64), self.row_lengths)
        keys = np.sort(row_of * self.cols + cols)
        repeated = np.unique(keys[1:][keys[1:] == keys[:-1]] // self.cols)
        for row in repeated:
            start, stop = self.indptr[row], self.indptr[row + 1]
            cols[start:stop] = rng.choice(self.cols, size=stop - start, replace=False)
        return cols.astype(np.int32)

    def elements(self) -> int:
        return self.rows

    @property
    def imbalance_cv(self) -> float:
        """Measured coefficient of variation of the row lengths."""
        return float(self.row_lengths.std() / self.row_lengths.mean())

    @property
    def mean_nnz(self) -> float:
        return self.nnz / self.rows

    def reference_result(self) -> np.ndarray:
        wide = csr_matvec(
            self.data.astype(np.float64, copy=False),
            self.indices,
            self.indptr,
            self.x.astype(np.float64, copy=False),
        )
        return wide.astype(self.ftype, copy=False)

    def verify(self, result: np.ndarray) -> bool:
        rtol = 1e-3 if self.ftype == np.float32 else 1e-8
        return self._verify_against_reference(result, rtol=rtol, atol=rtol)

    def run_numpy(self) -> np.ndarray:
        return csr_matvec(self.data, self.indices, self.indptr, self.x)

    # ------------------------------------------------------------------
    def kernel_ir(self, options: CompileOptions) -> IrKernel:
        f = self.fdt
        b = KernelBuilder("spmv_csr")
        b.buffer("values", f, const=True)
        b.buffer("indices", I32, const=True)
        b.buffer("indptr", I32, const=True)
        b.buffer("x", f, const=True)
        b.buffer("y", f)
        b.int_ops(3)  # row id, bounds guard
        b.load(I32, param="indptr", count=2.0, scaling=Scaling.PER_ITEM)
        # ragged inner loop: trip is the *expected* nnz per row, data
        # dependent (static_trip=False: no compile-time remainder math)
        with b.loop(trip=self.mean_nnz, vectorizable=False, static_trip=False):
            b.load(I32, param="indices", sequential=True)
            b.load(f, param="values", sequential=True)
            # x[col]: data-dependent gather, never vector-loadable
            b.load(f, pattern=AccessPattern.GATHER, param="x", vectorizable=False)
            b.arith(OpKind.FMA, f, accumulates=True)
            b.int_ops(1)
        b.store(f, param="y", scaling=Scaling.PER_ITEM)
        return b.build(base_live_values=7.0)

    def _streams(self) -> tuple[StreamSpec, ...]:
        fsize = np.dtype(self.ftype).itemsize
        return (
            StreamSpec("values", float(self.nnz * fsize)),
            StreamSpec("indices", float(self.nnz * 4)),
            StreamSpec("indptr", float((self.rows + 1) * 4)),
            StreamSpec(
                "x",
                float(self.cols * fsize),
                touches_per_byte=max(self.nnz / self.cols, 1.0),
                pattern=AccessPattern.GATHER,
                access_bytes=float(fsize),
            ),
            StreamSpec("y", float(self.rows * fsize)),
        )

    def cpu_traits(self) -> WorkloadTraits:
        return WorkloadTraits(
            streams=self._streams(),
            imbalance_cv=self.imbalance_cv,
            elements=self.rows,
        )

    # ------------------------------------------------------------------
    def gpu_buffers(self, ctx, queue, options):
        return {
            "values": alloc_mapped(ctx, queue, data=self.data),
            "indices": alloc_mapped(ctx, queue, data=self.indices),
            "indptr": alloc_mapped(ctx, queue, data=self.indptr),
            "x": alloc_mapped(ctx, queue, data=self.x),
            "y": alloc_mapped(ctx, queue, shape=self.rows, dtype=self.ftype),
        }

    def kernel_funcs(self):
        def spmv_csr(values, indices, indptr, x, y):
            y[...] = csr_matvec(values, indices, indptr, x)

        return {"spmv_csr": spmv_csr}

    def tuning_space(self):
        # gathers forbid vectorizing compute; vector loads still help the
        # values/indices streams, and unrolling trims loop overhead
        for unroll in (1, 2, 4):
            options = CompileOptions(vector_loads=True, unroll=unroll, qualifiers=True)
            for local in (32, 64, 128, 256):
                yield options, local
