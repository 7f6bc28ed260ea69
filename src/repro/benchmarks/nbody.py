"""N-Body (nbody): all-pairs gravitational interaction.

Paper §IV-A: "takes as input a list of bodies described with a set of
parameters (position, mass, initial velocity) and updates their
information after a given simulated time period based on gravitational
interference between each body."

§V-A: the naive port already reaches 17.2× — the O(N²) interaction
loop is overwhelmingly compute-bound (rsqrt per pair) and the body
array fits in the GPU's L2.  "The OpenCL version does not apply any
change to the main data structure representation that would lead to an
easier applicability of vector optimizations.  For this reason, the
OpenCL Opt version does not show significant improvements" — bodies
stay AOS, so the j-body loads remain scalar strided accesses and
vectorizing the arithmetic forces ``w`` scalar gathers per lane.  The
aggressive vector+unroll points pay heavy register pressure, which in
double precision exhausts the register file → ``CL_OUT_OF_RESOURCES``
(Figure 2(b)) and the tuner falls back to a near-naive configuration.
"""

from __future__ import annotations

import numpy as np

from .. import perf
from ..compiler.options import CompileOptions
from ..ir.builder import KernelBuilder
from ..ir.nodes import AccessPattern, Kernel as IrKernel, Layout, OpKind, Scaling
from ..memory.cache import StreamSpec
from ..workload import WorkloadTraits
from .base import Benchmark
from .common import SingleKernelMixin, alloc_mapped

#: record layout: x, y, z, mass, vx, vy, vz, pad
FIELDS = 8
SOFTENING = 1e-3
DT = 0.01


def nbody_step(bodies: np.ndarray, ftype) -> np.ndarray:
    """One leapfrog step over an (N, 8) AOS body array.

    Shared by the reference and every version's functional execution.
    Accumulates in float64 internally so that verification tolerances
    stay meaningful for the float32 instance.
    """
    pos = bodies[:, 0:3].astype(np.float64, copy=False)
    mass = bodies[:, 3].astype(np.float64, copy=False)
    vel = bodies[:, 4:7].astype(np.float64, copy=False)
    n = len(bodies)
    px, py, pz = pos[:, 0], pos[:, 1], pos[:, 2]
    # Row-blocked per-axis evaluation: each i-row's interactions are
    # independent, so blocking over i and splitting the axes leaves
    # every elementwise product and every row reduction exactly as in
    # the whole-matrix formulation while keeping the working set at a
    # few (block, N) panels instead of an (N, N, 3) tensor.
    acc = np.empty((n, 3))
    block = 256
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        dx = px[None, :] - px[i0:i1, None]
        dy = py[None, :] - py[i0:i1, None]
        dz = pz[None, :] - pz[i0:i1, None]
        dist2 = dx * dx
        dist2 += dy * dy
        dist2 += dz * dz
        dist2 += SOFTENING**2
        inv_d3 = dist2 ** (-1.5)
        inv_d3[np.arange(i1 - i0), np.arange(i0, i1)] = 0.0  # no self-force
        w = mass[None, :] * inv_d3
        acc[i0:i1, 0] = (dx * w).sum(axis=1)
        acc[i0:i1, 1] = (dy * w).sum(axis=1)
        acc[i0:i1, 2] = (dz * w).sum(axis=1)
    new = np.array(bodies, dtype=np.float64)
    new[:, 4:7] = vel + DT * acc
    new[:, 0:3] = pos + DT * new[:, 4:7]
    return new.astype(ftype, copy=False)


class NBody(SingleKernelMixin, Benchmark):
    """All-pairs gravitational step, one body per work-item."""

    name = "nbody"
    description = "all-pairs gravity; compute-bound O(N^2)"

    DEFAULT_BODIES = 2048
    lazy_inputs = ("bodies",)

    def setup(self) -> None:
        self.n_bodies = max(256, int(self.DEFAULT_BODIES * np.sqrt(self.scale)))

    def draw_inputs(self) -> dict[str, np.ndarray]:
        def draw_bodies(rng: np.random.Generator) -> np.ndarray:
            bodies = np.zeros((self.n_bodies, FIELDS))
            bodies[:, 0:3] = rng.standard_normal((self.n_bodies, 3))
            bodies[:, 3] = rng.random(self.n_bodies) + 0.1
            bodies[:, 4:7] = 0.05 * rng.standard_normal((self.n_bodies, 3))
            return bodies

        return {"bodies": self.take("bodies", draw_bodies).astype(self.ftype, copy=False)}

    def elements(self) -> int:
        return self.n_bodies

    def _step(self) -> np.ndarray:
        """Memoized leapfrog step of the staged bodies.

        Every version — reference, Serial/OpenMP functional execution,
        and the GPU kernel on the staged (identical) input — computes
        exactly this O(N²) step, so one instance pays for it once.
        """
        return perf.instance_memo(
            self, "nbody_step", lambda: nbody_step(self.bodies, self.ftype)
        )

    def reference_result(self) -> np.ndarray:
        return self._step()

    def verify(self, result: np.ndarray) -> bool:
        rtol = 2e-3 if self.ftype == np.float32 else 1e-9
        return self._verify_against_reference(result, rtol=rtol, atol=rtol)

    def run_numpy(self) -> np.ndarray:
        return self._step()

    # ------------------------------------------------------------------
    def kernel_ir(self, options: CompileOptions) -> IrKernel:
        f = self.fdt
        b = KernelBuilder("nbody_step")
        b.buffer("bodies", f, layout=Layout.AOS, record_fields=FIELDS)
        b.buffer("bodies_out", f, layout=Layout.AOS, record_fields=FIELDS)
        b.int_ops(2)
        # own state: position + mass + velocity, once per item
        b.load(f, pattern=AccessPattern.STRIDED, param="bodies", count=7.0,
               scaling=Scaling.PER_ITEM, vectorizable=False)
        # interaction loop over all j bodies
        with b.loop(trip=float(self.n_bodies), vectorizable=True, scaling=Scaling.PER_ITEM):
            # j position + mass from the AOS records: strided scalars
            b.load(f, pattern=AccessPattern.STRIDED, param="bodies", count=4.0,
                   vectorizable=False, sequential=True)
            b.arith(OpKind.ADD, f, count=3.0)    # dx, dy, dz
            b.arith(OpKind.FMA, f, count=3.0, accumulates=True)  # r^2 chain
            b.arith(OpKind.ADD, f, count=1.0)    # softening
            b.arith(OpKind.RSQRT, f, count=1.0)
            b.arith(OpKind.MUL, f, count=2.0)    # 1/r^3 * m_j
            b.arith(OpKind.FMA, f, count=3.0, accumulates=True)  # force chains
        # integrate and store, once per item
        b.arith(OpKind.FMA, f, count=6.0, scaling=Scaling.PER_ITEM, vectorizable=False)
        b.store(f, pattern=AccessPattern.STRIDED, param="bodies_out", count=7.0,
                scaling=Scaling.PER_ITEM, vectorizable=False)
        return b.build(base_live_values=14.0)

    def _streams(self) -> tuple[StreamSpec, ...]:
        nbytes = float(self.n_bodies * FIELDS * np.dtype(self.ftype).itemsize)
        return (
            # every body reads every other body: N touches, L2-resident
            StreamSpec("bodies", nbytes, touches_per_byte=float(self.n_bodies) / 2.0,
                       pattern=AccessPattern.STRIDED),
            StreamSpec("bodies_out", nbytes),
        )

    def cpu_traits(self) -> WorkloadTraits:
        return WorkloadTraits(streams=self._streams(), elements=self.n_bodies)

    # ------------------------------------------------------------------
    def gpu_buffers(self, ctx, queue):
        return {
            "bodies": alloc_mapped(ctx, queue, data=self.bodies),
            "out": alloc_mapped(ctx, queue, shape=self.bodies.shape, dtype=self.ftype),
        }

    def kernel_func(self):
        ftype = self.ftype

        def nbody_kernel(bodies, bodies_out):
            if bodies.shape == self.bodies.shape and np.array_equal(bodies, self.bodies):
                # the staged input is the instance's body array: the
                # step is a pure function of it, so reuse the memoized
                # result instead of recomputing the O(N²) interaction
                bodies_out[...] = self._step()
            else:
                bodies_out[...] = nbody_step(bodies, ftype)

        return nbody_kernel

    def tuning_space(self):
        # The paper kept the AOS data structure, which rules out
        # vectorizing the j-loop entirely (the four j-body fields cannot
        # be vector-loaded from interleaved records).  What remains is
        # unrolling, qualifiers and the work-group size - hence the
        # small Opt-over-OpenCL gain the paper reports.  The deep unroll
        # points are what exhaust the register file in double precision.
        for unroll in (1, 2, 4, 8):
            options = CompileOptions(unroll=unroll, qualifiers=True)
            for local in (64, 128, 256):
                yield options, local
