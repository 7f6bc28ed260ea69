"""Atomic Monte-Carlo Dynamics (amcd): independent Metropolis chains.

Paper §IV-A: "performs a number of independent simulations using the
Markov Chain Monte Carlo method.  Initial atom coordinates are provided
and a number of randomly chosen displacements are applied to randomly
selected atoms which are accepted or rejected using the Metropolis
method."

§V-A: the naive port already reaches 4.1× ("we did not find many hot
spots for optimizations and the OpenCL Opt is only slightly faster" —
4.7×).  The chains are compute-bound (transcendental-heavy) and the
accept/reject branch is data-dependent per chain, so vectorizing across
chains would need lane masking the 2013 Mali compiler does not do — the
arithmetic is marked non-vectorizable, and the tuner finds only
inlining/qualifiers/work-size gains, matching the paper.

In **double precision the kernel does not compile at all** — the paper
hit "a compiler issue that does not allow the correct termination of
the compilation phase"; the driver quirk table reproduces it (an fp64
kernel with the inlined integer-RNG helper), so the DP amcd bars are
missing from every figure, exactly as published.
"""

from __future__ import annotations

import numpy as np

from ..compiler.options import CompileOptions
from ..ir.builder import KernelBuilder
from ..ir.dtypes import U32
from ..ir.nodes import Kernel as IrKernel, OpKind, Scaling
from ..memory.cache import StreamSpec
from ..workload import WorkloadTraits
from .base import Benchmark
from .common import alloc_mapped

#: LCG constants (Numerical Recipes) used identically in every version
LCG_A = np.uint64(1664525)
LCG_C = np.uint64(1013904223)
LCG_MASK = np.uint64(0xFFFFFFFF)


def lcg_next(state: np.ndarray) -> np.ndarray:
    """Advance the 32-bit LCG states (vectorized over chains)."""
    return (state * LCG_A + LCG_C) & LCG_MASK


def lcg_uniform(state: np.ndarray) -> np.ndarray:
    """Map LCG state to a float in [0, 1)."""
    return state.astype(np.float64) / float(1 << 32)


def simulate_chains(
    x0: np.ndarray, seeds: np.ndarray, steps: int, beta: float, step_size: float, ftype
) -> np.ndarray:
    """Metropolis walk of every chain in a quadratic potential.

    Shared by the reference, the CPU versions and the GPU kernel
    function, so all versions produce bit-identical trajectories.
    """
    x = np.array(x0, dtype=ftype)
    state = seeds.astype(np.uint64)
    for _ in range(steps):
        state = lcg_next(state)
        delta = (lcg_uniform(state) - 0.5).astype(ftype) * ftype(2 * step_size)
        state = lcg_next(state)
        accept_draw = lcg_uniform(state).astype(ftype)
        x_new = x + delta
        d_energy = (x_new * x_new - x * x).astype(ftype)
        accept_prob = np.exp(np.minimum(-beta * d_energy.astype(np.float64), 0.0)).astype(ftype)
        take = accept_draw < accept_prob
        x = np.where(take, x_new, x)
    return x


class Amcd(Benchmark):
    """Independent Metropolis chains in a quadratic potential."""

    name = "amcd"
    description = "Markov-chain Monte Carlo; compute-bound, divergent"

    DEFAULT_CHAINS = 1 << 13
    STEPS = 160
    BETA = 1.0
    STEP_SIZE = 0.5

    def setup(self) -> None:
        self.chains = max(512, int(self.DEFAULT_CHAINS * self.scale))
        x0 = self.take("x0", lambda rng: rng.standard_normal(self.chains))
        self.x0 = x0.astype(self.ftype, copy=False)
        self.seeds = self.take(
            "seeds", lambda rng: rng.integers(1, 1 << 32, size=self.chains, dtype=np.uint64)
        )
        self.acceptance_rate = self._measure_acceptance_rate()

    def _measure_acceptance_rate(self, probe_steps: int = 12) -> float:
        """Expected Metropolis acceptance, measured from the actual
        chains (feeds the IR's divergent-branch probability the same way
        spmv's imbalance comes from its generated matrix)."""
        x = np.array(self.x0, dtype=np.float64)
        state = self.seeds.astype(np.uint64)
        accepts = 0
        for _ in range(probe_steps):
            state = lcg_next(state)
            delta = (lcg_uniform(state) - 0.5) * 2 * self.STEP_SIZE
            state = lcg_next(state)
            draw = lcg_uniform(state)
            x_new = x + delta
            prob = np.exp(np.minimum(-self.BETA * (x_new**2 - x**2), 0.0))
            take = draw < prob
            accepts += int(take.sum())
            x = np.where(take, x_new, x)
        return accepts / (probe_steps * self.chains)

    def elements(self) -> int:
        return self.chains

    def reference_result(self) -> np.ndarray:
        return simulate_chains(
            self.x0, self.seeds, self.STEPS, self.BETA, self.STEP_SIZE, self.ftype
        )

    def verify(self, result: np.ndarray) -> bool:
        # trajectories are deterministic: require exact agreement
        return self._verify_against_reference(result, exact=True)

    def run_numpy(self) -> np.ndarray:
        return simulate_chains(
            self.x0, self.seeds, self.STEPS, self.BETA, self.STEP_SIZE, self.ftype
        )

    # ------------------------------------------------------------------
    def kernel_ir(self, options: CompileOptions) -> IrKernel:
        f = self.fdt
        b = KernelBuilder("amcd_metropolis")
        b.buffer("x0", f, const=True)
        b.buffer("seeds", U32, const=True)
        b.buffer("x_out", f)
        b.int_ops(2)
        b.load(f, param="x0", scaling=Scaling.PER_ITEM)
        b.load(U32, param="seeds", scaling=Scaling.PER_ITEM)
        # the Markov chain: sequential per chain, data-dependent lanes
        with b.loop(trip=float(self.STEPS), vectorizable=False, scaling=Scaling.PER_ITEM):
            # RNG helper: two LCG advances + mapping to [0,1)
            with b.call("lcg_rand", count=2.0):
                b.arith(OpKind.MUL, U32, count=1.0, vectorizable=False)
                b.arith(OpKind.ADD, U32, count=1.0, vectorizable=False)
                b.arith(OpKind.BITOP, U32, count=1.0, vectorizable=False)
                b.arith(OpKind.CVT, f, count=1.0, vectorizable=False)
                b.arith(OpKind.MUL, f, count=1.0, vectorizable=False)
            # displacement, energy delta, Metropolis acceptance
            b.arith(OpKind.FMA, f, count=2.0, vectorizable=False)
            b.arith(OpKind.MUL, f, count=3.0, vectorizable=False)
            b.arith(OpKind.ADD, f, count=2.0, vectorizable=False)
            b.arith(OpKind.EXP, f, count=1.0, vectorizable=False)
            with b.branch(taken_prob=self.acceptance_rate, divergent=True):
                b.arith(OpKind.MOV, f, count=1.0, vectorizable=False)
        b.store(f, param="x_out", scaling=Scaling.PER_ITEM)
        return b.build(base_live_values=9.0)

    def _streams(self) -> tuple[StreamSpec, ...]:
        fsize = np.dtype(self.ftype).itemsize
        return (
            StreamSpec("x0", float(self.chains * fsize)),
            StreamSpec("seeds", float(self.chains * 8)),
            StreamSpec("x_out", float(self.chains * fsize)),
        )

    def cpu_traits(self) -> WorkloadTraits:
        return WorkloadTraits(streams=self._streams(), elements=self.chains)

    # ------------------------------------------------------------------
    def gpu_buffers(self, ctx, queue, options):
        return {
            "x0": alloc_mapped(ctx, queue, data=self.x0),
            "seeds": alloc_mapped(ctx, queue, data=self.seeds),
            "x_out": alloc_mapped(ctx, queue, shape=self.chains, dtype=self.ftype),
        }

    def kernel_funcs(self):
        steps, beta, step_size, ftype = self.STEPS, self.BETA, self.STEP_SIZE, self.ftype

        def amcd_kernel(x0, seeds, x_out):
            x_out[...] = simulate_chains(x0, seeds, steps, beta, step_size, ftype)

        return {"amcd_metropolis": amcd_kernel}

    def tuning_space(self):
        # nothing vectorizes (sequential chains, divergent lanes): the
        # tuner can only inline the RNG, add qualifiers, unroll the step
        # loop a little and tune the work-group size
        for unroll in (1, 2):
            options = CompileOptions(unroll=unroll, qualifiers=True)
            for local in (32, 64, 128, 256):
                yield options, local
