"""Cortex-A15 pricing: Serial and OpenMP timings over many cells.

The A15 model prices one timed iteration in two steps.  The core
cycles and instruction count of ``n`` elements (:meth:`CpuPricer._core_cycles_one`)
walk per-entry (count, cost) columns of the per-element instruction
mix, hoisted once per (mix, config) along with the L1 hit fraction, the
DRAM traffic and its transfer time per stream mix.  The Serial and
OpenMP epilogues then turn cycles into seconds — OoO overlap with DRAM,
and for OpenMP the Amdahl split, the two-core imbalance and the runtime
overheads.

The epilogues exist once, as the array passes of
:class:`CpuConfigStack`: design-space sweeps evaluate them for every
cell per SoC config (:meth:`CpuConfigStack.rows`), and a run's CPU cell
is one lane of it (:meth:`~repro.pricing.grid.PlatformPricing.price_one`,
memoized by :func:`~repro.benchmarks.base.cpu_region_timing`).
:func:`~repro.cpu.serial.time_serial`, :func:`~repro.cpu.openmp.time_openmp`
and :class:`CpuPricer` are views that build a stack over their own
cells and read the lanes back as :class:`~repro.cpu.serial.CpuTiming`
rows of Python floats.
"""

from __future__ import annotations

import math
from dataclasses import fields

from ..ir.analysis import InstructionMix
from ..ir.nodes import AccessPattern, MemSpace
from ..memory.cache import CacheHierarchy
from ..memory.dram import DramModel
from ..pricing.cells import MODE_OPENMP, MODE_SERIAL, CpuCell
from ..workload import WorkloadTraits
from .config import A15Config
from .serial import CpuTiming

_IRREGULAR = (AccessPattern.STRIDED, AccessPattern.GATHER, AccessPattern.ATOMIC)


class _CpuTables:
    """Per-entry columns of one per-element mix, in source dict order."""

    __slots__ = (
        "acc_counts",
        "acc_perlane",
        "acc_widths",
        "fp_counts",
        "fp_costs",
        "int_counts",
        "int_costs",
        "a_counts",
        "a_widths",
        "m_counts",
        "m_widths",
        "ir_counts",
        "ir_widths",
        "ato_counts",
    )

    def __init__(self, mix: InstructionMix, config: A15Config) -> None:
        acc_counts: list[float] = []
        acc_perlane: list[float] = []
        acc_widths: list[float] = []
        fp_counts: list[float] = []
        fp_costs: list[float] = []
        int_counts: list[float] = []
        int_costs: list[float] = []
        a_counts: list[float] = []
        a_widths: list[float] = []
        for (op, base, width, accumulates), count in mix.arith.items():
            if accumulates and base.startswith("f"):
                # loop-carried FP dependency: no -funsafe-math-optimizations
                # means GCC may not reassociate, so the chain advances one
                # element per VFP result latency
                per_lane = max(config.op_cycles[op], config.accum_latency(op))
                if base == "f64":
                    per_lane *= config.fp64_cost_factor
                acc_counts.append(count)
                acc_perlane.append(per_lane)
                acc_widths.append(float(width))
            elif base.startswith("f"):
                fp_counts.append(count)
                fp_costs.append(config.arith_cycles(op, base, width))
            else:
                int_counts.append(count)
                int_costs.append(config.arith_cycles(op, base, width))
            a_counts.append(count)
            a_widths.append(float(width))
        m_counts: list[float] = []
        m_widths: list[float] = []
        ir_counts: list[float] = []
        ir_widths: list[float] = []
        for (kind, space, pattern, base, width, sequential, aligned), count in mix.mem.items():
            if space == MemSpace.PRIVATE:
                continue
            m_counts.append(count)
            m_widths.append(float(width))
            if pattern in _IRREGULAR:
                ir_counts.append(count)
                ir_widths.append(float(width))
        self.acc_counts = acc_counts
        self.acc_perlane = acc_perlane
        self.acc_widths = acc_widths
        self.fp_counts = fp_counts
        self.fp_costs = fp_costs
        self.int_counts = int_counts
        self.int_costs = int_costs
        self.a_counts = a_counts
        self.a_widths = a_widths
        self.m_counts = m_counts
        self.m_widths = m_widths
        self.ir_counts = ir_counts
        self.ir_widths = ir_widths
        self.ato_counts = [float(c) for c in mix.atomics.values()]


def _cpu_tables_for(mix: InstructionMix, config: A15Config) -> _CpuTables:
    """The shared :class:`_CpuTables` of one (mix, config) pair.

    A pure derived constant, cached in the mix's instance dict keyed by
    config identity (the identity check pins the config object); every
    pricer of that mix shares one build.  Stripped on pickle (see
    :meth:`InstructionMix.__getstate__`).
    """
    cache = mix.__dict__.get("_cpu_tables")
    if cache is None:
        cache = {}
        object.__setattr__(mix, "_cpu_tables", cache)
    entry = cache.get(id(config))
    if entry is None or entry[0] is not config:
        entry = cache[id(config)] = (config, _CpuTables(mix, config))
    return entry[1]


#: (l1 config, l2 config, dram config) -> {streams: (l1 hit fraction,
#: traffic items, dram bytes, irregular miss fraction, per-agent
#: transfer seconds)}.  All pure functions of the frozen configs and
#: the traits' stream tuple, shared across every pricer of a grid.
_STREAM_TABLES: dict[tuple, dict] = {}


def _stream_tables(dram: DramModel, caches: CacheHierarchy) -> dict:
    key = (caches.l1.config, caches.l2.config, dram.config)
    found = _STREAM_TABLES.get(key)
    if found is None:
        found = _STREAM_TABLES[key] = {}
    return found


class CpuPricer:
    """Serial/OpenMP pricing of one per-element mix.

    Holds the element-count-independent state of one (mix, traits)
    pair: the mix columns, the L1 hit fraction, the DRAM traffic and
    the irregular-access DRAM miss fraction.  :meth:`price_serial` and
    :meth:`price_openmp` are views over a :class:`CpuConfigStack` of
    the requested element counts.
    """

    def __init__(
        self,
        mix: InstructionMix,
        traits: WorkloadTraits,
        config: A15Config,
        dram: DramModel,
        caches: CacheHierarchy,
    ) -> None:
        self.mix = mix
        self.traits = traits
        self.config = config
        self.dram = dram
        self.caches = caches
        self._tables = _cpu_tables_for(mix, config)
        tables = _stream_tables(dram, caches)
        entry = tables.get(traits.streams)
        if entry is None:
            streams = list(traits.streams)
            l1_hit = caches.l1_hit_fraction(streams)
            traffic = caches.dram_traffic(streams)
            dram_bytes = sum(traffic.values())
            # irregular accesses that miss the L2 stall for a DRAM round
            # trip; the miss fraction does not depend on the element
            # count, so it reduces to one group scalar
            irregular = [st for st in streams if st.pattern in _IRREGULAR]
            miss_frac: float | None = None
            if irregular:
                requested = sum(st.requested_bytes for st in irregular)
                if requested > 0.0:
                    irregular_dram = traffic.get(AccessPattern.STRIDED, 0.0) + traffic.get(
                        AccessPattern.GATHER, 0.0
                    ) + traffic.get(AccessPattern.ATOMIC, 0.0)
                    miss_frac = min(irregular_dram / requested, 1.0)
            entry = tables[traits.streams] = (
                l1_hit,
                tuple(traffic.items()),
                dram_bytes,
                miss_frac,
                {},
            )
        self._l1_hit, items, self._dram_bytes, self._miss_frac, self._dram_s = entry
        self._traffic = dict(items)

    def _agent_dram_s(self, agent: str) -> float:
        found = self._dram_s.get(agent)
        if found is None:
            found = self._dram_s[agent] = (
                self.dram.transfer_seconds(agent, bytes_by_pattern=self._traffic)
                if self._dram_bytes > 0
                else 0.0
            )
        return found

    # ------------------------------------------------------------------
    def _core_cycles_one(self, n: float) -> tuple[float, float]:
        """(busy cycles on one core, instruction count) of ``n`` elements.

        The serial element loop itself adds one loop header per element.
        FP, integer, LS and the FP dependency chain overlap on an OoO
        core: the busiest resource dominates, a quarter of the rest leaks
        past the overlap, and serialization costs (mispredicts, calls,
        atomics) add.  L1-miss latency exposes only on irregular
        accesses — the prefetchers hide it for unit-stride streams, whose
        cost is the DRAM roofline charged in the epilogues.
        """
        t = self._tables
        config = self.config
        mix = self.mix

        accum = 0.0
        for count, per_lane, width in zip(t.acc_counts, t.acc_perlane, t.acc_widths):
            accum += ((count * n) * per_lane) * width
        fp = 0.0
        for count, cost in zip(t.fp_counts, t.fp_costs):
            fp += (count * n) * cost
        int_ = 0.0
        for count, cost in zip(t.int_counts, t.int_costs):
            int_ += (count * n) * cost
        instructions = 0.0
        for count, width in zip(t.a_counts, t.a_widths):
            instructions += (count * n) * width

        ls_count = 0.0
        for count, width in zip(t.m_counts, t.m_widths):
            ls_count += (count * n) * width
        irregular_ls = 0.0
        for count, width in zip(t.ir_counts, t.ir_widths):
            irregular_ls += (count * n) * width
        ls = ls_count / config.ls_ops_per_cycle
        ls = ls + ((irregular_ls * (1.0 - self._l1_hit)) * config.l2_hit_penalty_cycles)
        if self._miss_frac is not None:
            ls = ls + ((irregular_ls * self._miss_frac) * config.dram_miss_penalty_cycles)
        instructions = instructions + ls_count

        branches = mix.branches * n
        divergent = mix.divergent_branches * n
        loop_headers = (mix.loop_headers * n) + n  # + the element loop
        calls = mix.calls * n
        atomic_ops = 0.0
        for count in t.ato_counts:
            atomic_ops += count * n

        branch_cycles = (
            branches * config.mispredict_rate
            + divergent * (config.divergent_mispredict_rate - config.mispredict_rate)
        ) * config.mispredict_penalty
        loop_cycles = loop_headers * config.loop_header_cycles
        call_cycles = calls * config.call_cycles
        atomic_cycles = atomic_ops * config.atomic_cycles
        instructions = instructions + (((branches + loop_headers) + calls) + atomic_ops)

        il = int_ + loop_cycles
        busy = max(max(max(fp, il), ls), accum)
        leak = 0.25 * (((((fp + int_) + loop_cycles) + ls) + accum) - busy)
        cycles = (((busy + leak) + branch_cycles) + call_cycles) + atomic_cycles
        return cycles, instructions

    def price_serial(self, n_values) -> tuple[CpuTiming, ...]:
        """Serial timings for each element count."""
        return self._price(MODE_SERIAL, n_values)

    def price_openmp(self, n_values) -> tuple[CpuTiming, ...]:
        """OpenMP timings for each element count."""
        return self._price(MODE_OPENMP, n_values)

    def _price(self, mode: str, n_values) -> tuple[CpuTiming, ...]:
        cells = tuple(
            CpuCell(mix=self.mix, mode=mode, n_elements=int(n), traits=self.traits)
            for n in n_values
        )
        if not cells:
            return ()
        return CpuConfigStack(cells, self.config, self.dram, self.caches).timings()


# ---------------------------------------------------------------------------
# Config-axis stacking: the Serial/OpenMP epilogues

#: A15Config fields a :class:`CpuConfigStack` treats as sweepable axes.
#: They appear only in the Serial/OpenMP epilogues — never inside
#: the core cycles — so the hoisted cycle/instruction lanes stay valid
#: across every variant.
_CPU_STACK_AXES = frozenset(
    {"cores", "clock_hz", "mlp_overlap", "omp_region_overhead_s", "omp_chunk_overhead_s"}
)


def _cpu_stack_signature(config: A15Config) -> tuple:
    """The config fields a stack bakes into its hoisted cycle columns."""
    return tuple(
        (f.name, getattr(config, f.name))
        for f in fields(config)
        if f.name not in _CPU_STACK_AXES
    )


class CpuStackRows:
    """Row arrays of one (config, dram) design point over a cell stack.

    One lane per cell, aligned with the stack's cell order.  CPU cells
    have no feasibility axis — every config prices every cell.
    """

    __slots__ = ("seconds", "ipc", "active_cores", "dram_bandwidth", "dram_bytes")

    def __init__(self, seconds, ipc, active_cores, dram_bandwidth, dram_bytes):
        self.seconds = seconds
        self.ipc = ipc
        self.active_cores = active_cores
        self.dram_bandwidth = dram_bandwidth
        self.dram_bytes = dram_bytes


class CpuConfigStack:
    """The Serial/OpenMP epilogues over a fixed set of CPU cells.

    The core cycle/instruction counts of every cell are config-invariant
    across the swept axes (:data:`_CPU_STACK_AXES`), so they are computed
    once per cell at construction (``ValueError`` for ``n_elements <
    1``); :meth:`_serial_lanes` / :meth:`_openmp_lanes` are the epilogues
    as whole-stack array passes.  :meth:`rows` evaluates them for one
    ``(config, dram)`` point of a sweep, :meth:`timings` for the stack's
    own point as :class:`~repro.cpu.serial.CpuTiming` rows.
    ``math.log``/``math.sqrt`` of config scalars stay on ``math``; only
    per-cell arithmetic is vectorized, with correctly rounded ufuncs, so
    every lane is what the scalar formulation computes for that cell
    (asserted against the references in ``tests/pricing_oracle.py``).
    """

    def __init__(
        self,
        cells,
        config: A15Config,
        dram: DramModel,
        caches: CacheHierarchy,
    ) -> None:
        import numpy as np

        cells = tuple(cells)
        if not cells:
            raise ValueError("CpuConfigStack needs at least one cell")
        self.cells = cells
        self.config = config
        self.dram = dram
        self.caches = caches
        self._sig: tuple | None = None  # rows()'s base signature, on first use

        group_ord: dict[tuple[int, int], int] = {}
        self._group_pricers: list[CpuPricer] = []
        gidx: list[int] = []
        core: list[tuple[float, float]] = []
        for cell in cells:
            n = int(cell.n_elements)
            if n < 1:
                raise ValueError(f"n_elements must be >= 1, got {n}")
            gk = (id(cell.mix), id(cell.traits))
            g = group_ord.get(gk)
            if g is None:
                g = group_ord[gk] = len(self._group_pricers)
                self._group_pricers.append(
                    CpuPricer(cell.mix, cell.traits, config, dram, caches)
                )
            gidx.append(g)
            core.append(self._group_pricers[g]._core_cycles_one(float(n)))
        self._gidx = np.asarray(gidx, dtype=np.intp)
        self._cycles, self._instructions = np.asarray(core).T.copy()
        self._dram_bytes = np.asarray(
            [float(p._dram_bytes) for p in self._group_pricers]
        )[self._gidx]

        self._n_f = np.asarray([float(int(c.n_elements)) for c in cells])
        self._cv = np.asarray([c.traits.imbalance_cv for c in cells])
        self._sf = np.asarray([c.traits.serial_fraction for c in cells])
        self._serial = np.asarray(
            [i for i, c in enumerate(cells) if c.mode == MODE_SERIAL], dtype=np.intp
        )
        self._openmp = np.asarray(
            [i for i, c in enumerate(cells) if c.mode == MODE_OPENMP], dtype=np.intp
        )
        # dram.config -> (cpu1 dram_s per cell, cpu2 dram_s per cell)
        self._dram_cache: dict = {}

    # ------------------------------------------------------------------
    def _dram_for(self, dram: DramModel) -> tuple:
        import numpy as np

        found = self._dram_cache.get(dram.config)
        if found is None:
            # a throwaway pricer per group reuses (and fills) the same
            # process-global stream tables a pricer on this DRAM would
            s1 = []
            s2 = []
            for pricer in self._group_pricers:
                p = CpuPricer(pricer.mix, pricer.traits, self.config, dram, self.caches)
                s1.append(p._agent_dram_s("cpu1"))
                s2.append(p._agent_dram_s("cpu2"))
            found = self._dram_cache[dram.config] = (
                np.asarray(s1, dtype=np.float64)[self._gidx],
                np.asarray(s2, dtype=np.float64)[self._gidx],
            )
        return found

    def _serial_lanes(self, config: A15Config, idx, dram_s) -> tuple:
        """Serial epilogue over the lanes ``idx``: ``(seconds,
        compute_s, ipc)``.  The OoO window overlaps compute with
        outstanding misses; the non-dominant component leaks past the
        overlap by ``1 - mlp_overlap``."""
        import numpy as np

        clock = config.clock_hz
        compute_s = self._cycles[idx] / clock
        total = np.maximum(compute_s, dram_s) + (
            (1.0 - config.mlp_overlap) * np.minimum(compute_s, dram_s)
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            rate = self._instructions[idx] / (total * clock)
        return total, compute_s, np.where(total > 0, rate, 0.0)

    def _openmp_lanes(self, config: A15Config, idx, dram_s) -> tuple:
        """OpenMP epilogue over the lanes ``idx``: ``(seconds,
        compute_s, overlapped_s, overhead_s, ipc)``, where
        ``overlapped_s`` is the compute/DRAM overlap before the runtime
        overhead is added (the memory-stall base) and ``overhead_s`` is
        one scalar for every lane.

        Amdahl keeps the serial fraction on one core; the slower core
        sets the finish time, its excess over the mean estimated as
        ``cv * sqrt(2 ln cores / chunks)`` and floored for static
        scheduling's few big chunks; fork/join and per-thread chunk
        scheduling add once per parallel region.
        """
        import numpy as np

        clock = config.clock_hz
        n_cores = config.cores
        cyc = self._cycles[idx]
        cv = self._cv[idx]
        serial_cycles = cyc * self._sf[idx]
        parallel_cycles = cyc - serial_cycles
        chunks = np.maximum(self._n_f[idx] / n_cores, 1.0)
        imbalance = np.where(
            cv > 0.0,
            1.0 + cv * np.sqrt((2.0 * math.log(max(n_cores, 2))) / chunks),
            1.0,
        )
        imbalance = np.maximum(imbalance, 1.0 + (0.35 * cv) / math.sqrt(n_cores))
        compute_s = (serial_cycles + (parallel_cycles / n_cores) * imbalance) / clock
        overlapped = np.maximum(compute_s, dram_s) + (
            (1.0 - config.mlp_overlap) * np.minimum(compute_s, dram_s)
        )
        overhead = config.omp_region_overhead_s + n_cores * config.omp_chunk_overhead_s
        total = overlapped + overhead
        with np.errstate(divide="ignore", invalid="ignore"):
            rate = self._instructions[idx] / (total * clock * n_cores)
        return total, compute_s, overlapped, overhead, np.where(total > 0, rate, 0.0)

    # ------------------------------------------------------------------
    def rows(self, config: A15Config, dram: DramModel) -> CpuStackRows:
        """Price every cell under one ``(config, dram)`` design point."""
        import numpy as np

        if self._sig is None:
            self._sig = _cpu_stack_signature(self.config)
        if _cpu_stack_signature(config) != self._sig:
            raise ValueError(
                "config differs from the stack base outside the stacked axes "
                f"({', '.join(sorted(_CPU_STACK_AXES))})"
            )
        ds_serial, ds_openmp = self._dram_for(dram)
        width = len(self.cells)
        seconds = np.empty(width)
        ipc = np.empty(width)
        active = np.empty(width, dtype=np.int64)

        si = self._serial
        if si.size:
            seconds[si], _, ipc[si] = self._serial_lanes(config, si, ds_serial[si])
            active[si] = 1

        oi = self._openmp
        if oi.size:
            seconds[oi], _, _, _, ipc[oi] = self._openmp_lanes(config, oi, ds_openmp[oi])
            active[oi] = config.cores

        with np.errstate(divide="ignore", invalid="ignore"):
            bw = self._dram_bytes / seconds
        dram_bw = np.where(seconds > 0, bw, 0.0)
        return CpuStackRows(seconds, ipc, active, dram_bw, self._dram_bytes)

    def timings(self) -> tuple[CpuTiming, ...]:
        """One :class:`~repro.cpu.serial.CpuTiming` per cell at the
        stack's own ``(config, dram)``, lanes read back as Python
        floats (``dram_bytes`` and ``active_cores`` as the scalar model
        states them)."""
        config = self.config
        ds_serial, ds_openmp = self._dram_for(self.dram)
        group_bytes = [p._dram_bytes for p in self._group_pricers]
        gidx = self._gidx.tolist()
        out: list[CpuTiming | None] = [None] * len(self.cells)

        si = self._serial
        if si.size:
            ds = ds_serial[si]
            lanes = self._serial_lanes(config, si, ds)
            for i, seconds, compute_s, ipc, dram_s in zip(
                si.tolist(), *(lane.tolist() for lane in lanes), ds.tolist()
            ):
                out[i] = CpuTiming(
                    seconds=seconds,
                    compute_seconds=compute_s,
                    mem_stall_seconds=seconds - compute_s,
                    dram_seconds=dram_s,
                    overhead_seconds=0.0,
                    dram_bytes=group_bytes[gidx[i]],
                    active_cores=1,
                    ipc=ipc,
                )

        oi = self._openmp
        if oi.size:
            ds = ds_openmp[oi]
            *lanes, overhead, ipc_lane = self._openmp_lanes(config, oi, ds)
            for i, seconds, compute_s, overlapped, ipc, dram_s in zip(
                oi.tolist(), *(lane.tolist() for lane in (*lanes, ipc_lane)), ds.tolist()
            ):
                out[i] = CpuTiming(
                    seconds=seconds,
                    compute_seconds=compute_s,
                    mem_stall_seconds=overlapped - compute_s,
                    dram_seconds=dram_s,
                    overhead_seconds=overhead,
                    dram_bytes=group_bytes[gidx[i]],
                    active_cores=config.cores,
                    ipc=ipc,
                )
        return tuple(out)  # type: ignore[arg-type]
