"""Per-launch timing model for the Mali-T604.

A launch of a compiled kernel is priced as a three-roofline model with
explicit overheads:

* **arithmetic roofline** — issued vector micro-ops across
  4 cores × 2 arithmetic pipes, scaled by latency hiding (occupancy);
* **load/store roofline** — memory instructions through the per-core
  LS pipe (this is what vector loads relieve: one ``vload4`` is one LS
  issue where four scalar loads were four);
* **DRAM roofline** — bytes that miss the L2, at the pattern-dependent
  effective bandwidth of the shared DDR3L interface;

plus atomic serialization, barrier costs, Job-Manager work-group
scheduling, launch overhead, and an imbalance multiplier.  The largest
roofline is the bottleneck; a calibrated fraction of the other two
leaks past the overlap (threads cannot always cover both).

The formula exists once, as the array epilogue of
:class:`GpuConfigStack`: one float64 lane per launch.  Design-space
sweeps evaluate it for thousands of lanes over a block of SoC configs
at once (:meth:`GpuConfigStack.block_rows`).  A run's launches are
priced one lane at a time by :meth:`LaunchPricer.price`, the one
launch entry (:func:`time_launch` is a throwaway pricer), which reads
the lane back as a :class:`GpuLaunchTiming` row.  The config-invariant
inputs (the instruction-mix slice, the DRAM traffic) come from
per-kernel and per-stream-mix tables shared by all of them and by
the design space's lower bound (:meth:`GpuConfigStack.floor_seconds`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .. import perf
from ..compiler.pipeline import CompiledKernel
from ..compiler.regalloc import fits_register_file, threads_for_scale
from ..errors import CLOutOfResources
from ..ir.dtypes import DType, scalar_bits
from ..ir.nodes import MemSpace
from ..memory.cache import CacheHierarchy
from ..memory.dram import DramModel
from ..pricing.cells import GpuLaunchCell
from ..workload import WorkloadTraits
from .config import MaliConfig
from .occupancy import (
    FULL_BANDWIDTH_THREADS,
    FULL_HIDING_THREADS,
    MIN_HIDING,
    check_local_size,
)


def _check_fits(compiled: CompiledKernel, config: MaliConfig) -> None:
    """Raise ``CL_OUT_OF_RESOURCES`` when the kernel no longer fits the
    config's scaled register file — the launch-time failure mode
    design-space sweeps use to mark candidates infeasible on leaner SoC
    variants (:meth:`GpuConfigStack.block_rows` masks those lanes
    instead)."""
    scale = config.register_file_scale
    report = compiled.registers
    if not fits_register_file(report, scale):
        raise CLOutOfResources(
            f"kernel needs {report.registers_128} 128-bit registers, "
            f"exceeding the {scale}x-scaled register file"
        )


@dataclass(frozen=True)
class GpuLaunchTiming:
    """Timing breakdown of one kernel launch on the GPU."""

    seconds: float
    arith_seconds: float
    ls_seconds: float
    dram_seconds: float
    atomic_seconds: float
    barrier_seconds: float
    schedule_seconds: float
    launch_overhead_seconds: float
    imbalance_factor: float
    dram_bytes: float
    bottleneck: str

    @property
    def alu_utilization(self) -> float:
        """Fraction of the run the arithmetic pipes are busy (power input)."""
        return min(self.arith_seconds / self.seconds, 1.0) if self.seconds > 0 else 0.0

    @property
    def ls_utilization(self) -> float:
        return min(self.ls_seconds / self.seconds, 1.0) if self.seconds > 0 else 0.0

    @property
    def dram_bandwidth(self) -> float:
        """Average achieved DRAM bandwidth over the launch, bytes/s."""
        return self.dram_bytes / self.seconds if self.seconds > 0 else 0.0

    @property
    def clock_sensitivity(self) -> float:
        """Fraction of the launch that scales with the shader clock.

        The DVFS layer's frequency-response fit ``t(f) = a/f + b``
        splits a launch into a clock-scaled part and a clock-invariant
        floor; this is the launch's own estimate of the scaled share,
        from the two clock-independent terms the model knows about: the
        DRAM roofline (when it is the binding bottleneck — its seconds
        ride the memory clock, not the shader clock) and the constant
        launch overhead.  Compute-bound launches approach 1.0;
        streaming, bandwidth-bound launches fall toward 0.0.
        """
        if self.seconds <= 0:
            return 0.0
        invariant = self.launch_overhead_seconds
        if self.bottleneck == "dram":
            invariant += self.dram_seconds * self.imbalance_factor
        return min(max(1.0 - invariant / self.seconds, 0.0), 1.0)


def time_launch(
    compiled: CompiledKernel,
    n_items: int,
    local_size: int,
    traits: WorkloadTraits,
    config: MaliConfig,
    dram: DramModel,
    caches: CacheHierarchy,
    concurrent_agents: int = 1,
) -> GpuLaunchTiming:
    """Price one NDRange launch of ``n_items`` work-items.

    Pure in all arguments (the mutable model objects are keyed by their
    frozen configs), so results are memoized content-addressed: the
    autotuner prices each distinct (kernel, options, local size) point
    once per process.  One-shot callers go through a throwaway
    :class:`LaunchPricer`; sweeps that price many ``(n_items,
    local_size)`` candidates of the same kernel should hold one pricer
    and amortize its memo-key hashing.
    """
    return LaunchPricer(
        compiled, traits, config, dram, caches, concurrent_agents=concurrent_agents
    ).price(n_items, local_size)


class _HashedKey:
    """A memo-key part that caches its (expensive) structural hash.

    The ``gpu_timing`` memo keys embed deeply nested frozen dataclasses
    (compiled kernel, traits, configs); hashing them from scratch on
    every table lookup dominates a tuner sweep's pricing.  This wrapper is
    transparent in equality and ``repr`` — keys assembled from wrapped
    parts occupy the same memo slots as the historical raw tuples — but
    the hash is computed once, at pricer construction.
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value) -> None:
        self.value = value
        self._hash = hash(value)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if isinstance(other, _HashedKey):
            return self.value == other.value
        return self.value == other

    def __repr__(self) -> str:
        return repr(self.value)

    def __reduce__(self):
        # str/bytes hashes are randomized per process: rebuild from the
        # value so an unpickled key part hashes correctly where it lands
        return (_HashedKey, (self.value,))


def _hashed_key_part(obj) -> _HashedKey:
    """``_HashedKey(content_key(obj))`` with a single structure walk.

    ``content_key`` returns hashable values untouched (after probing
    ``hash``), so wrapping the raw object directly skips that probe;
    the ``TypeError`` fallback covers unhashable values.
    """
    try:
        return _HashedKey(obj)
    except TypeError:
        return _HashedKey(perf.content_key(obj))


def _attached_key_part(obj) -> _HashedKey:
    """:func:`_hashed_key_part`, cached on the keyed object itself.

    Compiled kernels and traits are immutable once built and typically
    priced many times per campaign (every tuner candidate, every grid
    row); their structural content key is a pure derived constant, so it
    is computed once and attached to the instance.  Per-process only —
    :class:`CompiledKernel` strips derived attributes on pickle and
    :class:`_HashedKey` re-hashes on unpickle, so hash randomization
    never leaks a stale hash across worker processes.
    """
    part = obj.__dict__.get("_timing_key_part")
    if part is None:
        part = _hashed_key_part(obj)
        object.__setattr__(obj, "_timing_key_part", part)
    return part


class _MixColumns:
    """Per-entry (count, cost) columns of one kernel's mix on one config.

    Every column preserves the source dict's iteration order, and
    :meth:`slice` accumulates sequentially in that order, so a slice is
    the same IEEE-754 operation sequence as pricing ``mix.scaled(n)``
    entry by entry.  A pure derived constant of ``(compiled, config)``:
    built once and cached on the compiled kernel (:func:`_columns_for`),
    shared — with the slices it has computed — by every stack, pricer
    and roofline floor of that kernel.
    """

    __slots__ = (
        "arith_counts",
        "arith_costs",
        "ls_counts",
        "ls_costs",
        "glb_counts",
        "glb_bytes",
        "glb_bits",
        "mix",
        "config",
        "slices",
    )

    def __init__(self, compiled: CompiledKernel, config: MaliConfig) -> None:
        mix = compiled.mix
        native_math = compiled.options.native_math
        arith_counts: list[float] = []
        arith_costs: list[float] = []
        for (op, base, width, accumulates), count in mix.arith.items():
            arith_counts.append(count)
            arith_costs.append(
                config.arith_issue_cost(
                    op,
                    base=base,
                    width=width,
                    scalar_bits=scalar_bits(base),
                    native_math=native_math,
                )
            )
        ls_counts: list[float] = []
        ls_costs: list[float] = []
        for (kind, space, pattern, base, width, sequential, aligned), count in mix.mem.items():
            if space == MemSpace.PRIVATE:
                continue  # register-resident; spills are emitted as GLOBAL
            cost = config.ls_issue_cost(width, scalar_bits=scalar_bits(base))
            if width > 1 and not aligned:
                # sliding-window vloads at arbitrary element offsets cross
                # register boundaries: two LS issues each
                cost *= 2.0
            if space == MemSpace.CONSTANT:
                # __constant data comes through the constant cache /
                # uniform registers and barely touches the LS pipe
                cost *= config.uniform_load_cost_factor
            ls_counts.append(count)
            ls_costs.append(cost)
        for (op, base, space), count in mix.atomics.items():
            ls_counts.append(count)
            ls_costs.append(
                config.atomic_local_cycles
                if space == MemSpace.LOCAL
                else config.atomic_cycles
            )
        glb_counts: list[float] = []
        glb_bytes: list[float] = []
        glb_bits: list[float] = []
        for (kind, space, pattern, base, width, sequential, aligned), count in mix.mem.items():
            if space != MemSpace.GLOBAL:
                continue
            glb_counts.append(count)
            glb_bytes.append(float(DType(base, width).bytes))
            # a per-thread streaming walk consumes whole cache lines
            # regardless of the instruction width
            glb_bits.append(
                float(config.lane_bits)
                if sequential
                else float(min(width * scalar_bits(base), config.lane_bits))
            )
        self.arith_counts = arith_counts
        self.arith_costs = arith_costs
        self.ls_counts = ls_counts
        self.ls_costs = ls_costs
        self.glb_counts = glb_counts
        self.glb_bytes = glb_bytes
        self.glb_bits = glb_bits
        self.mix = mix
        self.config = config
        self.slices: dict[int, tuple[float, float, float]] = {}

    def slice(self, n_items: int) -> tuple[float, float, float]:
        """(raw arith cycles, raw LS cycles, access efficiency) of
        ``n_items`` work-items — the only mix-dependent launch inputs.

        The access efficiency interpolates bandwidth efficiency in the
        byte-weighted mean global-access width: Midgard threads issue
        independent L2/DRAM transactions (no warp-level coalescing), so
        a stream of 32-bit scalar accesses sustains only
        ``scalar_access_dram_efficiency`` of what a 128-bit ``vload4``
        stream reaches.
        """
        found = self.slices.get(n_items)
        if found is not None:
            return found
        n = float(n_items)
        config = self.config
        mix = self.mix
        arith = 0.0
        for count, cost in zip(self.arith_counts, self.arith_costs):
            arith += (count * n) * cost
        arith += (mix.loop_headers * n) * config.loop_header_cost
        arith += (mix.branches * n) * config.branch_cost
        arith += (mix.calls * n) * config.call_cost
        ls = 0.0
        for count, cost in zip(self.ls_counts, self.ls_costs):
            ls += (count * n) * cost
        total_bytes = 0.0
        weighted_bits = 0.0
        for count, nbytes, bits in zip(self.glb_counts, self.glb_bytes, self.glb_bits):
            b = (count * n) * nbytes
            total_bytes += b
            weighted_bits += b * bits
        if total_bytes <= 0.0:
            access_eff = 1.0
        else:
            mean_bits = weighted_bits / total_bytes
            # 32-bit accesses -> the scalar floor; 128-bit -> full rate
            frac = min(max((mean_bits - 32.0) / (config.lane_bits - 32.0), 0.0), 1.0)
            low = config.scalar_access_dram_efficiency
            access_eff = low + (1.0 - low) * frac
        found = self.slices[n_items] = (arith, ls, access_eff)
        return found


def _columns_for(compiled: CompiledKernel, config: MaliConfig) -> _MixColumns:
    """The shared :class:`_MixColumns` of one (kernel, config) pair.

    Cached in the compiled kernel's instance dict, keyed by config
    identity (the identity check pins the config object, so a replaced
    calibration never aliases a stale entry).  Stripped on pickle along
    with the key token — see :meth:`CompiledKernel.__getstate__`.
    """
    cache = compiled.__dict__.get("_timing_columns")
    if cache is None:
        cache = {}
        object.__setattr__(compiled, "_timing_columns", cache)
    entry = cache.get(id(config))
    if entry is None or entry[0] is not config:
        entry = cache[id(config)] = (config, _MixColumns(compiled, config))
    return entry[1]


#: (l1 config, l2 config, dram config) -> {(streams, agents): (dram
#: bytes, base transfer seconds)}.  Both are pure functions of the
#: frozen configs and the traits' stream tuple; grids repeat the same
#: few stream mixes across dozens of kernel groups, so the filtered
#: traffic is derived once per distinct mix per process.
_TRAFFIC_TABLES: dict[tuple, dict] = {}


def _traffic_tables(dram: DramModel, caches: CacheHierarchy) -> dict:
    key = (caches.l1.config, caches.l2.config, dram.config)
    found = _TRAFFIC_TABLES.get(key)
    if found is None:
        found = _TRAFFIC_TABLES[key] = {}
    return found


def _traffic_entry(
    tables: dict, dram: DramModel, caches: CacheHierarchy, streams: tuple, agents: int
) -> tuple:
    """(DRAM bytes, base transfer seconds) of one stream mix: the bytes
    that miss the L2 and their time at the pattern-dependent bandwidth
    with ``agents`` sharing the interface (``0.0`` without traffic)."""
    entry = tables.get((streams, agents))
    if entry is None:
        traffic = caches.dram_traffic(list(streams))
        dram_bytes = sum(traffic.values())
        transfer_s = (
            dram.transfer_seconds("gpu", bytes_by_pattern=traffic, concurrent_agents=agents)
            if dram_bytes > 0
            else 0.0
        )
        entry = tables[(streams, agents)] = (dram_bytes, transfer_s)
    return entry


class LaunchPricer:
    """Memoized launch pricing of one compiled kernel across candidates.

    The autotuner sweeps many ``(n_items, local_size)`` points of the
    same compiled kernel.  A pricer hoists the memo-key prefix (the
    content keys of the kernel, traits and configs — the expensive part
    of a lookup) and checks once that the kernel fits the config's
    register file (``CL_OUT_OF_RESOURCES`` at construction otherwise).
    Each memo miss is a one-lane :class:`GpuConfigStack` view; the
    mix slices and traffic tables behind it are shared per kernel and
    per stream mix, so only the epilogue runs per candidate.  Every
    pricer of one launch, :func:`time_launch`'s throwaway one included,
    feeds the same ``gpu_timing`` memo slot.
    """

    def __init__(
        self,
        compiled: CompiledKernel,
        traits: WorkloadTraits,
        config: MaliConfig,
        dram: DramModel,
        caches: CacheHierarchy,
        concurrent_agents: int = 1,
        fixed: tuple | None = None,
    ) -> None:
        _check_fits(compiled, config)
        self.compiled = compiled
        self.traits = traits
        self.config = config
        self.dram = dram
        self.caches = caches
        self.concurrent_agents = concurrent_agents
        # hoisted memo-key prefix: content_key of a tuple is the tuple of
        # element content_keys, so assembling per-candidate keys from the
        # fixed parts yields keys equal to time_launch's historical ones
        # (same memo slots).  ``fixed`` lets
        # :class:`GpuPricingModel` inject hash-cached parts, sharing the
        # platform-level ones across every kernel it prices;
        # wrapped and raw parts are equal and hash alike, so both forms
        # address the same memo slots.
        if fixed is None:
            fixed = (
                perf.content_key(compiled),
                perf.content_key(traits),
                perf.content_key(config),
                perf.content_key(dram.config),
                perf.content_key(caches.l1.config),
                perf.content_key(caches.l2.config),
            )
        self._fixed = fixed
        self._memo = perf.cache("gpu_timing")

    def key(self, n_items: int, local_size: int) -> tuple:
        """The ``gpu_timing`` memo key for one candidate."""
        f = self._fixed
        return (f[0], n_items, local_size, f[1], f[2], f[3], f[4], f[5], self.concurrent_agents)

    def price(self, n_items: int, local_size: int) -> GpuLaunchTiming:
        """Memoized candidate price (both tiers; one stack lane on a miss).

        Raises ``ValueError`` for ``n_items < 1`` and
        ``CL_INVALID_WORK_GROUP_SIZE`` for a local size no core can hold.
        """

        def fresh() -> GpuLaunchTiming:
            cell = GpuLaunchCell(
                compiled=self.compiled,
                traits=self.traits,
                n_items=n_items,
                local_size=local_size,
                concurrent_agents=self.concurrent_agents,
            )
            return GpuConfigStack((cell,), self.config, self.dram, self.caches).timings()[0]

        return self._memo.get_or_compute(self.key(n_items, local_size), fresh)


class GpuPricingModel:
    """The launch pricers of one platform facade.

    Builds one :class:`LaunchPricer` per :meth:`pricer` call and hashes
    the platform's memo-key parts once for all of them.
    ``platform.pricing_model()`` builds a fresh facade on every call and
    :meth:`~repro.benchmarks.base.Benchmark.iteration_pricer` asks once
    per kernel, so no pricer is cached here; the memo slots behind them
    are process-wide.
    """

    def __init__(self, config: MaliConfig, dram: DramModel, caches: CacheHierarchy):
        self.config = config
        self.dram = dram
        self.caches = caches
        # platform-level memo-key parts, hashed once per facade
        self._platform_fixed: tuple | None = None

    def _fixed_for(
        self, compiled: CompiledKernel, traits: WorkloadTraits
    ) -> tuple:
        if self._platform_fixed is None:
            self._platform_fixed = (
                _hashed_key_part(self.config),
                _hashed_key_part(self.dram.config),
                _hashed_key_part(self.caches.l1.config),
                _hashed_key_part(self.caches.l2.config),
            )
        return (
            _attached_key_part(compiled),
            _attached_key_part(traits),
        ) + self._platform_fixed

    def pricer(
        self,
        compiled: CompiledKernel,
        traits: WorkloadTraits,
        concurrent_agents: int = 1,
    ) -> LaunchPricer:
        """A :class:`LaunchPricer` for one kernel instance."""
        return LaunchPricer(
            compiled,
            traits,
            self.config,
            self.dram,
            self.caches,
            concurrent_agents=concurrent_agents,
            fixed=self._fixed_for(compiled, traits),
        )


# ---------------------------------------------------------------------------
# Config-axis stacking: the launch formula

#: MaliConfig fields a :class:`GpuConfigStack` treats as sweepable axes.
#: Everything else is baked into the stack's hoisted per-cell tables
#: (issue-cost columns, access-width efficiency, launch overheads), so a
#: variant config must match the base on every other field.
_STACK_AXES = frozenset({"shader_cores", "clock_hz", "register_file_scale"})


def _stack_signature(config: MaliConfig) -> tuple:
    """The config fields a stack bakes into its hoisted tables."""
    return tuple(
        (f.name, getattr(config, f.name))
        for f in fields(config)
        if f.name not in _STACK_AXES
    )


class GpuStackRows:
    """Row arrays of a block of k design points over a cell stack.

    ``(k, cells)`` float64 lanes, one column per cell in the stack's
    cell order (``dram_bytes`` is per cell only).
    ``feasible`` is False where the kernel no longer fits the config's
    scaled register file (a single launch raises ``CL_OUT_OF_RESOURCES``
    there); infeasible lanes carry ``inf`` seconds and zero utilization.
    """

    __slots__ = (
        "feasible",
        "seconds",
        "alu_utilization",
        "ls_utilization",
        "dram_bandwidth",
        "dram_bytes",
    )

    def __init__(
        self, feasible, seconds, alu_utilization, ls_utilization, dram_bandwidth, dram_bytes
    ):
        self.feasible = feasible
        self.seconds = seconds
        self.alu_utilization = alu_utilization
        self.ls_utilization = ls_utilization
        self.dram_bandwidth = dram_bandwidth
        self.dram_bytes = dram_bytes


class GpuConfigStack:
    """The Mali launch formula over a fixed set of launch cells.

    Everything that does not depend on the swept config axes
    (:data:`_STACK_AXES`: core count, clock, register-file scale) — the
    instruction-mix slices, DRAM traffic, work-group counts, atomic and
    barrier weights — is hoisted into per-cell NumPy lanes once, and
    validated as a launch would be (``ValueError`` for ``n_items < 1``,
    ``CL_INVALID_WORK_GROUP_SIZE`` for a local size no core holds).
    :meth:`_seconds` is the launch epilogue over those lanes;
    :meth:`block_rows` evaluates it for a block of ``(config, dram)``
    design points of a sweep in one pass, :meth:`timings` for the
    stack's own point as :class:`GpuLaunchTiming` rows (the
    single-launch views).

    Occupancy (:func:`~repro.mali.occupancy.derive_occupancy`) and the
    Job Manager's distribution (:func:`~repro.mali.job_manager.distribute`)
    appear here in array form: ``np.sqrt``/``np.ceil``/``np.maximum``
    are correctly rounded like their ``math`` counterparts, so every lane
    is what the scalar formulation computes for that cell (asserted
    against the scalar references in ``tests/pricing_oracle.py``).
    """

    def __init__(
        self,
        cells,
        config: MaliConfig,
        dram: DramModel,
        caches: CacheHierarchy,
    ) -> None:
        import numpy as np

        cells = tuple(cells)
        if not cells:
            raise ValueError("GpuConfigStack needs at least one cell")
        self.cells = cells
        self.config = config
        self.dram = dram
        self.caches = caches
        self._sig: tuple | None = None  # block_rows()'s base signature, on first use

        tables = _traffic_tables(dram, caches)
        group_ord: dict[tuple, int] = {}
        self._group_kernels: list[CompiledKernel] = []
        self._group_streams: list[tuple[tuple, int]] = []
        self._group_bytes: list[float] = []
        group_transfer: list[float] = []
        gidx: list[int] = []
        slices: list[tuple[float, float, float]] = []
        for cell in cells:
            if cell.n_items < 1:
                raise ValueError(f"n_items must be >= 1, got {cell.n_items}")
            check_local_size(cell.local_size)
            streams = cell.traits.streams
            gk = (id(cell.compiled), streams, cell.concurrent_agents)
            g = group_ord.get(gk)
            if g is None:
                g = group_ord[gk] = len(self._group_kernels)
                self._group_kernels.append(cell.compiled)
                self._group_streams.append((streams, cell.concurrent_agents))
                dram_bytes, transfer_s = _traffic_entry(
                    tables, dram, caches, streams, cell.concurrent_agents
                )
                self._group_bytes.append(dram_bytes)
                group_transfer.append(transfer_s)
            gidx.append(g)
            slices.append(_columns_for(cell.compiled, config).slice(cell.n_items))
        self._gidx = np.asarray(gidx, dtype=np.intp)

        self._arith_raw, self._ls_raw, self._access_eff = np.asarray(slices).T.copy()
        self._dram_bytes = np.asarray(self._group_bytes, dtype=np.float64)[self._gidx]
        self._n_f = np.asarray([float(c.n_items) for c in cells])
        self._local = np.asarray([c.local_size for c in cells], dtype=np.int64)
        self._local_f = self._local.astype(np.float64)
        # work-group count is config-independent: the integer
        # ceil(n_items / local_size), converted exactly to float64
        self._n_wg_f = np.asarray(
            [float(max(1, math.ceil(c.n_items / c.local_size))) for c in cells]
        )
        self._atomic_w = np.asarray(
            [c.compiled.mix.atomic_contention_weight for c in cells]
        )
        self._atomic_wl = np.asarray(
            [c.compiled.mix.atomic_contention_weight_local for c in cells]
        )
        self._barriers = np.asarray([c.compiled.mix.barriers for c in cells])
        self._cv = np.asarray([c.traits.imbalance_cv for c in cells])

        # per-scale (feasible, threads-per-core) group arrays and hiding
        # lanes; per-DRAM per-cell base transfer seconds
        self._tpc_cache: dict[float, tuple] = {}
        self._hiding_cache: dict[float, tuple] = {}
        self._transfer_cache: dict = {
            dram.config: np.asarray(group_transfer, dtype=np.float64)[self._gidx]
        }

    # ------------------------------------------------------------------
    def _tpc_for(self, scale: float) -> tuple:
        import numpy as np

        found = self._tpc_cache.get(scale)
        if found is None:
            feas = []
            tpcs = []
            for compiled in self._group_kernels:
                report = compiled.registers
                if fits_register_file(report, scale):
                    feas.append(True)
                    tpcs.append(threads_for_scale(report, scale))
                else:
                    feas.append(False)
                    tpcs.append(1)  # placeholder lane; masked out of rows
            found = self._tpc_cache[scale] = (
                np.asarray(feas, dtype=bool),
                np.asarray(tpcs, dtype=np.int64),
            )
        return found

    def _transfer_for(self, dram: DramModel):
        import numpy as np

        found = self._transfer_cache.get(dram.config)
        if found is None:
            tables = _traffic_tables(dram, self.caches)
            per_group = [
                _traffic_entry(tables, dram, self.caches, streams, agents)[1]
                for streams, agents in self._group_streams
            ]
            found = self._transfer_cache[dram.config] = np.asarray(
                per_group, dtype=np.float64
            )[self._gidx]
        return found

    def _hiding_for(self, scale: float) -> tuple:
        """Per-cell (hiding, bandwidth hiding) at one register-file
        scale: :func:`~repro.mali.occupancy.derive_occupancy` over the
        lanes, which depends on the config only through the scale."""
        import numpy as np

        found = self._hiding_cache.get(scale)
        if found is None:
            _, tpc_g = self._tpc_for(scale)
            tpc = tpc_g[self._gidx]
            # whole work-groups stay resident; a group larger than the
            # register budget time-shares it (int(x) == floor, x > 0)
            wg_groups = tpc // self._local
            resident = np.where(
                wg_groups >= 1,
                wg_groups * self._local,
                np.maximum((tpc * 0.6).astype(np.int64), 1),
            )
            res_f = resident.astype(np.float64)
            hiding = np.where(
                resident >= FULL_HIDING_THREADS,
                1.0,
                np.maximum(MIN_HIDING, np.sqrt(res_f / float(FULL_HIDING_THREADS))),
            )
            bandwidth_hiding = np.where(
                resident >= FULL_BANDWIDTH_THREADS,
                1.0,
                np.maximum(
                    MIN_HIDING, np.sqrt(res_f / float(FULL_BANDWIDTH_THREADS))
                ),
            )
            found = self._hiding_cache[scale] = (hiding, bandwidth_hiding)
        return found

    def _seconds(self, clock_hz, shader_cores, transfer, hiding, bandwidth_hiding) -> tuple:
        """The launch epilogue over every lane: ``(seconds, arith_s,
        ls_s, dram_s, atomic_s, barrier_s, schedule_s, imbalance)``.

        ``clock_hz`` / ``shader_cores`` are one design point's scalars
        (``(cells,)`` lanes) or ``(k,)`` arrays over a block of configs
        (``(k, cells)`` lanes, with ``(k, cells)`` hiding and transfer);
        every other config field is the stack's own.  Broadcasting keeps
        each lane's operation chain, so a block row is bitwise the
        scalar evaluation.  ``math.log`` of the core count stays on
        ``math`` (``np.log`` need not round the same), once per count.
        """
        import numpy as np

        config = self.config
        if isinstance(shader_cores, np.ndarray):
            listed = shader_cores.tolist()
            ln = {n: math.log(max(n, 2)) for n in set(listed)}
            two_ln_k = np.asarray([2.0 * ln[n] for n in listed])[:, None]
            cores = shader_cores[:, None]
            cores_f = cores.astype(np.float64)
            arith_div = (cores * config.arith_pipes_per_core).astype(np.float64)
            ls_div = (cores * config.ls_pipes_per_core).astype(np.float64)
            clock = np.asarray(clock_hz, dtype=np.float64)[:, None]
        else:
            two_ln_k = 2.0 * math.log(max(shader_cores, 2))
            cores_f = float(shader_cores)
            arith_div = float(shader_cores * config.arith_pipes_per_core)
            ls_div = float(shader_cores * config.ls_pipes_per_core)
            clock = clock_hz

        # Job Manager distribution: quantization (the fullest core sets
        # the finish time) times the extreme-value ragged-work estimate
        # cv * sqrt(2 ln k / n) for k cores and n groups per core
        # (per_core > 0 always: n_wg >= 1)
        per_core = self._n_wg_f / cores_f
        quantization = np.ceil(per_core) / per_core
        ragged = np.where(
            self._cv > 0.0,
            1.0 + self._cv * np.sqrt(two_ln_k / np.maximum(per_core, 1.0)),
            1.0,
        )
        imbalance = quantization * ragged
        schedule_s = self._n_wg_f * config.wg_schedule_cycles / clock

        arith_s = self._arith_raw / arith_div / clock / hiding
        ls_s = self._ls_raw / ls_div / clock / hiding
        # transfer is 0.0 exactly where there is no DRAM traffic, so
        # the division chain lands on a literal 0.0 there
        dram_s = transfer / bandwidth_hiding / self._access_eff
        # local atomics serialize only within one core: 1/n_cores weight
        atomic_s = (
            (self._atomic_w * self._n_f) * config.atomic_cycles
            + (self._atomic_wl * self._n_f) * config.atomic_local_cycles / cores_f
        ) / clock
        barrier_s = (
            (self._barriers * self._n_f) / self._local_f
            * config.barrier_cycles
            / clock
            / cores_f
        )

        peak = np.maximum(np.maximum(np.maximum(arith_s, ls_s), dram_s), atomic_s)
        leak = config.overlap_leak * ((((arith_s + ls_s) + dram_s) + atomic_s) - peak)
        parallel_s = (peak + leak) * imbalance + barrier_s
        seconds = parallel_s + schedule_s + config.launch_overhead_s
        return seconds, arith_s, ls_s, dram_s, atomic_s, barrier_s, schedule_s, imbalance

    def floor_seconds(
        self, dram: DramModel, *, shader_cores, clock_hz, register_file_scale=None
    ):
        """Rigorous per-cell lower bound on :meth:`block_rows` ``seconds``.

        The roofline floor along the config axis, the design space's
        pruning bound (the tuner prices every candidate and needs none):
        ``max(arith_s, ls_s, dram_s) + schedule_s + launch_overhead``,
        dropping only the terms that can only increase the result —
        the atomic lane of the roofline max, the overlap leak and
        barrier additions (non-negative) and the imbalance multiplier
        (>= 1).  With ``register_file_scale`` given, the arith/LS/DRAM
        terms carry the *exact* occupancy-hiding and access-efficiency
        divisors of :meth:`block_rows` (they depend on the config only
        through the register-file scale); without it they assume
        perfect hiding (divisors of one, still a valid floor since
        every divisor is <= 1) and the additive tail is skipped.

        ``shader_cores`` / ``clock_hz`` may be scalars (returns a
        ``(cells,)`` array) or aligned arrays of k configs (returns
        ``(k, cells)``).  Bitwise rigor: each term is an exact
        operation-prefix of the :meth:`block_rows` chain for the same lane
        (same operand order), the omissions are monotone under IEEE-754
        rounding, so ``floor <= block_rows(...).seconds`` holds lane for
        lane, including infeasible lanes (their seconds are ``inf``).
        """
        import numpy as np

        transfer = self._transfer_for(dram)
        cores = np.asarray(shader_cores, dtype=np.float64)
        clock = np.asarray(clock_hz, dtype=np.float64)
        scalar = cores.ndim == 0
        if scalar:
            cores = cores.reshape(1)
            clock = clock.reshape(1)
        arith = (
            self._arith_raw[None, :]
            / (cores * float(self.config.arith_pipes_per_core))[:, None]
            / clock[:, None]
        )
        ls = (
            self._ls_raw[None, :]
            / (cores * float(self.config.ls_pipes_per_core))[:, None]
            / clock[:, None]
        )
        if register_file_scale is None:
            floor = np.maximum(np.maximum(arith, ls), transfer[None, :])
        else:
            hiding, bandwidth_hiding = self._hiding_for(register_file_scale)
            # transfer is 0.0 exactly where there is no DRAM traffic,
            # so the division chain matches block_rows()'s literal 0.0 lane
            dram_s = transfer / bandwidth_hiding / self._access_eff
            floor = np.maximum(
                np.maximum(arith / hiding[None, :], ls / hiding[None, :]),
                dram_s[None, :],
            )
            schedule_s = (
                self._n_wg_f[None, :] * self.config.wg_schedule_cycles / clock[:, None]
            )
            floor = (floor + schedule_s) + self.config.launch_overhead_s
        return floor[0] if scalar else floor

    # ------------------------------------------------------------------
    def block_rows(self, configs, drams) -> GpuStackRows:
        """Price every cell under ``k`` design points at once.

        ``configs`` / ``drams`` are aligned sequences of Mali configs
        (equal to the stack's base outside :data:`_STACK_AXES`) and DRAM
        models; row ``i`` of the ``(k, cells)`` lanes is the
        ``(configs[i], drams[i])`` design point.  Feasibility, hiding and
        transfer lanes come from the per-scale and per-DRAM caches; core
        counts and clocks enter :meth:`_seconds` as columns, so the
        block is one epilogue pass.
        """
        import numpy as np

        if self._sig is None:
            self._sig = _stack_signature(self.config)
        for config in {id(c): c for c in configs}.values():
            if _stack_signature(config) != self._sig:
                raise ValueError(
                    "config differs from the stack base outside the stacked axes "
                    f"({', '.join(sorted(_STACK_AXES))})"
                )
        hiding = [self._hiding_for(c.register_file_scale) for c in configs]
        seconds, arith_s, ls_s = self._seconds(
            np.asarray([c.clock_hz for c in configs]),
            np.asarray([c.shader_cores for c in configs]),
            np.stack([self._transfer_for(dram) for dram in drams]),
            np.stack([h for h, _ in hiding]),
            np.stack([b for _, b in hiding]),
        )[:3]
        feasible = np.stack(
            [self._tpc_for(c.register_file_scale)[0] for c in configs]
        )[:, self._gidx]

        with np.errstate(divide="ignore", invalid="ignore"):
            pos = seconds > 0.0
            alu = np.where(pos, np.minimum(arith_s / seconds, 1.0), 0.0)
            lsu = np.where(pos, np.minimum(ls_s / seconds, 1.0), 0.0)
            dram_bw = np.where(pos, self._dram_bytes / seconds, 0.0)

        if not feasible.all():
            bad = ~feasible
            seconds = np.where(bad, np.inf, seconds)
            alu = np.where(bad, 0.0, alu)
            lsu = np.where(bad, 0.0, lsu)
            dram_bw = np.where(bad, 0.0, dram_bw)

        return GpuStackRows(feasible, seconds, alu, lsu, dram_bw, self._dram_bytes)

    def timings(self) -> tuple[GpuLaunchTiming, ...]:
        """One :class:`GpuLaunchTiming` per cell at the stack's own
        ``(config, dram)``: the lanes :meth:`block_rows` reduces, read
        back as Python floats.  Raises ``CL_OUT_OF_RESOURCES`` where a kernel
        does not fit the register file (:meth:`block_rows` masks the lane)."""
        config = self.config
        for compiled in self._group_kernels:
            _check_fits(compiled, config)
        hiding, bandwidth_hiding = self._hiding_for(config.register_file_scale)
        lanes = self._seconds(
            config.clock_hz, config.shader_cores, self._transfer_for(self.dram),
            hiding, bandwidth_hiding,
        )
        overhead = config.launch_overhead_s
        out = []
        for g, seconds, arith_s, ls_s, dram_s, atomic_s, barrier_s, schedule_s, imbalance in zip(
            self._gidx.tolist(), *(lane.tolist() for lane in lanes)
        ):
            # the bottleneck is the first maximum in (arith, ls, dram,
            # atomic) order — the order the leak sums the components
            peak, bottleneck = arith_s, "arith"
            if ls_s > peak:
                peak, bottleneck = ls_s, "ls"
            if dram_s > peak:
                peak, bottleneck = dram_s, "dram"
            if atomic_s > peak:
                bottleneck = "atomic"
            # fill the frozen instance dict directly instead of paying
            # the dataclass __init__'s per-field object.__setattr__
            # (same fields, same values, same pickle/eq/repr)
            timing = object.__new__(GpuLaunchTiming)
            timing.__dict__.update(
                seconds=seconds,
                arith_seconds=arith_s,
                ls_seconds=ls_s,
                dram_seconds=dram_s,
                atomic_seconds=atomic_s,
                barrier_seconds=barrier_s,
                schedule_seconds=schedule_s,
                launch_overhead_seconds=overhead,
                imbalance_factor=imbalance,
                dram_bytes=self._group_bytes[g],
                bottleneck=bottleneck,
            )
            out.append(timing)
        return tuple(out)
