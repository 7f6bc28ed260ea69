"""Design-space hypercube: batch-price many SoC configs, emit Pareto data.

The ROADMAP's question — *"what Mali would beat the 2×A15 at equal
energy?"* — needs the full (configs × benchmarks × versions ×
vector-widths × precision) hypercube priced cheaply.  Looping the
per-config :class:`~repro.pricing.grid.PlatformPricing` facade is
correct but pays the whole grid walk once per config; this module
evaluates the hypercube as *stacked* NumPy evaluations instead:

* the cell grid (CPU Serial/OpenMP cells + every autotuner candidate of
  every benchmark, compiled once — kernels are config-independent) is
  built a single time by :class:`DesignSpace`;
* :class:`~repro.mali.timing.GpuConfigStack` and
  :class:`~repro.cpu.pricing.CpuConfigStack` hoist every config-invariant
  quantity, so each SoC config costs a few whole-grid array passes;
* board power comes from :func:`~repro.power.rails.stack_watts` over the
  row arrays.

The stacks are the only implementation of the launch and Serial/OpenMP
formulas; the campaign's single-cell pricing entry points are views over
them.  Every lane is checked bit for bit against scalar references that
price each cell of each config one by one (``tests/pricing_oracle.py``).

The **Opt** version of a (config, benchmark, precision) point is the
feasible candidate minimizing ``seconds × launches`` — the autotuner's
currency over the main-kernel candidate set.  Multi-kernel benchmarks
(hist's merge stage, red's second stage) price their main kernel here;
the full multi-stage ``iteration_pricer`` refinement stays the
campaign path's job.  Candidates whose kernels exceed a config's scaled
register file are infeasible on that config (``CL_OUT_OF_RESOURCES``),
which is how the paper's DP register-exhaustion collapse shows up
across the space.

On top sit deterministic Pareto helpers: :func:`dominates`,
:func:`frontier` (the O(n log n) :func:`repro.pareto.skyline`),
:func:`dominated`, :func:`equal_energy_speedup` and
:func:`equal_time_energy`.

Large spaces run through **streaming evaluation**
(``evaluate_space(stream=True)``): configs are priced in fixed-size
chunks, each chunk's target-slice points feed per-precision
:class:`~repro.pareto.OnlineFrontier` accumulators, and dominated
points are dropped immediately — peak memory is O(chunk + frontier)
instead of O(space).  Before pricing, a vectorized roofline/rail
**lower bound** (:meth:`DesignSpace.opt_bounds`) prunes configs whose
best case is already dominated by the current frontier; pruning never
changes the frontier (the bound under-estimates both objectives, and
domination is transitive).  ``jobs=N`` shards configs over workers
that each reduce locally and ship back only frontier candidates,
merged to results byte-identical to ``jobs=1``.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .benchmarks.base import Precision, cpu_pricing_inputs
from .benchmarks.registry import PAPER_ORDER, create
from .calibration.exynos5250 import ExynosPlatform, default_platform
from .calibration.socspace import EXYNOS_5250, SoCConfig, default_space
from .errors import CLError, CompilerError
from .experiments.trace import JsonlTraceSink, Tracer, TraceSink
from .pareto import OnlineFrontier, point_key, skyline, skyline_reference
from .power.rails import ActivityKind, gpu_floor_watts, stack_watts
from .pricing.cells import MODE_OPENMP, MODE_SERIAL, CpuCell, GpuLaunchCell

#: version labels of a design point (Opt = best feasible GPU candidate)
VERSIONS = ("Serial", "OpenMP", "Opt")
#: pseudo-benchmark name of the across-benchmarks sum
AGGREGATE = "aggregate"

_PRECISIONS_DEFAULT = (Precision.SINGLE, Precision.DOUBLE)


@dataclass(frozen=True)
class DesignPoint:
    """One (config, benchmark, precision, version) cell of the hypercube.

    ``seconds`` is one timed iteration (``× launches`` for GPU
    versions); ``energy_j`` is ``seconds × watts`` of the meterless
    board-power model.  Infeasible points (no Opt candidate fits the
    config) carry ``inf`` seconds/energy and zero watts.
    """

    config_name: str
    benchmark: str
    precision: str
    version: str
    seconds: float
    watts: float
    energy_j: float
    feasible: bool = True


class _BenchCells:
    """Cell spans of one (benchmark, precision) group in the flat grid."""

    __slots__ = ("name", "precision", "cpu_start", "gpu_start", "gpu_stop", "launches")

    def __init__(self, name, precision, cpu_start, gpu_start, gpu_stop, launches):
        self.name = name
        self.precision = precision
        self.cpu_start = cpu_start
        self.gpu_start = gpu_start
        self.gpu_stop = gpu_stop
        self.launches = launches


class SpaceRows:
    """Aligned row arrays of one config over a :class:`DesignSpace` grid.

    GPU lanes follow the space's GPU cell order, CPU lanes its CPU cell
    order ([Serial, OpenMP] per group).  ``gpu_iter_seconds`` is
    ``seconds × launches`` (the Opt currency); infeasible GPU lanes are
    ``inf`` seconds/energy, zero watts.
    """

    __slots__ = (
        "gpu_feasible",
        "gpu_seconds",
        "gpu_iter_seconds",
        "gpu_watts",
        "gpu_energy",
        "cpu_seconds",
        "cpu_watts",
        "cpu_energy",
    )

    def __init__(self, **arrays):
        for name in self.__slots__:
            setattr(self, name, arrays[name])


class DesignSpace:
    """The prepared hypercube: one cell grid + config stacks, many configs.

    Construction compiles every autotuner candidate once (candidates
    whose kernels cannot allocate at all — the hard
    ``CL_OUT_OF_RESOURCES`` limit — are dropped for every config, same
    as the tuner) and builds the GPU/CPU config stacks.
    ``stacked_rows`` then prices one config in a few array passes.
    """

    def __init__(
        self,
        benchmarks=PAPER_ORDER,
        precisions=_PRECISIONS_DEFAULT,
        scale: float = 0.5,
        seed: int = 1234,
        base: ExynosPlatform | None = None,
    ) -> None:
        import numpy as np

        from .compiler.pipeline import compile_kernel
        from .cpu.pricing import CpuConfigStack
        from .mali.timing import GpuConfigStack
        from .ocl.driver import default_quirks, driver_local_size
        from .optimizations.autotune import _candidates

        self.base = base if base is not None else default_platform()
        self.benchmarks = tuple(benchmarks)
        self.precisions = tuple(precisions)
        self.scale = scale
        self.seed = seed

        quirks = (
            self.base.driver_quirks
            if self.base.driver_quirks is not None
            else default_quirks()
        )
        groups: list[_BenchCells] = []
        cpu_cells: list[CpuCell] = []
        gpu_cells: list[GpuLaunchCell] = []
        launches: list[int] = []
        for name in self.benchmarks:
            for precision in self.precisions:
                bench = create(
                    name, precision=precision, scale=scale, seed=seed, platform=self.base
                )
                _, mix, traits, n = cpu_pricing_inputs(bench)
                cpu_start = len(cpu_cells)
                cpu_cells.append(
                    CpuCell(mix=mix, mode=MODE_SERIAL, n_elements=n, traits=traits)
                )
                cpu_cells.append(
                    CpuCell(mix=mix, mode=MODE_OPENMP, n_elements=n, traits=traits)
                )
                gpu_start = len(gpu_cells)
                for options, local in _candidates(bench, include_naive=True):
                    try:
                        compiled = compile_kernel(
                            bench.kernel_ir(options), options, quirks=quirks
                        )
                    except (CompilerError, CLError):
                        continue  # infeasible on every config (baseline ISA)
                    base_items = max(1, -(-bench.elements() // compiled.elems_per_item))
                    loc = local or driver_local_size(
                        base_items, self.base.mali.max_work_group_size
                    )
                    n_items = -(-base_items // loc) * loc
                    gtraits = bench.gpu_traits(options)
                    gpu_cells.append(
                        GpuLaunchCell(
                            compiled=compiled,
                            traits=gtraits,
                            n_items=n_items,
                            local_size=loc,
                        )
                    )
                    launches.append(gtraits.launches)
                groups.append(
                    _BenchCells(
                        name,
                        precision.value,
                        cpu_start,
                        gpu_start,
                        len(gpu_cells),
                        tuple(launches[gpu_start:]),
                    )
                )
        self.groups = groups
        self.cpu_cells = tuple(cpu_cells)
        self.gpu_cells = tuple(gpu_cells)
        self._launches_f = np.asarray([float(l) for l in launches])

        dram = self.base.dram_model()
        self._gpu_stack = (
            GpuConfigStack(self.gpu_cells, self.base.mali, dram, self.base.gpu_caches())
            if self.gpu_cells
            else None
        )
        self._cpu_stack = CpuConfigStack(
            self.cpu_cells, self.base.cpu, dram, self.base.cpu_caches()
        )
        self._bounds = None  # lazy opt_bounds tables

    # ------------------------------------------------------------------
    def stacked_rows(self, config: SoCConfig) -> SpaceRows:
        """Row arrays of one config via the config-axis stacks."""
        import numpy as np

        platform = config.platform(self.base)
        dram = platform.dram_model()
        rails = platform.rails

        c = self._cpu_stack.rows(platform.cpu, dram)
        cpu_watts = stack_watts(
            rails,
            ActivityKind.CPU,
            dram_bandwidth=c.dram_bandwidth,
            active_cpu_cores=c.active_cores,
            cpu_ipc=c.ipc,
        )
        cpu_energy = c.seconds * cpu_watts

        if self._gpu_stack is not None:
            g = self._gpu_stack.rows(platform.mali, dram)
            watts = stack_watts(
                rails,
                ActivityKind.GPU_KERNEL,
                dram_bandwidth=g.dram_bandwidth,
                gpu_alu_utilization=g.alu_utilization,
                gpu_ls_utilization=g.ls_utilization,
            )
            gpu_watts = np.where(g.feasible, watts, 0.0)
            gpu_iter = g.seconds * self._launches_f
            with np.errstate(invalid="ignore"):
                gpu_energy = np.where(g.feasible, gpu_iter * gpu_watts, np.inf)
            gpu_feasible = g.feasible
            gpu_seconds = g.seconds
        else:
            gpu_feasible = np.zeros(0, dtype=bool)
            gpu_seconds = gpu_iter = gpu_watts = gpu_energy = np.zeros(0)
        return SpaceRows(
            gpu_feasible=gpu_feasible,
            gpu_seconds=gpu_seconds,
            gpu_iter_seconds=gpu_iter,
            gpu_watts=gpu_watts,
            gpu_energy=gpu_energy,
            cpu_seconds=c.seconds,
            cpu_watts=cpu_watts,
            cpu_energy=cpu_energy,
        )

    def rows(self, config: SoCConfig) -> SpaceRows:
        """Row arrays of one config (:meth:`stacked_rows`)."""
        return self.stacked_rows(config)

    # ------------------------------------------------------------------
    def points(self, config: SoCConfig, rows: SpaceRows) -> list[DesignPoint]:
        """Design points of one config from its row arrays.

        Point equality reduces to row identity.  Emits [Serial, OpenMP,
        Opt] per (benchmark, precision) group, then per-precision
        aggregates (sums across benchmarks; an aggregate Opt is
        infeasible if any benchmark's is).
        """
        import numpy as np

        pts: list[DesignPoint] = []
        agg: dict[tuple[str, str], list] = {}  # (precision, version) -> [s, e, ok]
        for bc in self.groups:
            for version, lane in (("Serial", bc.cpu_start), ("OpenMP", bc.cpu_start + 1)):
                seconds = float(rows.cpu_seconds[lane])
                watts = float(rows.cpu_watts[lane])
                energy = float(rows.cpu_energy[lane])
                pts.append(
                    DesignPoint(
                        config_name=config.name,
                        benchmark=bc.name,
                        precision=bc.precision,
                        version=version,
                        seconds=seconds,
                        watts=watts,
                        energy_j=energy,
                    )
                )
                acc = agg.setdefault((bc.precision, version), [0.0, 0.0, True])
                acc[0] += seconds
                acc[1] += energy
            span = slice(bc.gpu_start, bc.gpu_stop)
            feas = rows.gpu_feasible[span]
            if feas.size and bool(feas.any()):
                j = int(np.argmin(rows.gpu_iter_seconds[span]))
                seconds = float(rows.gpu_iter_seconds[span][j])
                watts = float(rows.gpu_watts[span][j])
                energy = float(rows.gpu_energy[span][j])
                ok = True
            else:
                seconds, watts, energy, ok = float("inf"), 0.0, float("inf"), False
            pts.append(
                DesignPoint(
                    config_name=config.name,
                    benchmark=bc.name,
                    precision=bc.precision,
                    version="Opt",
                    seconds=seconds,
                    watts=watts,
                    energy_j=energy,
                    feasible=ok,
                )
            )
            acc = agg.setdefault((bc.precision, "Opt"), [0.0, 0.0, True])
            acc[0] += seconds
            acc[1] += energy
            acc[2] = acc[2] and ok
        for precision in dict.fromkeys(bc.precision for bc in self.groups):
            for version in VERSIONS:
                seconds, energy, ok = agg[(precision, version)]
                watts = energy / seconds if ok and seconds > 0 else 0.0
                pts.append(
                    DesignPoint(
                        config_name=config.name,
                        benchmark=AGGREGATE,
                        precision=precision,
                        version=version,
                        seconds=seconds,
                        watts=watts,
                        energy_j=energy,
                        feasible=ok,
                    )
                )
        return pts

    # ------------------------------------------------------------------
    def evaluate(self, configs) -> tuple[DesignPoint, ...]:
        """Points of many configs, in config order (single process)."""
        out: list[DesignPoint] = []
        for config in configs:
            out.extend(self.points(config, self.stacked_rows(config)))
        return tuple(out)

    # ------------------------------------------------------------------
    def _bound_tables(self):
        """Lazy per-group tables behind :meth:`opt_bounds`."""
        import numpy as np

        tables = self._bounds
        if tables is None:
            starts = np.asarray([bc.gpu_start for bc in self.groups], dtype=np.intp)
            empty = np.asarray(
                [bc.gpu_stop == bc.gpu_start for bc in self.groups], dtype=bool
            )
            by_prec: dict[str, list[int]] = {}
            for g, bc in enumerate(self.groups):
                by_prec.setdefault(bc.precision, []).append(g)
            tables = self._bounds = (starts, empty, by_prec, {}, {})
        return tables

    def _group_infeasible(self, register_file_scale: float):
        """Per-group flag: no candidate fits this register-file scale.

        Exact, not a bound — :meth:`points` marks a group's Opt
        infeasible iff no cell of its span is feasible, and feasibility
        depends on the config only through ``register_file_scale``
        (the same :meth:`~repro.mali.timing.GpuConfigStack._tpc_for`
        predicate the pricing path evaluates).
        """
        import numpy as np

        starts, empty, _, _, infeas_cache = self._bound_tables()
        found = infeas_cache.get(register_file_scale)
        if found is None:
            feas_g, _ = self._gpu_stack._tpc_for(register_file_scale)
            feas = feas_g[self._gpu_stack._gidx]
            any_feas = np.logical_or.reduceat(feas, starts)
            found = infeas_cache[register_file_scale] = ~any_feas | empty
        return found

    def opt_bounds(self, configs, benchmark: str = AGGREGATE):
        """Vectorized per-config lower bounds on the Opt design points.

        Returns ``{precision: (seconds_lb, energy_lb)}`` — float64
        arrays aligned with ``configs`` — such that for every config
        the ``(benchmark, precision, "Opt")`` point satisfies
        ``seconds_lb <= point.seconds`` and ``energy_lb <=
        point.energy_j`` rigorously in IEEE-754 (infeasible points are
        ``inf``, trivially above any bound).  This is the pruning
        oracle: if a bound is strictly dominated by a real evaluated
        point, the config's actual Opt point is strictly dominated too
        (strict inequalities carry through ``bound <= actual``), so
        skipping it can never change the frontier.

        Construction per config: the group minimum over the stack's
        roofline floor (:meth:`~repro.mali.timing.GpuConfigStack.floor_seconds`
        times launches) bounds the group's Opt seconds — the minimum
        over *all* candidates under-estimates the minimum over the
        feasible subset; the rail floor
        (:func:`~repro.power.rails.gpu_floor_watts` of the rail-scaled
        config) bounds its watts; per-precision aggregates accumulate
        in the exact group order :meth:`points` uses, so the same-order
        float sums stay monotone term for term.
        """
        import numpy as np

        configs = tuple(configs)
        starts, empty, by_prec, dram_cache, _ = self._bound_tables()
        n = len(configs)
        if self._gpu_stack is None or not n:
            inf = np.full(n, np.inf)
            return {prec: (inf, inf.copy()) for prec in by_prec}

        rails = self.base.rails
        rail_scale = np.asarray([c.rail_scale for c in configs])
        # gpu_floor_watts over the rail-scaled configs, vectorized in
        # the same operation order socspace's replace() + the scalar
        # helper produce (board_idle stays unscaled)
        wfloor = (
            rails.board_idle_w + rails.host_polling_w * rail_scale
        ) + rails.gpu_base_w * rail_scale

        cores = np.asarray([float(c.gpu_cores) for c in configs])
        clock = np.asarray([c.gpu_clock_hz for c in configs])
        gmin = np.empty((n, len(self.groups)))
        by_dram: dict[tuple, list[int]] = {}
        for i, c in enumerate(configs):
            by_dram.setdefault((c.dram_gbps, c.register_file_scale), []).append(i)
        for (gbps, rf_scale), idxs in by_dram.items():
            dram = dram_cache.get(gbps)
            if dram is None:
                dram = dram_cache[gbps] = (
                    configs[idxs[0]].platform(self.base).dram_model()
                )
            floor = self._gpu_stack.floor_seconds(
                dram,
                shader_cores=cores[idxs],
                clock_hz=clock[idxs],
                register_file_scale=rf_scale,
            )
            iter_floor = floor * self._launches_f[None, :]
            # groups tile the gpu-cell axis contiguously in order, so a
            # reduceat over the starts is the per-group min; empty
            # groups (reduceat would alias the next span) are masked
            gmin[idxs, :] = np.minimum.reduceat(iter_floor, starts, axis=1)
        if empty.any():
            gmin[:, empty] = np.inf
        # provable register-file infeasibility: the group's Opt point
        # is exactly infeasible (inf seconds), not merely bounded
        by_rf: dict[float, list[int]] = {}
        for i, c in enumerate(configs):
            by_rf.setdefault(c.register_file_scale, []).append(i)
        for rf_scale, idxs in by_rf.items():
            infeasible = self._group_infeasible(rf_scale)
            if infeasible.any():
                gmin[np.ix_(idxs, np.flatnonzero(infeasible))] = np.inf

        out: dict[str, tuple] = {}
        for prec, gids in by_prec.items():
            if benchmark != AGGREGATE:
                gids = [g for g in gids if self.groups[g].name == benchmark]
            t = np.zeros(n)
            e = np.zeros(n)
            for g in gids:
                t = t + gmin[:, g]
                e = e + gmin[:, g] * wfloor
            out[prec] = (t, e)
        return out


# ---------------------------------------------------------------------------
# multi-process driver
# ---------------------------------------------------------------------------


def _eval_worker(payload) -> tuple[DesignPoint, ...]:
    """Worker: rebuild the space locally, evaluate a config chunk."""
    benchmarks, precision_values, scale, seed, configs = payload
    space = DesignSpace(
        benchmarks=benchmarks,
        precisions=tuple(Precision(v) for v in precision_values),
        scale=scale,
        seed=seed,
    )
    return space.evaluate(configs)


# ---------------------------------------------------------------------------
# streaming driver (chunked evaluation + pruning + online reduction)
# ---------------------------------------------------------------------------


def _resolve_trace(trace):
    """Normalize ``trace`` (sink, path or None) like the campaign engine."""
    if trace is None:
        return TraceSink(), False
    if isinstance(trace, (str, Path)):
        return JsonlTraceSink(trace), True
    return trace, False


def _stream_shard(
    space: DesignSpace,
    configs,
    *,
    chunk_size: int,
    prune: bool,
    target_benchmark: str,
    target_version: str,
    keep_names: frozenset,
    frontiers: dict | None = None,
    tracer: Tracer | None = None,
):
    """Stream one config shard through chunked pricing + online reduction.

    Returns ``(kept_points, frontiers, evaluated, pruned, peak)``:
    full point lists of the ``keep_names`` configs (shard order), one
    :class:`~repro.pareto.OnlineFrontier` per precision over the
    ``(target_benchmark, precision, target_version)`` slice,
    evaluated/pruned config counts and the peak number of simultaneously
    resident :class:`DesignPoint` objects (chunk + kept + frontier) —
    the O(chunk + frontier) memory-model witness.
    """
    if frontiers is None:
        frontiers = {p.value: OnlineFrontier(key=_sort_key) for p in space.precisions}
    evaluated = 0
    pruned = 0
    peak = 0
    kept_by_name: dict[str, list[DesignPoint]] = {}
    can_prune = prune and target_version == "Opt"
    inf = float("inf")
    n_kept = 0

    def _evaluate(config) -> int:
        nonlocal evaluated, n_kept
        pts = space.points(config, space.stacked_rows(config))
        evaluated += 1
        if config.name in keep_names:
            kept_by_name[config.name] = pts
            n_kept += len(pts)
        for p in pts:
            if p.benchmark == target_benchmark and p.version == target_version:
                frontiers[p.precision].add(p)
        return len(pts)

    # bound-only first pass: cache each chunk's bounds and seed the
    # frontier with the most promising configs (per precision, the
    # bound-time and bound-energy argmins), so the main sweep prunes
    # against a near-final frontier from its very first chunk.  Probe
    # choice only affects *which* dominated configs get skipped — the
    # frontier itself is order-independent and pruning is sound — so
    # any probe set yields the same result points.
    chunk_starts = range(0, len(configs), chunk_size)
    chunk_bounds: list[dict] = []
    probe_idx: list[int] = []
    if can_prune:
        best: dict[tuple, tuple] = {}  # (precision, axis) -> (value, index)
        for start in chunk_starts:
            chunk = configs[start : start + chunk_size]
            bounds = space.opt_bounds(chunk, benchmark=target_benchmark)
            chunk_bounds.append(bounds)
            for prec, (t, e) in bounds.items():
                for axis, arr in (("t", t), ("e", e)):
                    i = int(arr.argmin())
                    value = float(arr[i])
                    if value < inf and value < best.get((prec, axis), (inf,))[0]:
                        best[(prec, axis)] = (value, start + i)
        probe_idx = sorted({i for _, i in best.values()})
        probe_points = sum(_evaluate(configs[i]) for i in probe_idx)
        peak = probe_points + sum(len(f) for f in frontiers.values())
    probes = set(probe_idx)

    for chunk_no, start in enumerate(chunk_starts):
        chunk = configs[start : start + chunk_size]
        chunk_pruned = 0
        if can_prune:
            bounds = chunk_bounds[chunk_no]
            survivors = []
            for i, config in enumerate(chunk):
                if start + i in probes:
                    continue  # already evaluated while seeding
                # skippable iff, for every precision, the config's
                # target point provably cannot join the frontier:
                # either its bound is exactly infeasible, or a real
                # frontier member strictly dominates the bound (and by
                # transitivity the actual point, bound <= actual)
                if config.name not in keep_names and all(
                    t[i] == inf
                    or (
                        len(frontiers[prec])
                        and frontiers[prec].strictly_dominates(
                            float(t[i]), float(e[i])
                        )
                    )
                    for prec, (t, e) in bounds.items()
                ):
                    pruned += 1
                    chunk_pruned += 1
                else:
                    survivors.append(config)
        else:
            survivors = list(chunk)
        chunk_points = sum(_evaluate(config) for config in survivors)
        resident = chunk_points + n_kept + sum(len(f) for f in frontiers.values())
        peak = max(peak, resident)
        if tracer is not None:
            tracer.emit(
                "space_chunk_finished",
                detail={
                    "configs": len(chunk),
                    "evaluated": len(survivors),
                    "pruned": chunk_pruned,
                    "frontier": {p: len(f) for p, f in frontiers.items()},
                    "resident_points": resident,
                },
            )
    # kept points come back in input-config order regardless of the
    # evaluation order above
    kept = [p for c in configs if c.name in kept_by_name for p in kept_by_name[c.name]]
    return kept, frontiers, evaluated, pruned, peak


def _stream_worker(payload):
    """Worker: rebuild the space, stream a shard, ship candidates only.

    The shipped payload is the worker's local frontier (the only points
    that can still reach the global frontier: local pruning and local
    eviction both discard only globally-dominated points) plus the full
    point lists of the keep configs — O(chunk + frontier) data instead
    of the shard's whole hypercube.
    """
    (
        benchmarks,
        precision_values,
        scale,
        seed,
        configs,
        chunk_size,
        prune,
        target_benchmark,
        target_version,
        keep_names,
    ) = payload
    space = DesignSpace(
        benchmarks=benchmarks,
        precisions=tuple(Precision(v) for v in precision_values),
        scale=scale,
        seed=seed,
    )
    kept, frontiers, evaluated, pruned, peak = _stream_shard(
        space,
        configs,
        chunk_size=chunk_size,
        prune=prune,
        target_benchmark=target_benchmark,
        target_version=target_version,
        keep_names=frozenset(keep_names),
    )
    candidates = {prec: f.points() for prec, f in frontiers.items()}
    return tuple(kept), candidates, evaluated, pruned, peak


def _stream_result(
    configs,
    benchmarks,
    precisions,
    frontiers,
    kept,
    keep_names,
    *,
    scale,
    seed,
    evaluated,
    pruned,
    peak,
    chunk_size,
    target_benchmark,
    target_version,
) -> DesignSpaceResult:
    """Assemble the streamed result (shared by jobs=1 and jobs=N).

    Retained points are the keep configs' full lists (input config
    order) followed by each precision's frontier (``precisions``
    order, keep configs' entries deduplicated); retained configs are
    the input-order subset that still owns at least one point.
    """
    points: list[DesignPoint] = list(kept)
    front_names: set[str] = set()
    for precision in precisions:
        for p in frontiers[precision.value].points():
            front_names.add(p.config_name)
            if p.config_name not in keep_names:
                points.append(p)
    retained = tuple(
        c for c in configs if c.name in keep_names or c.name in front_names
    )
    return DesignSpaceResult(
        configs=retained,
        digests=tuple(c.digest() for c in retained),
        points=tuple(points),
        benchmarks=tuple(benchmarks),
        precisions=tuple(p.value for p in precisions),
        scale=scale,
        seed=seed,
        mode="stream",
        evaluated=evaluated,
        pruned=pruned,
        peak_resident=peak,
        chunk_size=chunk_size,
        target_benchmark=target_benchmark,
        target_version=target_version,
    )


@dataclass(frozen=True)
class DesignSpaceResult:
    """The evaluated hypercube: configs, digests and every design point.

    ``mode`` is ``"materialize"`` (every point of every config) or
    ``"stream"`` (only the kept configs' full point lists plus the
    per-precision target-slice frontiers survive; everything else was
    discarded while streaming).  In stream mode ``configs`` /
    ``digests`` cover only the retained configs, ``evaluated`` +
    ``pruned`` equals the size of the swept space, and
    ``peak_resident`` is the observed memory-model witness (max
    simultaneously resident points: chunk + kept + frontier).
    """

    configs: tuple[SoCConfig, ...]
    digests: tuple[str, ...]
    points: tuple[DesignPoint, ...]
    benchmarks: tuple[str, ...]
    precisions: tuple[str, ...]
    scale: float
    seed: int
    mode: str = "materialize"
    evaluated: int = 0
    pruned: int = 0
    peak_resident: int = 0
    chunk_size: int | None = None
    target_benchmark: str | None = None
    target_version: str | None = None

    def frontier_points(
        self, precision: str = "single", benchmark: str | None = None,
        version: str | None = None,
    ) -> tuple[DesignPoint, ...]:
        """Frontier of one slice (defaults to the streamed target slice)."""
        return frontier(
            self.select(
                benchmark=benchmark or self.target_benchmark or AGGREGATE,
                precision=precision,
                version=version or self.target_version or "Opt",
            )
        )

    def describe(self) -> str:
        """Human summary: space shape, prune counts, frontier sizes."""
        total = self.evaluated + self.pruned
        lines = [
            f"design space: {total} configs x {len(self.benchmarks)} benchmarks"
            f" x {len(self.precisions)} precisions, mode={self.mode}"
        ]
        if self.mode == "stream":
            lines.append(
                f"  streamed {self.target_benchmark}/{self.target_version}"
                f" in chunks of {self.chunk_size}: {self.evaluated} evaluated,"
                f" {self.pruned} pruned"
                f" ({100.0 * self.pruned / total if total else 0.0:.1f}%),"
                f" peak resident points {self.peak_resident}"
            )
        else:
            lines.append(
                f"  materialized {len(self.points)} points"
                f" ({sum(p.feasible for p in self.points)} feasible)"
            )
        for precision in self.precisions:
            front = self.frontier_points(precision=precision)
            lines.append(f"  frontier[{precision}]: {len(front)} points")
        return "\n".join(lines)

    def select(
        self,
        benchmark: str = AGGREGATE,
        precision: str = "single",
        version: str | None = "Opt",
        feasible_only: bool = False,
    ) -> tuple[DesignPoint, ...]:
        """Points of one hypercube slice, in evaluation order."""
        return tuple(
            p
            for p in self.points
            if p.benchmark == benchmark
            and p.precision == precision
            and (version is None or p.version == version)
            and (not feasible_only or p.feasible)
        )

    def point(self, config_name, benchmark, precision, version) -> DesignPoint:
        for p in self.points:
            if (
                p.config_name == config_name
                and p.benchmark == benchmark
                and p.precision == precision
                and p.version == version
            ):
                return p
        raise KeyError(
            f"no point ({config_name!r}, {benchmark!r}, {precision!r}, {version!r})"
        )

    def to_dict(self) -> dict:
        """JSON-ready form (CLI output; ``inf`` encoded as null)."""

        def num(x):
            return x if x == x and x not in (float("inf"), float("-inf")) else None

        return {
            "benchmarks": list(self.benchmarks),
            "precisions": list(self.precisions),
            "scale": self.scale,
            "seed": self.seed,
            "mode": self.mode,
            "evaluated": self.evaluated,
            "pruned": self.pruned,
            "peak_resident": self.peak_resident,
            "chunk_size": self.chunk_size,
            "target_benchmark": self.target_benchmark,
            "target_version": self.target_version,
            "configs": [
                {
                    "name": c.name,
                    "digest": d,
                    "gpu_cores": c.gpu_cores,
                    "gpu_clock_hz": c.gpu_clock_hz,
                    "cpu_cores": c.cpu_cores,
                    "cpu_clock_hz": c.cpu_clock_hz,
                    "dram_gbps": c.dram_gbps,
                    "register_file_scale": c.register_file_scale,
                    "rail_scale": c.rail_scale,
                }
                for c, d in zip(self.configs, self.digests)
            ],
            "points": [
                {
                    "config": p.config_name,
                    "benchmark": p.benchmark,
                    "precision": p.precision,
                    "version": p.version,
                    "seconds": num(p.seconds),
                    "watts": num(p.watts),
                    "energy_j": num(p.energy_j),
                    "feasible": p.feasible,
                }
                for p in self.points
            ],
        }


def evaluate_space(
    configs=None,
    benchmarks=PAPER_ORDER,
    precisions=_PRECISIONS_DEFAULT,
    scale: float = 0.5,
    seed: int = 1234,
    jobs: int = 1,
    stream: bool = False,
    chunk_size: int = 256,
    prune: bool = True,
    target_benchmark: str = AGGREGATE,
    target_version: str = "Opt",
    keep_configs=(EXYNOS_5250.name,),
    trace=None,
    space: DesignSpace | None = None,
) -> DesignSpaceResult:
    """Evaluate the full hypercube over a config family.

    ``configs`` defaults to :func:`~repro.calibration.socspace.default_space`
    (64 SoCs around the Exynos 5250).  ``jobs > 1`` shards configs over
    a process pool; each worker rebuilds the cell grid locally, and the
    output is byte-identical to ``jobs=1`` (configs are independent and
    reassembled in input order).

    ``stream=True`` switches to the chunked large-space driver: configs
    are priced ``chunk_size`` at a time, only the
    ``(target_benchmark, precision, target_version)`` slice feeds
    per-precision :class:`~repro.pareto.OnlineFrontier` reducers, and
    non-frontier points are discarded immediately — peak memory is
    O(chunk + frontier), not O(space).  ``prune=True`` additionally
    skips pricing configs whose :meth:`DesignSpace.opt_bounds` lower
    bound is already strictly dominated on *every* precision (sound
    only for the Opt version; other targets evaluate everything).  The
    result retains the full point lists of ``keep_configs`` (reference
    points for the equal-energy/equal-time queries; never pruned) plus
    the frontier points; the streamed frontier is identical to
    ``frontier()`` over a materialized run — pruned and discarded
    points are all strictly dominated.  ``trace`` (a
    :class:`~repro.experiments.trace.TraceSink` or a JSONL path) gets
    ``space_started`` / ``space_chunk_finished`` / ``space_finished``
    progress events.

    ``space`` optionally reuses a prebuilt :class:`DesignSpace` (same
    benchmarks/precisions/scale/seed) so repeated sweeps over one grid
    pay the compile-and-hoist build once; workers of ``jobs > 1`` runs
    still rebuild locally.
    """
    configs = tuple(configs) if configs is not None else default_space()
    if not configs:
        raise ValueError("need at least one SoCConfig")
    names = [c.name for c in configs]
    if len(set(names)) != len(names):
        raise ValueError("SoCConfig names must be unique")
    precisions = tuple(precisions)
    benchmarks = tuple(benchmarks)
    if space is not None and (
        space.benchmarks != benchmarks
        or space.precisions != precisions
        or space.scale != scale
        or space.seed != seed
    ):
        raise ValueError(
            "prebuilt space does not match the requested grid "
            "(benchmarks/precisions/scale/seed)"
        )
    if not stream:
        if jobs > 1 and len(configs) > 1:
            shards = min(jobs, len(configs))
            size = -(-len(configs) // shards)
            chunks = [configs[i : i + size] for i in range(0, len(configs), size)]
            payloads = [
                (
                    benchmarks,
                    tuple(p.value for p in precisions),
                    scale,
                    seed,
                    chunk,
                )
                for chunk in chunks
            ]
            points: list[DesignPoint] = []
            with ProcessPoolExecutor(max_workers=shards) as pool:
                for chunk_points in pool.map(_eval_worker, payloads):
                    points.extend(chunk_points)
            points = tuple(points)
        else:
            if space is None:
                space = DesignSpace(
                    benchmarks=benchmarks, precisions=precisions, scale=scale,
                    seed=seed,
                )
            points = space.evaluate(configs)
        digests = tuple(c.digest() for c in configs)
        return DesignSpaceResult(
            configs=configs,
            digests=digests,
            points=tuple(points),
            benchmarks=benchmarks,
            precisions=tuple(p.value for p in precisions),
            scale=scale,
            seed=seed,
            evaluated=len(configs),
            peak_resident=len(points),
        )

    # ---- streaming mode ---------------------------------------------
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if target_version not in VERSIONS:
        raise ValueError(f"target_version must be one of {VERSIONS}")
    if target_benchmark != AGGREGATE and target_benchmark not in benchmarks:
        raise ValueError(
            f"target_benchmark {target_benchmark!r} not in the evaluated "
            f"benchmarks (or {AGGREGATE!r})"
        )
    keep_names = frozenset(keep_configs or ())
    sink, owns_sink = _resolve_trace(trace)
    tracer = Tracer(sink)
    try:
        tracer.emit(
            "space_started",
            detail={
                "configs": len(configs),
                "chunk_size": chunk_size,
                "prune": bool(prune),
                "jobs": jobs,
                "target": f"{target_benchmark}/{target_version}",
            },
        )
        if jobs > 1 and len(configs) > 1:
            shards = min(jobs, len(configs))
            size = -(-len(configs) // shards)
            shard_configs = [
                configs[i : i + size] for i in range(0, len(configs), size)
            ]
            payloads = [
                (
                    benchmarks,
                    tuple(p.value for p in precisions),
                    scale,
                    seed,
                    shard,
                    chunk_size,
                    prune,
                    target_benchmark,
                    target_version,
                    tuple(keep_names),
                )
                for shard in shard_configs
            ]
            # merge order cannot matter: an OnlineFrontier's final set
            # is order-independent, and each worker ships every point
            # that can still reach the global frontier (local pruning
            # and eviction only discard globally-dominated points) —
            # so the merged frontier is byte-identical to jobs=1
            frontiers = {
                p.value: OnlineFrontier(key=_sort_key) for p in precisions
            }
            kept: list[DesignPoint] = []
            evaluated = pruned = peak = 0
            candidates = 0
            with ProcessPoolExecutor(max_workers=shards) as pool:
                for shard_no, (w_kept, w_cands, w_eval, w_pruned, w_peak) in enumerate(
                    pool.map(_stream_worker, payloads)
                ):
                    kept.extend(w_kept)
                    for prec, pts in w_cands.items():
                        frontiers[prec].update(pts)
                    evaluated += w_eval
                    pruned += w_pruned
                    peak = max(peak, w_peak)
                    candidates += sum(len(pts) for pts in w_cands.values())
                    tracer.emit(
                        "space_chunk_finished",
                        detail={
                            "shard": shard_no,
                            "configs": len(shard_configs[shard_no]),
                            "evaluated": w_eval,
                            "pruned": w_pruned,
                            "frontier": {
                                p: len(f) for p, f in frontiers.items()
                            },
                            "resident_points": w_peak,
                        },
                    )
            # the merge itself holds every shipped candidate at once
            peak = max(peak, candidates + len(kept))
        else:
            if space is None:
                space = DesignSpace(
                    benchmarks=benchmarks, precisions=precisions, scale=scale,
                    seed=seed,
                )
            kept, frontiers, evaluated, pruned, peak = _stream_shard(
                space,
                configs,
                chunk_size=chunk_size,
                prune=prune,
                target_benchmark=target_benchmark,
                target_version=target_version,
                keep_names=keep_names,
                tracer=tracer,
            )
        result = _stream_result(
            configs,
            benchmarks,
            precisions,
            frontiers,
            kept,
            keep_names,
            scale=scale,
            seed=seed,
            evaluated=evaluated,
            pruned=pruned,
            peak=peak,
            chunk_size=chunk_size,
            target_benchmark=target_benchmark,
            target_version=target_version,
        )
        tracer.emit(
            "space_finished",
            detail={
                "evaluated": result.evaluated,
                "pruned": result.pruned,
                "peak_resident": result.peak_resident,
                "frontier": {
                    p: len(f.points()) for p, f in frontiers.items()
                },
            },
        )
        return result
    finally:
        if owns_sink:
            sink.close()


# ---------------------------------------------------------------------------
# Pareto helpers (minimize seconds and energy)
# ---------------------------------------------------------------------------


def dominates(a: DesignPoint, b: DesignPoint) -> bool:
    """Pareto domination on (seconds, energy_j), both minimized."""
    return (
        a.seconds <= b.seconds
        and a.energy_j <= b.energy_j
        and (a.seconds < b.seconds or a.energy_j < b.energy_j)
    )


#: the deterministic point ordering shared by every Pareto helper
_sort_key = point_key


def frontier(points) -> tuple[DesignPoint, ...]:
    """The non-dominated feasible points, deterministically ordered.

    Sorted by (seconds, energy, config name, version); duplicate
    (seconds, energy) pairs all survive (none strictly dominates the
    other), so equal designs stay visible.  O(n log n) sort-based
    skyline, same point set as :func:`frontier_reference`.
    """
    return skyline(points, key=_sort_key)


def frontier_reference(points) -> tuple[DesignPoint, ...]:
    """The O(n²) all-pairs frontier — oracle and benchmark baseline."""
    return skyline_reference(points, key=_sort_key)


def dominated(points) -> tuple[DesignPoint, ...]:
    """The feasible points *not* on the frontier, same ordering.

    Membership is by sort key (value), not object identity: an
    equal-valued copy of a frontier point is itself a frontier tie and
    never lands in both sets.
    """
    points = tuple(points)
    front = set(map(_sort_key, frontier(points)))
    return tuple(
        sorted(
            (p for p in points if p.feasible and _sort_key(p) not in front),
            key=_sort_key,
        )
    )


def equal_energy_speedup(points, ref: DesignPoint):
    """Best speedup over ``ref`` among points spending no more energy.

    Returns ``(speedup, point)`` for the fastest feasible point with
    ``energy_j <= ref.energy_j`` (ties broken by the deterministic sort
    key), or ``None`` when nothing qualifies.
    """
    viable = sorted(
        (p for p in points if p.feasible and p.energy_j <= ref.energy_j),
        key=_sort_key,
    )
    if not viable:
        return None
    best = viable[0]
    return ref.seconds / best.seconds, best


def equal_time_energy(points, ref: DesignPoint):
    """Least energy among points at least as fast as ``ref``.

    Returns ``(energy_j, point)`` for the most frugal feasible point
    with ``seconds <= ref.seconds`` (deterministic tie-break), or
    ``None`` when nothing qualifies.
    """
    viable = sorted(
        (p for p in points if p.feasible and p.seconds <= ref.seconds),
        key=lambda p: (p.energy_j, p.seconds, p.config_name, p.version),
    )
    if not viable:
        return None
    best = viable[0]
    return best.energy_j, best


# ---------------------------------------------------------------------------
# frontier export (plotting interchange)
# ---------------------------------------------------------------------------


def export_frontier(
    result: DesignSpaceResult,
    path,
    *,
    benchmark: str | None = None,
    version: str | None = None,
    include_dominated: bool = False,
) -> int:
    """Write one slice's Pareto data for external plotting tools.

    One row per point and precision: config name, its content digest,
    the objective values and an ``on_frontier`` flag.  Format follows
    the extension — ``.csv`` writes CSV, anything else a JSON document
    ``{"benchmark", "version", "points": [...]}``.  ``benchmark`` /
    ``version`` default to the result's streamed target slice (or
    aggregate/Opt).  ``include_dominated`` adds the dominated feasible
    points the result still holds — the full story in materialize
    mode; in stream mode only the kept configs' dominated points
    remain (the rest were discarded while streaming).  Returns the row
    count.
    """
    import csv
    import json

    benchmark = benchmark or result.target_benchmark or AGGREGATE
    version = version or result.target_version or "Opt"
    digest_by_name = {c.name: d for c, d in zip(result.configs, result.digests)}
    rows = []
    for precision in result.precisions:
        pool = result.select(benchmark=benchmark, precision=precision, version=version)
        entries = [(p, True) for p in frontier(pool)]
        if include_dominated:
            entries.extend((p, False) for p in dominated(pool))
        for p, on_front in entries:
            rows.append(
                {
                    "config": p.config_name,
                    "digest": digest_by_name.get(p.config_name, ""),
                    "benchmark": p.benchmark,
                    "precision": p.precision,
                    "version": p.version,
                    "seconds": p.seconds,
                    "watts": p.watts,
                    "energy_j": p.energy_j,
                    "on_frontier": on_front,
                }
            )
    path = Path(path)
    if path.suffix.lower() == ".csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(
                fh,
                fieldnames=[
                    "config",
                    "digest",
                    "benchmark",
                    "precision",
                    "version",
                    "seconds",
                    "watts",
                    "energy_j",
                    "on_frontier",
                ],
            )
            writer.writeheader()
            writer.writerows(rows)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"benchmark": benchmark, "version": version, "points": rows},
                fh,
                indent=2,
            )
            fh.write("\n")
    return len(rows)


# ---------------------------------------------------------------------------
# DVFS governor axis over the design space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DvfsDesignPoint:
    """One (config, governor, precision) point of the DVFS-extended space.

    The target slice (a benchmark's — or the aggregate's — Opt version)
    is re-priced at the GPU operating point the governor settles on:
    ``seconds`` is the work time at that clock, ``watts`` the mean work
    power, ``energy_j`` the work energy — except for the deadline
    policies (``race_to_idle`` / ``pace_to_deadline``), whose energy is
    the full deadline-window figure: work at the chosen OPP plus the
    remaining slack at the board idle floor.  A point is infeasible when
    the slice has no feasible Opt candidate on the config, or when no
    OPP meets the deadline.
    """

    config_name: str
    governor: str
    precision: str
    opp_hz: float
    seconds: float
    watts: float
    energy_j: float
    feasible: bool = True


def _dvfs_key(p: DvfsDesignPoint):
    """Deterministic order for DVFS points (governor replaces version)."""
    return (p.seconds, p.energy_j, p.config_name, p.governor)


def _dvfs_opp_slices(space: DesignSpace, platform, dram, table, opp, benchmark):
    """Per-precision ``(seconds, watts, energy, feasible)`` of the target
    slice at one GPU operating point.

    Exactly the stacked engine's Opt selection (same argmin over
    ``seconds × launches``, same accumulation order for the aggregate),
    over a Mali config moved to the OPP's clock and rails scaled by the
    OPP's ``f · V²`` factor.  At the table's nominal OPP both are the
    base objects, so the slice is bitwise the fixed-frequency Opt point
    of :meth:`DesignSpace.points`.
    """
    import numpy as np
    from dataclasses import replace as _replace

    from .power import dvfs

    mali = platform.mali
    if opp.frequency_hz != mali.clock_hz:
        mali = _replace(mali, clock_hz=opp.frequency_hz)
    rails = dvfs.rails_at(platform.rails, gpu_table=table, gpu_opp=opp)
    g = space._gpu_stack.rows(mali, dram)
    watts = stack_watts(
        rails,
        ActivityKind.GPU_KERNEL,
        dram_bandwidth=g.dram_bandwidth,
        gpu_alu_utilization=g.alu_utilization,
        gpu_ls_utilization=g.ls_utilization,
    )
    gpu_iter = g.seconds * space._launches_f
    masked_watts = np.where(g.feasible, watts, 0.0)
    agg: dict[str, list] = {}
    per_bench: dict[str, tuple] = {}
    for bc in space.groups:
        span = slice(bc.gpu_start, bc.gpu_stop)
        feas = g.feasible[span]
        if feas.size and bool(feas.any()):
            j = int(np.argmin(gpu_iter[span]))
            seconds = float(gpu_iter[span][j])
            lane_watts = float(masked_watts[span][j])
            energy = seconds * lane_watts
            ok = True
        else:
            seconds, lane_watts, energy, ok = float("inf"), 0.0, float("inf"), False
        if bc.name == benchmark:
            per_bench[bc.precision] = (seconds, lane_watts, energy, ok)
        acc = agg.setdefault(bc.precision, [0.0, 0.0, True])
        acc[0] += seconds
        acc[1] += energy
        acc[2] = acc[2] and ok
    if benchmark != AGGREGATE:
        return per_bench
    out = {}
    for precision, (seconds, energy, ok) in agg.items():
        watts_p = energy / seconds if ok and seconds > 0 else 0.0
        out[precision] = (seconds, watts_p, energy, ok)
    return out


@dataclass(frozen=True)
class DvfsSpaceResult:
    """The governor-extended design space: one point per (config,
    governor, precision) over the target slice."""

    points: tuple[DvfsDesignPoint, ...]
    governors: tuple[str, ...]
    precisions: tuple[str, ...]
    benchmark: str
    deadline_s: float | None
    scale: float
    seed: int

    def select(
        self, governor: str | None = None, precision: str = "single"
    ) -> tuple[DvfsDesignPoint, ...]:
        """Points of one slice, in evaluation order."""
        return tuple(
            p
            for p in self.points
            if p.precision == precision
            and (governor is None or p.governor == governor)
        )

    def frontier_points(self, precision: str = "single") -> tuple[DvfsDesignPoint, ...]:
        """(seconds, energy) frontier over every (config, governor)."""
        return skyline(self.select(precision=precision), key=_dvfs_key)

    def deadline_pick(
        self, deadline_s: float | None = None, precision: str = "single"
    ) -> DvfsDesignPoint | None:
        """Least-energy (config, governor) meeting a time budget.

        The deadline-constrained Pareto query: among feasible points
        with ``seconds <= deadline_s`` (default: the sweep's own
        deadline), the minimum ``energy_j`` with the deterministic
        tie-break.  When the sweep includes deadline policies the pick
        is taken among those — their energies account for the whole
        deadline window, so they compare like for like — otherwise the
        frequency governors' work energies compete directly.  ``None``
        when nothing qualifies.
        """
        from .power import dvfs

        budget = deadline_s if deadline_s is not None else self.deadline_s
        if budget is None:
            raise ValueError("deadline_pick needs a deadline_s")
        pool = [
            p
            for p in self.select(precision=precision)
            if p.feasible and p.seconds <= budget
        ]
        windowed = [p for p in pool if p.governor in dvfs.DEADLINE_POLICIES]
        if windowed:
            pool = windowed
        viable = sorted(
            pool,
            key=lambda p: (p.energy_j, p.seconds, p.config_name, p.governor),
        )
        return viable[0] if viable else None

    def to_dict(self) -> dict:
        """JSON-ready form (``inf`` encoded as null)."""

        def num(x):
            return x if x == x and x not in (float("inf"), float("-inf")) else None

        return {
            "benchmark": self.benchmark,
            "governors": list(self.governors),
            "precisions": list(self.precisions),
            "deadline_s": self.deadline_s,
            "scale": self.scale,
            "seed": self.seed,
            "points": [
                {
                    "config": p.config_name,
                    "governor": p.governor,
                    "precision": p.precision,
                    "opp_hz": p.opp_hz,
                    "seconds": num(p.seconds),
                    "watts": num(p.watts),
                    "energy_j": num(p.energy_j),
                    "feasible": p.feasible,
                }
                for p in self.points
            ],
        }


def evaluate_dvfs(
    configs=None,
    benchmarks=PAPER_ORDER,
    precisions=(Precision.SINGLE,),
    scale: float = 0.5,
    seed: int = 1234,
    governors=None,
    benchmark: str = AGGREGATE,
    deadline_s: float | None = None,
    space: DesignSpace | None = None,
) -> DvfsSpaceResult:
    """Sweep the governor axis across a SoC config family.

    For every config the Mali OPP table is rescaled so its top point is
    the config's shader clock (the fixed-frequency design point is the
    degenerate nominal OPP), the target slice is priced at each OPP
    through the stacked engine, and each governor settles per its own
    rule: ``fixed``/``performance`` at the nominal OPP, ``powersave`` at
    the bottom, ``ondemand`` at the lowest OPP keeping its two-point
    frequency-response utilization under the up-threshold, and the
    deadline policies race (top OPP, idle out the slack) or pace (the
    slowest OPP that still meets ``deadline_s``).  ``fixed`` points are
    bitwise the Opt points of :func:`evaluate_space` on the same
    configs — the governor axis never perturbs the fixed plane.
    """
    from .power import dvfs

    configs = tuple(configs) if configs is not None else default_space()
    if not configs:
        raise ValueError("need at least one SoCConfig")
    if governors is None:
        governors = (dvfs.GOVERNOR_DEFAULT,) + dvfs.FREQUENCY_GOVERNORS
        if deadline_s is not None:
            governors = governors + dvfs.DEADLINE_POLICIES
    governors = tuple(governors)
    for governor in governors:
        if governor not in dvfs.GOVERNORS:
            raise ValueError(
                f"unknown governor {governor!r}; choose from {dvfs.GOVERNORS}"
            )
        if governor in dvfs.DEADLINE_POLICIES and deadline_s is None:
            raise ValueError(f"governor {governor!r} needs deadline_s")
    if deadline_s is not None and deadline_s <= 0:
        raise ValueError("deadline_s must be positive")
    precisions = tuple(precisions)
    benchmarks = tuple(benchmarks)
    if benchmark != AGGREGATE and benchmark not in benchmarks:
        raise ValueError(
            f"benchmark {benchmark!r} not in the evaluated benchmarks"
            f" (or {AGGREGATE!r})"
        )
    if space is None:
        space = DesignSpace(
            benchmarks=benchmarks, precisions=precisions, scale=scale, seed=seed
        )
    elif (
        space.benchmarks != benchmarks
        or space.precisions != precisions
        or space.scale != scale
        or space.seed != seed
    ):
        raise ValueError(
            "prebuilt space does not match the requested grid "
            "(benchmarks/precisions/scale/seed)"
        )
    if space._gpu_stack is None:
        raise ValueError("the DVFS sweep needs at least one GPU cell")

    points: list[DvfsDesignPoint] = []
    for config in configs:
        platform = config.platform(space.base)
        dram = platform.dram_model()
        table = dvfs.MALI_T604_OPPS.rescaled(platform.mali.clock_hz)
        slices = {
            opp: _dvfs_opp_slices(space, platform, dram, table, opp, benchmark)
            for opp in table.points
        }
        idle_w = platform.rails.board_idle_w
        for governor in governors:
            for precision in (p.value for p in precisions):
                def at(opp):
                    return slices[opp].get(
                        precision, (float("inf"), 0.0, float("inf"), False)
                    )

                if governor in (dvfs.GOVERNOR_DEFAULT, "performance"):
                    opp = table.nominal
                    seconds, watts, energy, ok = at(opp)
                elif governor == "powersave":
                    opp = table.min
                    seconds, watts, energy, ok = at(opp)
                elif governor == "ondemand":
                    t_slow, _, _, ok_slow = at(table.min)
                    t_fast, _, _, ok_fast = at(table.max)
                    if ok_slow and ok_fast:
                        opp = dvfs.select_opp(
                            table,
                            "ondemand",
                            time_at=lambda o: at(o)[0],
                        )
                    else:
                        opp = table.nominal
                    seconds, watts, energy, ok = at(opp)
                else:  # deadline policies
                    if governor == "race_to_idle":
                        candidates = (table.max,)
                    else:  # pace_to_deadline: slowest OPP meeting the budget
                        candidates = table.points
                    opp = table.max
                    seconds, watts, energy, ok = at(opp)
                    met = False
                    for cand in candidates:
                        s, w, e, feas = at(cand)
                        if feas and s <= deadline_s:
                            opp, seconds, watts, energy, ok = cand, s, w, e, True
                            met = True
                            break
                    if not met:
                        ok = False
                    if ok:
                        energy = energy + (deadline_s - seconds) * idle_w
                    else:
                        seconds, watts, energy = float("inf"), 0.0, float("inf")
                points.append(
                    DvfsDesignPoint(
                        config_name=config.name,
                        governor=governor,
                        precision=precision,
                        opp_hz=opp.frequency_hz,
                        seconds=seconds,
                        watts=watts,
                        energy_j=energy,
                        feasible=ok,
                    )
                )
    return DvfsSpaceResult(
        points=tuple(points),
        governors=governors,
        precisions=tuple(p.value for p in precisions),
        benchmark=benchmark,
        deadline_s=deadline_s,
        scale=scale,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# model-only speedup helper (the whatif/sensitivity seam)
# ---------------------------------------------------------------------------


def opt_over_serial(
    benchmark: str,
    platforms: dict,
    *,
    precision: Precision = Precision.SINGLE,
    scale: float = 0.5,
    seed: int = 1234,
    serial: str = "first",
) -> dict:
    """Model-only Opt-over-Serial speedup per platform variant.

    The single batched-pricing path behind :func:`repro.whatif.estimate_speedups`
    and the sensitivity probes: every number comes from each platform's
    ``pricing_model()`` — tuner pricing for the Opt candidate, the CPU
    pricer for the Serial baseline — with no functional NumPy execution
    and no meter.  ``serial="first"`` takes the baseline from the first
    platform (comparable speedups across variants, the what-if
    convention); ``serial="each"`` re-prices it per platform (the
    sensitivity convention, where the CPU side is perturbed too).
    ``None`` marks a variant with no feasible Opt candidate.
    """
    from .pricing.grid import estimate_cpu_seconds, estimate_opt_seconds

    if not platforms:
        raise ValueError("need at least one platform")
    if serial not in ("first", "each"):
        raise ValueError(f"serial must be 'first' or 'each', got {serial!r}")
    out: dict = {}
    serial_seconds = None
    for name, platform in platforms.items():
        bench = create(
            benchmark, precision=precision, scale=scale, seed=seed, platform=platform
        )
        if serial == "each" or serial_seconds is None:
            serial_seconds = estimate_cpu_seconds(bench)
        opt_seconds = estimate_opt_seconds(bench)
        out[name] = None if opt_seconds is None else serial_seconds / opt_seconds
    return out
