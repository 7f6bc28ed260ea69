"""Design-space hypercube: batch-price many SoC configs, emit Pareto data.

The ROADMAP's question — *"what Mali would beat the 2×A15 at equal
energy?"* — needs the full (configs × benchmarks × versions ×
vector-widths × precision) hypercube priced cheaply.  Looping the
per-config :class:`~repro.pricing.grid.PlatformPricing` facade is
correct but pays the whole grid walk once per config; this module
evaluates the hypercube as *stacked* NumPy evaluations instead:

* the cell grid (CPU Serial/OpenMP cells + every distinct launch of
  every autotuner candidate's declared iteration, compiled once —
  kernels are config-independent) is built a single time by
  :class:`DesignSpace`;
* :class:`~repro.mali.timing.GpuConfigStack` and
  :class:`~repro.cpu.pricing.CpuConfigStack` hoist every config-invariant
  quantity;
* configs are priced in blocks of :data:`BLOCK_SIZE`
  (:meth:`DesignSpace.block_rows`), each platform part derived once per
  distinct knob value (:class:`~repro.calibration.socspace.PlatformParts`,
  no ``ExynosPlatform`` per config), in two stages.  The timing stage
  runs once per distinct (Mali, DRAM) setting of the block — the rail
  scale never enters a launch's timing — and prices every launch lane,
  fill and candidate sum in one epilogue pass, then takes each group's
  Opt pick.  The power stage runs per config over the picked
  candidates' commands only, one :func:`~repro.power.rails.stack_watts`
  pass per distinct rail scale (with the CPU lanes, priced once per
  distinct (A15, DRAM) setting);
* :meth:`DesignSpace.block_points` takes the per-precision aggregates
  as column operations over the block and builds the points in one
  pass.

The stacks are the only implementation of the launch and Serial/OpenMP
formulas; the campaign's single-cell pricing entry points are views over
them, as :meth:`DesignSpace.stacked_rows` / :meth:`DesignSpace.points`
are one-config views of the block pass.  Every lane is checked bit for
bit against scalar references that price each cell of each config one
by one, and every point against a group-by-group reference loop
(``tests/pricing_oracle.py``).

The **Opt** version of a (config, benchmark, precision) point is the
feasible autotuner candidate with the fewest seconds per timed
iteration, where an iteration is what the benchmark declares
(:meth:`~repro.benchmarks.base.Benchmark.iteration_cells`): red's two
stages, hist's fills and merge, one launch elsewhere.  Each distinct
launch is one stack lane, and a candidate is the in-order sum of its
launch lanes and fills — the sum the campaign's queue and the tuner
run, so at any config the Opt point's seconds are the campaign's Opt
``elapsed_s`` and its pick the tuner's.  Candidates with a kernel that
exceeds a config's scaled register file are infeasible on that config
(``CL_OUT_OF_RESOURCES``), which is how the paper's DP
register-exhaustion collapse shows up across the space.

On top sit deterministic Pareto helpers: :func:`frontier` (the
O(n log n) :func:`repro.pareto.skyline`), :func:`dominated`,
:func:`equal_energy_speedup` and :func:`equal_time_energy`.

Large spaces run through **streaming evaluation**
(``evaluate_space(stream=True)``): configs are priced in fixed-size
chunks (each chunk's survivors priced as blocks), each chunk's
target-slice points feed per-precision
:class:`~repro.pareto.OnlineFrontier` accumulators, and dominated
points are dropped immediately — peak memory is O(chunk + frontier)
instead of O(space); a chunk builds :class:`DesignPoint` objects only
for the target slice and the kept configs.  Before pricing, a
vectorized roofline/rail **lower bound** (:meth:`DesignSpace.opt_bounds`)
prunes configs whose best case is already dominated by the current
frontier; pruning never changes the frontier (the bound under-estimates
both objectives, and domination is transitive).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from functools import wraps
from itertools import chain, compress, repeat
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

from .benchmarks.base import Draws, Fill, Launch, Precision, cpu_pricing_inputs
from .benchmarks.registry import PAPER_ORDER, create
from .calibration.exynos5250 import ExynosPlatform, default_platform
from .calibration.socspace import (
    EXYNOS_5250,
    PlatformParts,
    SoCConfig,
    config_digests,
    default_space,
)
from .errors import CLError, CompilerError
from .experiments.trace import Tracer, resolve_sink
from .memory.dram import DramModel
from .pareto import OnlineFrontier, point_key, skyline
from .power.rails import ActivityKind, gpu_floor_watts, stack_watts
from .pricing.cells import MODE_OPENMP, MODE_SERIAL, CpuCell, GpuLaunchCell

#: version labels of a design point (Opt = best feasible GPU candidate)
VERSIONS = ("Serial", "OpenMP", "Opt")
#: pseudo-benchmark name of the across-benchmarks sum
AGGREGATE = "aggregate"

_PRECISIONS_DEFAULT = (Precision.SINGLE, Precision.DOUBLE)

#: configs priced per block pass.  It bounds the block's temporaries:
#: the timing stage's (settings x lanes) arrays, one row per distinct
#: (Mali, DRAM) setting, and the power stage's (configs x groups x
#: commands) arrays.  Over the full benchmark grid a block of 256 peaks
#: near 9 MB when every config has its own setting, and near 6 MB when
#: eight configs share each one (they differ only in rail scale).
BLOCK_SIZE = 256

#: the knobs the roofline floor of :meth:`DesignSpace.opt_bounds` reads
_floor_knobs = attrgetter("dram_gbps", "register_file_scale", "gpu_cores", "gpu_clock_hz")
#: what a fill's activity contributes to a sweep's launch columns
_fill_fields = attrgetter("duration_s", "dram_bandwidth", "gpu_alu_utilization", "gpu_ls_utilization")


class DesignPoint(NamedTuple):
    """One (config, benchmark, precision, version) cell of the hypercube.

    ``seconds`` is one timed iteration — for Opt, the picked candidate's
    declared iteration (every launch and fill of
    :meth:`~repro.benchmarks.base.Benchmark.iteration_cells`, summed in
    enqueue order); ``energy_j`` is the meterless board-power model's
    energy over it (``seconds × watts`` of one segment, ``Σ seconds ×
    watts`` of several, whose ``watts`` is then the mean).  Infeasible
    points (no Opt candidate fits the config) carry ``inf``
    seconds/energy and zero watts.

    An immutable named tuple: it hashes and compares equal like the
    plain tuple of its fields, and ``_replace`` derives a changed copy.
    """

    config_name: str
    benchmark: str
    precision: str
    version: str
    seconds: float
    watts: float
    energy_j: float
    feasible: bool = True


def _collector_paused(build):
    """Run ``build`` with CPython's cyclic garbage collector paused.

    A sweep allocates hundreds of thousands of containers, one
    :class:`DesignPoint` per slot of every config among them, so the
    allocation counter keeps starting collections: young and middle
    ones walk each new point on its way to the oldest generation, and
    every full one walks each point built so far (CPython never
    untracks a tuple subclass).  The pause is safe because a sweep
    creates no reference cycles: a ``gc.DEBUG_SAVEALL`` collection
    right after perfbench's ``design_space`` op finds no unreachable
    object, so reference counting frees everything a sweep drops and
    the collector would only re-walk live points.

    The switch is process-wide while it is held: no thread's
    allocations start a collection.  The saved state is restored in a
    ``finally``, so a sweep that raises leaves the collector as its
    caller had it, and one the caller had already disabled stays
    disabled.  CPython keeps counting allocations while paused, so the
    caller's first allocation after ``build`` returns starts one young
    collection, which walks the new objects once and moves them on.
    Reaching the oldest generation together, they make a full
    collection due, which the caller meets within about ten middle
    collections if it keeps allocating; a running collector would have
    made its full collections inside the sweep instead (three in
    perfbench's ``design_space`` op).
    """

    @wraps(build)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


class _BenchCells(NamedTuple):
    """One (benchmark, precision) group: its two CPU cells in the flat
    grid, and its span of Opt candidates with the ``(options, local
    size)`` of each, in the tuner's candidate order."""

    name: str
    precision: str
    cpu_start: int
    opt_start: int
    opt_stop: int
    candidates: tuple


def _slot_layout(benchmarks, precisions) -> tuple[tuple[str, str, str], ...]:
    """``(benchmark, precision, version)`` of each of a config's points,
    in point order: [Serial, OpenMP, Opt] per (benchmark, precision)
    group, benchmark-major, then per precision the aggregate's.

    ``precisions`` are :class:`~repro.benchmarks.base.Precision` values.
    A :class:`DesignSpace` lays out its points by it, and a materialized
    :class:`DesignSpaceResult` is indexed by it, without a space at hand.
    """
    return tuple(
        [(name, precision, version) for name in benchmarks for precision in precisions
         for version in VERSIONS]
        + [(AGGREGATE, precision, version) for precision in dict.fromkeys(precisions)
           for version in VERSIONS]
    )


class SpaceRows:
    """Aligned row arrays of configs over a :class:`DesignSpace` grid.

    ``(lanes,)`` arrays for one config (:meth:`DesignSpace.stacked_rows`),
    ``(configs, lanes)`` for a block (:meth:`DesignSpace.block_rows`).
    ``gpu_*`` lanes follow the space's distinct launch cells
    (:attr:`DesignSpace.gpu_cells`); infeasible launches are ``inf``
    seconds.  ``opt_*`` lanes are the Opt candidates of every group in
    group order, each the in-order sum of its declared launches and
    fills — the Opt currency; a candidate is infeasible (``inf``
    seconds) if any of its launches is.  ``pick`` and ``pick_*``
    lanes hold one entry per group, in group order: ``pick`` is the
    index of the group's Opt candidate on the ``opt_*`` lanes (the
    first fastest feasible one, ``-1`` when none is feasible), and
    ``pick_seconds``, ``pick_watts``, ``pick_energy`` and
    ``pick_feasible`` are its iteration's seconds, mean watts and
    energy and whether it exists (``inf``, ``0``, ``inf`` and ``False``
    without one).  CPU lanes follow the space's CPU cell order
    ([Serial, OpenMP] per group).
    """

    __slots__ = (
        "gpu_feasible",
        "gpu_seconds",
        "opt_feasible",
        "opt_seconds",
        "pick",
        "pick_seconds",
        "pick_watts",
        "pick_energy",
        "pick_feasible",
        "cpu_seconds",
        "cpu_watts",
        "cpu_energy",
    )

    def __init__(self, **arrays):
        for name in self.__slots__:
            setattr(self, name, arrays[name])


class DesignSpace:
    """The prepared hypercube: one cell grid + config stacks, many configs.

    Construction reads every autotuner candidate's declared iteration
    (:meth:`~repro.benchmarks.base.Benchmark.iteration_cells`), compiles
    each declared kernel once per options point (candidates with a
    kernel that cannot allocate at all — the hard
    ``CL_OUT_OF_RESOURCES`` limit — are dropped for every config, same
    as the tuner), sizes each launch by
    :func:`~repro.ocl.driver.launch_geometry`, keeps each distinct
    launch cell once as a stack lane and builds the GPU/CPU config
    stacks.  :meth:`block_rows` then prices a block of configs in two
    stages — the timing of each distinct (Mali, DRAM) setting and its
    Opt picks, then the board power of each config's picks only — and
    :meth:`block_points` turns the rows into design points;
    :meth:`stacked_rows` / :meth:`points` are their one-config views.
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
        from .ocl.driver import launch_geometry, platform_quirks
        from .optimizations import autotune

        self.base = base if base is not None else default_platform()
        self.benchmarks = tuple(benchmarks)
        self.precisions = tuple(precisions)
        self.scale = scale
        self.seed = seed

        quirks = platform_quirks(self.base)
        max_wg = self.base.mali.max_work_group_size
        groups: list[_BenchCells] = []
        cpu_cells: list[CpuCell] = []
        gpu_cells: list[GpuLaunchCell] = []
        lanes: dict[tuple, int] = {}
        fills: dict[int, int] = {}
        #: per candidate, its commands: a launch lane, or ``-1 - i`` for fill ``i``
        terms: list[list[int]] = []
        for name in self.benchmarks:
            # the precisions of one benchmark share its set-up draws
            draws = Draws(seed, readers=len(self.precisions))
            for precision in self.precisions:
                bench = create(
                    name,
                    precision=precision,
                    scale=scale,
                    seed=seed,
                    platform=self.base,
                    draws=draws,
                )
                _, mix, traits, n = cpu_pricing_inputs(bench)
                cpu_start = len(cpu_cells)
                cpu_cells += [
                    CpuCell(mix=mix, mode=mode, n_elements=n, traits=traits)
                    for mode in (MODE_SERIAL, MODE_OPENMP)
                ]
                opt_start = len(terms)
                # within one benchmark a kernel is its name and options
                kernels: dict[tuple, object] = {}
                candidates = []
                for options, local in autotune.candidates(bench, include_naive=True):
                    cells = bench.iteration_cells(options, local)
                    launched = []
                    for cell in (c for c in cells if isinstance(c, Launch)):
                        if (cell.ir.name, options) not in kernels:
                            try:
                                kernel = compile_kernel(cell.ir, options, quirks=quirks)
                            except (CompilerError, CLError):
                                kernel = None
                            kernels[(cell.ir.name, options)] = kernel
                        launched.append(kernels[(cell.ir.name, options)])
                    if None in launched:
                        continue  # infeasible on every config (baseline ISA)
                    candidate = []
                    for cell in cells:
                        if isinstance(cell, Fill):
                            candidate.append(-1 - fills.setdefault(cell.nbytes, len(fills)))
                            continue
                        kernel = launched.pop(0)
                        geometry = launch_geometry(
                            cell.elements, kernel.elems_per_item, cell.local_size, max_wg
                        )
                        key = (len(groups), cell.ir.name, options, geometry)
                        lane = lanes.setdefault(key, len(gpu_cells))
                        if lane == len(gpu_cells):
                            gpu_cells.append(GpuLaunchCell(kernel, cell.traits, *geometry))
                        candidate.append(lane)
                    terms.append(candidate)
                    candidates.append((options, local))
                groups.append(
                    _BenchCells(
                        name, precision.value, cpu_start, opt_start, len(terms), tuple(candidates)
                    )
                )
        self.groups = groups
        #: (benchmark, precision, version) of each of a config's points,
        #: in :meth:`block_points` order (:func:`_slot_layout`)
        self.slots = _slot_layout(self.benchmarks, [p.value for p in self.precisions])
        self.cpu_cells = tuple(cpu_cells)
        self.gpu_cells = tuple(gpu_cells)
        #: bytes of each distinct declared fill
        self.fill_bytes = tuple(fills)

        # each candidate's commands as columns of [launch lanes | fills],
        # a (candidates, commands) table padded with its first command,
        # and its command count
        ext = [[t if t >= 0 else len(gpu_cells) - 1 - t for t in ts] for ts in terms]
        width = max(map(len, ext), default=1)
        self._commands = np.asarray(
            [t + t[:1] * (width - len(t)) for t in ext], dtype=np.intp
        ).reshape(len(ext), width)
        self._n_commands = np.asarray([len(t) for t in ext], dtype=np.intp)
        # per further position, the candidates that reach it and their
        # command there
        self._more = []
        for p in range(1, width):
            reach = np.flatnonzero(self._n_commands > p)
            self._more.append((reach, self._commands[reach, p]))

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
    def block_rows(self, configs, parts: PlatformParts | None = None) -> SpaceRows:
        """Row arrays of a block of configs, ``(configs, lanes)`` each.

        The Opt timing stage runs once per distinct (Mali, DRAM) part
        pair of the block, its power stage once per config over the
        picked candidates' commands (:meth:`_opt_rows`); the CPU stack
        is evaluated once per distinct (A15, DRAM) part pair, and each
        distinct rail part prices its configs' picks and CPU lanes in
        one :func:`~repro.power.rails.stack_watts` pass each.  ``parts``
        is the sweep's call-local part cache (a fresh one over
        :attr:`base` when omitted), so each part is derived once per
        distinct knob value, not once per config.
        """
        import numpy as np

        if parts is None:
            parts = PlatformParts(self.base)
        # parts are shared objects, so identities key the distinct
        # settings (``4`` and ``4.0`` are different parts)
        dram_models: dict[int, DramModel] = {}
        timing_index: dict[tuple, int] = {}
        malis, drams, timing_of = [], [], []
        cpu_index: dict[tuple, int] = {}
        cpu_rows, cpu_of = [], []
        by_rails: dict[int, tuple] = {}
        for i, config in enumerate(configs):
            dram_part = parts.dram(config)
            dram = dram_models.get(id(dram_part))
            if dram is None:
                dram = dram_models[id(dram_part)] = DramModel(dram_part)
            mali = parts.mali(config)
            key = (id(mali), id(dram_part))
            if key not in timing_index:
                timing_index[key] = len(malis)
                malis.append(mali)
                drams.append(dram)
            timing_of.append(timing_index[key])
            cpu = parts.cpu(config)
            key = (id(cpu), id(dram_part))
            if key not in cpu_index:
                cpu_index[key] = len(cpu_rows)
                cpu_rows.append(self._cpu_stack.rows(cpu, dram))
            cpu_of.append(cpu_index[key])
            rails = parts.rails(config)
            by_rails.setdefault(id(rails), (rails, []))[1].append(i)
        rail_groups = [(rails, np.asarray(idx)) for rails, idx in by_rails.values()]

        def cpu_lanes(field):
            return np.stack([getattr(r, field) for r in cpu_rows])[cpu_of]

        cpu_seconds = cpu_lanes("seconds")
        cpu_bw = cpu_lanes("dram_bandwidth")
        cpu_active = cpu_lanes("active_cores")
        cpu_ipc = cpu_lanes("ipc")
        cpu_watts = np.empty(cpu_seconds.shape)
        for rails, idx in rail_groups:
            cpu_watts[idx] = stack_watts(
                rails,
                ActivityKind.CPU,
                dram_bandwidth=cpu_bw[idx],
                active_cpu_cores=cpu_active[idx],
                cpu_ipc=cpu_ipc[idx],
            )

        if self._gpu_stack is not None:
            gpu = self._opt_rows(malis, drams, np.asarray(timing_of), rail_groups)
        else:  # no candidate compiles: every group's Opt is infeasible
            k, n = len(configs), len(self.groups)
            none = np.zeros((k, 0))
            gpu = dict(
                gpu_feasible=none.astype(bool),
                gpu_seconds=none,
                opt_feasible=none.astype(bool),
                opt_seconds=none,
                pick=np.full((k, n), -1, dtype=np.intp),
                pick_seconds=np.full((k, n), np.inf),
                pick_watts=np.zeros((k, n)),
                pick_energy=np.full((k, n), np.inf),
                pick_feasible=np.zeros((k, n), dtype=bool),
            )
        return SpaceRows(
            **gpu,
            cpu_seconds=cpu_seconds,
            cpu_watts=cpu_watts,
            cpu_energy=cpu_seconds * cpu_watts,
        )

    def _opt_rows(self, malis, drams, of, rail_groups) -> dict:
        """The GPU fields of :class:`SpaceRows` — the launch and
        candidate lanes and each group's pick columns — of rows ``of``
        over the distinct (Mali, DRAM) settings ``(malis[i], drams[i])``,
        given the rows of each rail setting.

        The timing stage runs once per setting, since the rails never
        enter a launch's timing: one launch-epilogue pass
        (:meth:`~repro.mali.timing.GpuConfigStack.block_rows`), the fills
        by :func:`~repro.ocl.driver.fill_activity` once per distinct DRAM
        config, each candidate's feasibility (all its launches fit) and
        seconds (its commands in enqueue order, :meth:`_fold`, the sum
        the queue's clock runs), and each group's pick: the first minimum
        of its candidates' seconds (``argmin``'s tie rule, the tuner's
        too), or ``-1`` when none is feasible.

        The power stage runs per row over the picked candidates'
        commands only, one :func:`~repro.power.rails.stack_watts` pass
        per rail setting.  A pick's energy is its commands' ``seconds ×
        watts`` summed in enqueue order, the sum the power trace runs;
        its watts are its one segment's, or the mean ``energy /
        seconds`` of several.  A group without a pick reads ``(inf, 0,
        inf, False)``.
        """
        import numpy as np

        from .ocl.driver import fill_activity

        g = self._gpu_stack.block_rows(malis, drams)
        n, n_fills = len(malis), len(self.fill_bytes)
        fill_row: dict[int, int] = {}
        fills = []
        for dram in drams:
            if id(dram.config) not in fill_row:
                fill_row[id(dram.config)] = len(fills)
                fills.append(
                    [_fill_fields(fill_activity(nbytes, dram.config)) for nbytes in self.fill_bytes]
                )
        # (rows, fills, field): each field's fill columns go after its launch lanes
        fill = np.asarray(fills).reshape(len(fills), n_fills, 4)[
            [fill_row[id(d.config)] for d in drams]
        ]
        columns = [
            np.concatenate([lanes, fill[..., f]], axis=1)
            for f, lanes in enumerate(
                (g.seconds, g.dram_bandwidth, g.alu_utilization, g.ls_utilization)
            )
        ]
        feasible = self._fold(
            np.logical_and,
            np.concatenate([g.feasible, np.ones((n, n_fills), dtype=bool)], axis=1),
        )
        seconds = self._fold(np.add, columns[0])
        pick = np.full((n, len(self.groups)), -1, dtype=np.intp)
        for i, bc in enumerate(self.groups):
            if bc.opt_stop > bc.opt_start:
                span = slice(bc.opt_start, bc.opt_stop)
                first = bc.opt_start + seconds[:, span].argmin(axis=1)
                pick[:, i] = np.where(feasible[:, span].any(axis=1), first, -1)
        # (settings, groups, commands) activity of each pick's commands,
        # padded past its last one; a group without a pick reads
        # candidate 0's, masked below
        at = np.maximum(pick, 0)
        commands = self._commands[at]
        rows = np.arange(n)[:, None]
        segment_s, bandwidth, alu, ls = (
            column[rows[..., None], commands][of] for column in columns
        )
        has = (np.arange(commands.shape[2]) < self._n_commands[at][..., None])[of]
        single = (self._n_commands[at] == 1)[of]
        total = np.where(pick >= 0, seconds[rows, at], np.inf)[of]
        ok = pick[of] >= 0

        watts = np.empty(segment_s.shape)
        for rails, idx in rail_groups:
            watts[idx] = stack_watts(
                rails,
                ActivityKind.GPU_KERNEL,
                dram_bandwidth=bandwidth[idx],
                gpu_alu_utilization=alu[idx],
                gpu_ls_utilization=ls[idx],
            )
        with np.errstate(invalid="ignore", divide="ignore"):
            energy = segment_s[..., 0] * watts[..., 0]
            for p in range(1, segment_s.shape[2]):
                energy = np.where(
                    has[..., p], energy + segment_s[..., p] * watts[..., p], energy
                )
            mean = np.where(single, watts[..., 0], energy / total)
        return dict(
            gpu_feasible=g.feasible[of],
            gpu_seconds=g.seconds[of],
            opt_feasible=feasible[of],
            opt_seconds=seconds[of],
            pick=pick[of],
            pick_seconds=total,
            pick_watts=np.where(ok, mean, 0.0),
            pick_energy=np.where(ok, energy, np.inf),
            pick_feasible=ok,
        )

    def _fold(self, ufunc, columns):
        """Each candidate's commands folded left by ``ufunc`` in enqueue
        order, over ``columns`` laid out [launch lanes | fills] on the
        last axis: ``np.add`` is a candidate's in-order sum."""
        out = columns[..., self._commands[:, 0]]
        for cols, idx in self._more:
            out[..., cols] = ufunc(out[..., cols], columns[..., idx])
        return out

    def stacked_rows(self, config: SoCConfig) -> SpaceRows:
        """Row arrays of one config: a one-config :meth:`block_rows`."""
        rows = self.block_rows((config,))
        return SpaceRows(**{name: getattr(rows, name)[0] for name in SpaceRows.__slots__})

    # ------------------------------------------------------------------
    def _block_values(self, rows: SpaceRows) -> list:
        """``[seconds, watts, energy, feasible]`` of a block's points,
        each a ``(configs, slots)`` array in :attr:`slots` order:
        [Serial, OpenMP, Opt] per (benchmark, precision) group, then
        per-precision aggregates (sums across benchmarks; an aggregate
        Opt is infeasible if any benchmark's is).  Every sum is a column
        over the block; point equality reduces to row identity.
        """
        import numpy as np

        feasible = np.ones(len(rows.cpu_seconds), dtype=bool)
        picks = {
            version: [
                (
                    rows.cpu_seconds[:, bc.cpu_start + lane],
                    rows.cpu_watts[:, bc.cpu_start + lane],
                    rows.cpu_energy[:, bc.cpu_start + lane],
                    feasible,
                )
                for bc in self.groups
            ]
            for lane, version in enumerate(VERSIONS[:2])
        }
        picks["Opt"] = [
            (
                rows.pick_seconds[:, g],
                rows.pick_watts[:, g],
                rows.pick_energy[:, g],
                rows.pick_feasible[:, g],
            )
            for g in range(len(self.groups))
        ]
        sums = {version: self._aggregates(picks[version]) for version in VERSIONS}
        columns = [picks[version][g] for g in range(len(self.groups)) for version in VERSIONS]
        columns += [
            sums[version][precision]
            for _, precision, version in self.slots[len(columns) :]
        ]
        return [np.stack([column[f] for column in columns], axis=1) for f in range(4)]

    def block_points(self, configs, rows: SpaceRows) -> list[DesignPoint]:
        """Design points of a block of configs from its row arrays: per
        config, in config order, one point per :attr:`slots` entry
        (:meth:`_block_values`)."""
        return self._slot_points(configs, self._block_values(rows))

    def _slot_points(self, configs, values, slots=slice(None)) -> list[DesignPoint]:
        """Points of ``configs`` at ``slots`` (a slice of :attr:`slots`),
        config-major, from the matching rows of :meth:`_block_values`."""
        benchmarks, precisions, versions = zip(*self.slots[slots])
        k, width = len(configs), len(benchmarks)
        # (config, slot)-major value lists; the points are then built by
        # tuple.__new__ in C, without a Python frame per point
        return list(
            map(
                tuple.__new__,
                repeat(DesignPoint),
                zip(
                    chain.from_iterable(repeat(c.name, width) for c in configs),
                    benchmarks * k,
                    precisions * k,
                    versions * k,
                    *(value[:, slots].ravel().tolist() for value in values),
                ),
            )
        )

    def points(self, config: SoCConfig, rows: SpaceRows) -> list[DesignPoint]:
        """Design points of one config: a one-config :meth:`block_points`."""
        import numpy as np

        block = SpaceRows(
            **{name: np.asarray(getattr(rows, name))[None] for name in SpaceRows.__slots__}
        )
        return self.block_points((config,), block)

    def _aggregates(self, picks) -> dict:
        """Per precision, the across-benchmark ``(seconds, watts, energy,
        feasible)`` columns of one version's group picks."""
        import numpy as np

        sums: dict[str, list] = {}
        for bc, (seconds, _, energy, ok) in zip(self.groups, picks):
            acc = sums.get(bc.precision)
            if acc is None:
                zero = np.zeros(len(seconds))
                acc = sums[bc.precision] = [zero, zero, np.ones(len(seconds), dtype=bool)]
            # sequential adds in group order: np.sum/reduceat sum pairwise (other bits)
            acc[0] = acc[0] + seconds
            acc[1] = acc[1] + energy
            acc[2] = acc[2] & ok
        out = {}
        with np.errstate(divide="ignore", invalid="ignore"):
            for precision, (seconds, energy, ok) in sums.items():
                watts = np.where(ok & (seconds > 0), energy / seconds, 0.0)
                out[precision] = (seconds, watts, energy, ok)
        return out

    # ------------------------------------------------------------------
    @_collector_paused
    def evaluate(self, configs) -> tuple[DesignPoint, ...]:
        """Points of many configs, in config order, priced
        :data:`BLOCK_SIZE` configs at a time.

        Runs with the cyclic collector paused (:func:`_collector_paused`):
        the points and blocks form no cycles, so no collection walks
        the points already built; the one deferred young collection
        over the new points starts at the caller's first allocation
        after the return."""
        configs = tuple(configs)
        parts = PlatformParts(self.base)
        out: list[DesignPoint] = []
        for start in range(0, len(configs), BLOCK_SIZE):
            block = configs[start : start + BLOCK_SIZE]
            out.extend(self.block_points(block, self.block_rows(block, parts)))
        return tuple(out)

    # ------------------------------------------------------------------
    def _bound_tables(self):
        """Lazy per-group tables behind :meth:`opt_bounds`."""
        import numpy as np

        tables = self._bounds
        if tables is None:
            # callers mask empty groups; the clip keeps a trailing one in range
            starts = np.minimum(
                np.asarray([bc.opt_start for bc in self.groups], dtype=np.intp),
                max(len(self._commands) - 1, 0),
            )
            empty = np.asarray(
                [bc.opt_stop == bc.opt_start for bc in self.groups], dtype=bool
            )
            by_prec: dict[str, list[int]] = {}
            for g, bc in enumerate(self.groups):
                by_prec.setdefault(bc.precision, []).append(g)
            tables = self._bounds = (starts, empty, by_prec, {}, {})
        return tables

    def _group_infeasible(self, register_file_scale: float):
        """Per-group flag: no candidate fits this register-file scale.

        Exact, not a bound — :meth:`points` marks a group's Opt
        infeasible iff no candidate of its span has all its launches
        feasible, and launch feasibility depends on the config only
        through ``register_file_scale`` (the same
        :meth:`~repro.mali.timing.GpuConfigStack._tpc_for` predicate
        the pricing path evaluates).
        """
        import numpy as np

        starts, empty, _, _, infeas_cache = self._bound_tables()
        found = infeas_cache.get(register_file_scale)
        if found is None:
            feas_g, _ = self._gpu_stack._tpc_for(register_file_scale)
            feas = np.concatenate(
                [feas_g[self._gpu_stack._gidx], np.ones(len(self.fill_bytes), dtype=bool)]
            )
            any_feas = np.logical_or.reduceat(self._fold(np.logical_and, feas), starts)
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

        Construction per config: each candidate's launch roofline
        floors (:meth:`~repro.mali.timing.GpuConfigStack.floor_seconds`)
        and exact fill seconds go through the candidate's own in-order
        sum, monotone term for term, and the group minimum over all
        candidates under-estimates the minimum over the feasible
        subset — that bounds the group's Opt seconds.  A candidate's
        energy sums non-negative segments, each at least its floor times
        the rail floor (:func:`~repro.power.rails.gpu_floor_watts`), so
        the group minimum of the largest segment floor times the rail
        floor bounds it.  Per-precision aggregates accumulate in the
        group order :meth:`block_points` uses, monotone term for term.

        The floor depends on a config only through its DRAM bandwidth,
        register-file scale, GPU cores and GPU clock, so it is priced
        once per distinct tuple of those knobs (one ``floor_seconds``
        call per distinct DRAM and register-file setting) and gathered
        per config; the rail floor likewise once per rail scale.  Every
        config's bound is therefore the same whichever configs share
        the call, and a sweep bounds all its configs in one call.
        """
        import numpy as np

        from .ocl.driver import fill_activity

        configs = tuple(configs)
        starts, _, by_prec, dram_cache, _ = self._bound_tables()
        n = len(configs)
        if self._gpu_stack is None or not n:
            inf = np.full(n, np.inf)
            return {prec: (inf, inf.copy()) for prec in by_prec}

        parts = PlatformParts(self.base)
        # each config's row among the distinct floor-knob tuples and
        # rail scales (first-seen order), and each row's first config;
        # generators rather than per-config key lists, so the pass
        # leaves no per-config object for the garbage collector to track
        knob_rows: dict[tuple, int] = {}
        knob_of = np.fromiter(
            (knob_rows.setdefault(key, len(knob_rows)) for key in map(_floor_knobs, configs)),
            np.intp,
            n,
        )
        rail_rows: dict[float, int] = {}
        rail_of = np.fromiter(
            (rail_rows.setdefault(c.rail_scale, len(rail_rows)) for c in configs), np.intp, n
        )
        first = np.unique(knob_of, return_index=True)[1]
        wfloor = np.asarray(
            [
                gpu_floor_watts(parts.rails(configs[i]))
                for i in np.unique(rail_of, return_index=True)[1]
            ]
        )[rail_of]

        time_lb = np.empty((len(knob_rows), len(self.groups)))
        segment_lb = np.empty((len(knob_rows), len(self.groups)))
        by_dram: dict[tuple, list[tuple]] = {}
        for key in knob_rows:
            by_dram.setdefault(key[:2], []).append(key)
        for (gbps, rf_scale), group in by_dram.items():
            rows = [knob_rows[key] for key in group]
            dram = dram_cache.get(gbps)
            if dram is None:
                dram = dram_cache[gbps] = DramModel(parts.dram(configs[first[rows[0]]]))
            floor = self._gpu_stack.floor_seconds(
                dram,
                shader_cores=np.asarray([float(key[2]) for key in group]),
                clock_hz=np.asarray([key[3] for key in group]),
                register_file_scale=rf_scale,
            )
            fills = [fill_activity(nbytes, dram.config).duration_s for nbytes in self.fill_bytes]
            floor = np.concatenate([floor, np.tile(fills, (len(group), 1))], axis=1)
            # groups tile the candidate axis contiguously in order, so a
            # reduceat over the starts is the per-group min; empty
            # groups (reduceat would alias the next span) are masked
            # below with the infeasible ones
            time_lb[rows, :] = np.minimum.reduceat(self._fold(np.add, floor), starts, axis=1)
            segment_lb[rows, :] = np.minimum.reduceat(self._fold(np.maximum, floor), starts, axis=1)
            # provable register-file infeasibility: the group's Opt
            # point is exactly infeasible (inf seconds), not merely bounded
            infeasible = self._group_infeasible(rf_scale)
            if infeasible.any():
                cells = np.ix_(rows, np.flatnonzero(infeasible))
                time_lb[cells] = np.inf
                segment_lb[cells] = np.inf

        out: dict[str, tuple] = {}
        for prec, gids in by_prec.items():
            if benchmark != AGGREGATE:
                gids = [g for g in gids if self.groups[g].name == benchmark]
            t = np.zeros(n)
            e = np.zeros(n)
            for g in gids:
                t = t + time_lb[:, g][knob_of]
                e = e + segment_lb[:, g][knob_of] * wfloor
            out[prec] = (t, e)
        return out


# ---------------------------------------------------------------------------
# streaming driver (chunked evaluation + pruning + online reduction)
# ---------------------------------------------------------------------------


@_collector_paused
def _stream_shard(
    space: DesignSpace,
    configs,
    *,
    chunk_size: int,
    prune: bool,
    target_benchmark: str,
    keep_names: frozenset,
    tracer: Tracer,
):
    """Stream the configs through chunked pricing + online reduction.

    Returns ``(kept_points, frontiers, evaluated, pruned, peak)``:
    full point lists of the ``keep_names`` configs (input order), one
    :class:`~repro.pareto.OnlineFrontier` per precision over the
    ``(target_benchmark, precision, "Opt")`` slice,
    evaluated/pruned config counts and the peak number of points priced
    and held at once (a chunk's priced points + kept + frontier) — the
    O(chunk + frontier) memory-model witness.  A chunk prices every
    point of its configs but builds :class:`DesignPoint` objects only
    for the target slice and the kept configs.

    Runs with the cyclic collector paused (:func:`_collector_paused`),
    as :meth:`DesignSpace.evaluate` does: the bounds, chunks and
    frontiers form no cycles, and what a chunk drops is freed by
    reference counting; the one deferred young collection over the
    sweep's surviving objects starts at the caller's first allocation
    after the return.
    """
    import numpy as np

    frontiers = {p.value: OnlineFrontier(key=point_key) for p in space.precisions}
    evaluated = 0
    pruned = 0
    peak = 0
    kept_by_name: dict[str, list[DesignPoint]] = {}
    inf = float("inf")
    n_kept = 0
    # the target slice sits at the same slots of every config's points
    width = len(space.slots)
    targets = [
        (slice(slot, slot + 1), precision)
        for slot, (benchmark, precision, version) in enumerate(space.slots)
        if benchmark == target_benchmark and version == "Opt"
    ]

    def _evaluate(batch) -> int:
        """Price ``batch`` in blocks, feed the frontiers in config order;
        returns the number of points priced."""
        nonlocal evaluated, n_kept
        # one part cache per batch keeps memory O(chunk) however many
        # distinct knob values the whole space holds
        parts = PlatformParts(space.base)
        priced = 0
        for start in range(0, len(batch), BLOCK_SIZE):
            block = batch[start : start + BLOCK_SIZE]
            values = space._block_values(space.block_rows(block, parts))
            evaluated += len(block)
            for i, config in enumerate(block):
                if config.name in keep_names:
                    row = [value[i : i + 1] for value in values]
                    kept_by_name[config.name] = space._slot_points((config,), row)
                    n_kept += width
            for slot, precision in targets:
                frontiers[precision].update(space._slot_points(block, values, slot))
            priced += len(block) * width
        return priced

    # bound-only first pass: one bound call over every config, then
    # seed the frontier with the most promising configs (per precision,
    # the bound-time and bound-energy argmins), so the main sweep
    # prunes against a near-final frontier from its very first chunk.
    # Probe choice only affects *which* dominated configs get skipped —
    # the frontier itself is order-independent and pruning is sound —
    # so any probe set yields the same result points.
    if prune:
        bounds = space.opt_bounds(configs, benchmark=target_benchmark)
        probe_idx = sorted(
            {int(axis.argmin()) for bound in bounds.values() for axis in bound if axis.min() < inf}
        )
        probe = np.zeros(len(configs), dtype=bool)
        probe[probe_idx] = True
        probe_points = _evaluate([configs[i] for i in probe_idx])
        peak = probe_points + sum(len(f) for f in frontiers.values())
        keep = np.fromiter((c.name in keep_names for c in configs), bool, len(configs))

    for start in range(0, len(configs), chunk_size):
        stop = start + chunk_size
        chunk = configs[start:stop]
        if prune:
            # skippable iff, for every precision, the config's target
            # point provably cannot join the frontier: either its bound
            # is exactly infeasible, or a real frontier member strictly
            # dominates the bound (and by transitivity the actual point,
            # bound <= actual).  Probes were evaluated while seeding,
            # keep configs are never skipped.
            skip = ~(keep[start:stop] | probe[start:stop])
            for precision, (t, e) in bounds.items():
                t, e = t[start:stop], e[start:stop]
                skip &= (t == inf) | frontiers[precision].strictly_dominates(t, e)
            chunk_pruned = int(skip.sum())
            pruned += chunk_pruned
            survivors = list(compress(chunk, (~(skip | probe[start:stop])).tolist()))
        else:
            chunk_pruned = 0
            survivors = list(chunk)
        # every pruning decision above is taken before any survivor is
        # priced, so pricing them as one batch leaves the counts alone
        chunk_points = _evaluate(survivors)
        resident = chunk_points + n_kept + sum(len(f) for f in frontiers.values())
        peak = max(peak, resident)
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
) -> DesignSpaceResult:
    """Assemble the streamed result.

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
        digests=config_digests(retained),
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
        target_version="Opt",
    )


@dataclass(frozen=True)
class DesignSpaceResult:
    """The evaluated hypercube: configs, digests and every design point.

    ``mode`` is ``"materialize"`` (every point of every config, laid
    out as :attr:`DesignSpace.slots`) or ``"stream"`` (only the kept
    configs' full point lists plus the per-precision target-slice
    frontiers survive; everything else was discarded while streaming).
    In stream mode ``configs`` / ``digests`` cover only the retained
    configs, ``evaluated`` + ``pruned`` equals the size of the swept
    space, and ``peak_resident`` is the observed memory-model witness:
    the most points priced and held at once (a chunk's priced points +
    kept + frontier), not the point objects built.
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
        """Points of one hypercube slice, in evaluation order.

        A materialized result holds one point per
        :attr:`DesignSpace.slots` entry of every config, config-major
        (:func:`_slot_layout`), so a slice is read at its slot offsets
        (its three slots merged config by config when ``version`` is
        ``None``); a streamed result is scanned.
        """
        slots = _slot_layout(self.benchmarks, self.precisions)
        width = len(slots)
        if self.mode == "materialize" and len(self.points) == width * len(self.configs):
            offsets = [
                slot
                for slot, (b, p, v) in enumerate(slots)
                if b == benchmark and p == precision and (version is None or v == version)
            ]
            points = chain.from_iterable(zip(*(self.points[s::width] for s in offsets)))
        else:
            points = (
                p
                for p in self.points
                if p.benchmark == benchmark
                and p.precision == precision
                and (version is None or p.version == version)
            )
        if feasible_only:
            points = filter(attrgetter("feasible"), points)
        return tuple(points)

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


def _materialize(
    space: DesignSpace, configs, benchmarks, precisions, *, scale, seed
) -> DesignSpaceResult:
    """Every point of every config, in config order (``stream=False``)."""
    points = space.evaluate(configs)
    return DesignSpaceResult(
        configs=configs,
        digests=config_digests(configs),
        points=points,
        benchmarks=benchmarks,
        precisions=tuple(p.value for p in precisions),
        scale=scale,
        seed=seed,
        evaluated=len(configs),
        peak_resident=len(points),
    )


def evaluate_space(
    configs=None,
    benchmarks=PAPER_ORDER,
    precisions=_PRECISIONS_DEFAULT,
    scale: float = 0.5,
    seed: int = 1234,
    stream: bool = False,
    chunk_size: int = 256,
    prune: bool = True,
    target_benchmark: str = AGGREGATE,
    keep_configs=(EXYNOS_5250.name,),
    trace=None,
    space: DesignSpace | None = None,
) -> DesignSpaceResult:
    """Evaluate the full hypercube over a config family.

    ``configs`` defaults to :func:`~repro.calibration.socspace.default_space`
    (64 SoCs around the Exynos 5250).

    ``stream=True`` switches to the chunked large-space driver: configs
    are priced ``chunk_size`` at a time, only the
    ``(target_benchmark, precision, "Opt")`` slice feeds
    per-precision :class:`~repro.pareto.OnlineFrontier` reducers, and
    non-frontier points are discarded immediately — peak memory is
    O(chunk + frontier), not O(space).  ``prune=True`` additionally
    skips pricing configs whose :meth:`DesignSpace.opt_bounds` lower
    bound is already strictly dominated on *every* precision.  The
    result retains the full point lists of ``keep_configs`` (reference
    points for the equal-energy/equal-time queries; never pruned) plus
    the frontier points; the streamed frontier is identical to
    ``frontier()`` over a materialized run — pruned and discarded
    points are all strictly dominated.  ``trace`` (a
    :class:`~repro.experiments.trace.TraceSink` or a JSONL path) gets
    ``space_started`` / ``space_finished`` progress events, with a
    ``space_chunk_finished`` per streamed chunk in between.

    ``space`` optionally reuses a prebuilt :class:`DesignSpace` (same
    benchmarks/precisions/scale/seed) so repeated sweeps over one grid
    pay the compile-and-hoist build once.
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
    if stream:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if target_benchmark != AGGREGATE and target_benchmark not in benchmarks:
            raise ValueError(
                f"target_benchmark {target_benchmark!r} not in the evaluated "
                f"benchmarks (or {AGGREGATE!r})"
            )
    if space is None:
        space = DesignSpace(benchmarks=benchmarks, precisions=precisions, scale=scale, seed=seed)
    keep_names = frozenset(keep_configs or ())
    sink, owns_sink = resolve_sink(trace)
    tracer = Tracer(sink)
    try:
        if not stream:
            tracer.emit("space_started", detail={"configs": len(configs)})
            result = _materialize(
                space, configs, benchmarks, precisions, scale=scale, seed=seed
            )
            tracer.emit(
                "space_finished",
                detail={
                    "evaluated": result.evaluated,
                    "pruned": result.pruned,
                    "peak_resident": result.peak_resident,
                },
            )
            return result

        tracer.emit(
            "space_started",
            detail={
                "configs": len(configs),
                "chunk_size": chunk_size,
                "prune": bool(prune),
                "target": f"{target_benchmark}/Opt",
            },
        )
        kept, frontiers, evaluated, pruned, peak = _stream_shard(
            space,
            configs,
            chunk_size=chunk_size,
            prune=prune,
            target_benchmark=target_benchmark,
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


def frontier(points) -> tuple[DesignPoint, ...]:
    """The non-dominated feasible points, deterministically ordered.

    Sorted by (seconds, energy, config name, version); duplicate
    (seconds, energy) pairs all survive (none strictly dominates the
    other), so equal designs stay visible.  O(n log n) sort-based
    skyline, checked against the all-pairs oracle
    ``frontier_reference`` in ``tests/pricing_oracle.py``.
    """
    return skyline(points, key=point_key)


def dominated(points) -> tuple[DesignPoint, ...]:
    """The feasible points *not* on the frontier, same ordering.

    Membership is by sort key (value), not object identity: an
    equal-valued copy of a frontier point is itself a frontier tie and
    never lands in both sets.
    """
    points = tuple(points)
    front = set(map(point_key, frontier(points)))
    return tuple(
        sorted(
            (p for p in points if p.feasible and point_key(p) not in front),
            key=point_key,
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
        key=point_key,
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


#: ``(seconds, watts, energy, feasible)`` of a slice with no feasible point
_NO_SLICE = (float("inf"), 0.0, float("inf"), False)


def _dvfs_opp_slices(space: DesignSpace, mali, rails, dram, table, benchmark) -> dict:
    """Per OPP of ``table``, the per-precision ``(seconds, watts, energy,
    feasible)`` of the target slice.

    The OPPs are priced as one block — the Mali config moved to each
    OPP's clock, the rails scaled by its ``f · V²`` factor — through the
    stacked engine's two Opt stages and aggregate
    (:meth:`DesignSpace._opt_rows`, :meth:`DesignSpace._aggregates`).
    At the table's nominal OPP both are the config's own parts, so that
    slice is bitwise the fixed-frequency Opt point of
    :meth:`DesignSpace.block_points`.
    """
    from dataclasses import replace as _replace

    from .power import dvfs

    opps = table.points
    opt = space._opt_rows(
        [
            mali
            if opp.frequency_hz == mali.clock_hz
            else _replace(mali, clock_hz=opp.frequency_hz)
            for opp in opps
        ],
        [dram] * len(opps),
        slice(None),
        [(dvfs.rails_at(rails, gpu_table=table, gpu_opp=opp), i) for i, opp in enumerate(opps)],
    )
    columns = [opt[f"pick_{field}"] for field in ("seconds", "watts", "energy", "feasible")]
    picks = [tuple(column[:, g] for column in columns) for g in range(len(space.groups))]
    if benchmark == AGGREGATE:
        slices = space._aggregates(picks)
    else:
        slices = {
            bc.precision: pick
            for bc, pick in zip(space.groups, picks)
            if bc.name == benchmark
        }
    return {
        opp: {
            precision: (float(s[i]), float(w[i]), float(e[i]), bool(ok[i]))
            for precision, (s, w, e, ok) in slices.items()
        }
        for i, opp in enumerate(opps)
    }


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
    through the stacked engine, and :func:`repro.power.dvfs.settle`
    picks each governor's OPP from those prices (an infeasible slice
    prices ``inf``), the rule the campaign's governed runs use.  A
    deadline policy's energy is the whole window: the work at its OPP
    plus the slack at the board idle floor.  ``fixed`` points are
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

    parts = PlatformParts(space.base)
    points: list[DvfsDesignPoint] = []
    for config in configs:
        mali = parts.mali(config)
        rails = parts.rails(config)
        dram = DramModel(parts.dram(config))
        table = dvfs.MALI_T604_OPPS.rescaled(mali.clock_hz)
        slices = _dvfs_opp_slices(space, mali, rails, dram, table, benchmark)
        idle_w = rails.board_idle_w
        for governor in governors:
            for precision in (p.value for p in precisions):
                priced = {opp: slices[opp].get(precision, _NO_SLICE) for opp in table.points}
                opp = dvfs.settle(
                    governor,
                    table,
                    time_at=lambda o: priced[o][0] if priced[o][3] else float("inf"),
                    deadline_s=deadline_s,
                )
                if opp is None:
                    opp, (seconds, watts, energy, ok) = table.max, _NO_SLICE
                else:
                    seconds, watts, energy, ok = priced[opp]
                    if governor in dvfs.DEADLINE_POLICIES:
                        # the window: work at the OPP, then idle slack
                        energy = energy + (deadline_s - seconds) * idle_w
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
) -> dict:
    """Model-only Opt-over-Serial speedup per platform variant.

    The single model-only path behind :func:`repro.whatif.estimate_speedups`
    and the sensitivity probes: every number comes from each platform's
    ``pricing_model()`` — tuner pricing for the Opt candidate, the CPU
    cell timing for the Serial baseline — with no functional NumPy execution
    and no meter.  The Serial baseline is priced on the first platform,
    so the speedups of the variants are comparable; a sensitivity probe
    passes one platform, so its baseline is its own.
    ``None`` marks a variant with no feasible Opt candidate.  The
    platforms' instances share one :class:`~repro.benchmarks.base.Draws`
    record, so the benchmark's inputs are drawn once, not per platform.
    """
    from .pricing.grid import estimate_cpu_seconds, estimate_opt_seconds

    if not platforms:
        raise ValueError("need at least one platform")
    out: dict = {}
    serial_seconds = None
    draws = Draws(seed, readers=len(platforms))
    for name, platform in platforms.items():
        bench = create(
            benchmark, precision=precision, scale=scale, seed=seed, platform=platform,
            draws=draws,
        )
        if serial_seconds is None:
            serial_seconds = estimate_cpu_seconds(bench)
        opt_seconds = estimate_opt_seconds(bench)
        out[name] = None if opt_seconds is None else serial_seconds / opt_seconds
    return out
