"""Scalar reference implementations of the Mali and A15 pricing models.

``src/`` prices launches and CPU iterations through one implementation
per device: the array epilogues of :class:`~repro.mali.timing.GpuConfigStack`
and :class:`~repro.cpu.pricing.CpuConfigStack`, of which every other
entry point is a view.  This module is the independent oracle they are
checked against: the same models written cell by cell over
``InstructionMix.scaled``, plain dict walks and ``math``, the way the
formulas read in the paper's terms.  Every production row must equal
the reference bit for bit (full dataclass ``==``, never ``approx``).

* :func:`time_launch_reference` / :func:`roofline_floor_reference` —
  one Mali-T604 NDRange launch and its optimistic roofline floor;
* :func:`time_serial_reference` / :func:`time_openmp_reference` — one
  timed Cortex-A15 iteration, one core or both;
* :func:`facade_rows` — a :class:`~repro.designspace.DesignSpace` row
  set of one SoC config, every cell priced through the references above
  (the loop a stacked sweep replaces);
* :func:`points_reference` — one config's design points from its rows,
  picked and summed with Python floats one group at a time (the loop
  the block pass replaces);
* :func:`digest_reference` — a config digest hashed from the whole
  derived platform;
* :func:`skyline_reference` / :func:`frontier_reference` — the O(n²)
  all-pairs Pareto scans :func:`repro.pareto.skyline` replaced;
* :func:`scalar_pricing` — patches every launch and CPU pricing entry a
  campaign or tuner reaches onto the references, memo off.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from unittest import mock

import numpy as np

from repro import perf
from repro.compiler.regalloc import fits_register_file, threads_for_scale
from repro.cpu.pricing import CpuPricingModel
from repro.cpu.serial import CpuTiming
from repro.errors import CLOutOfResources
from repro.ir.dtypes import DType, scalar_bits
from repro.ir.nodes import AccessPattern, MemSpace
from repro.mali import timing
from repro.mali.job_manager import distribute
from repro.mali.occupancy import derive_occupancy
from repro.mali.timing import GpuLaunchTiming, GpuPricingModel, LaunchPricer
from repro.pareto import point_key, strictly_dominates
from repro.power.rails import Activity, ActivityKind
from repro.pricing.cells import MODE_SERIAL, TraceCell

_IRREGULAR = (AccessPattern.STRIDED, AccessPattern.GATHER, AccessPattern.ATOMIC)


# ---------------------------------------------------------------------------
# Mali-T604 launch
# ---------------------------------------------------------------------------


def threads_per_core(compiled, config) -> int:
    """Register-limited resident threads, or ``CL_OUT_OF_RESOURCES``."""
    scale = config.register_file_scale
    report = compiled.registers
    if scale == 1.0:
        return report.threads_per_core
    if not fits_register_file(report, scale):
        raise CLOutOfResources(
            f"kernel needs {report.registers_128} 128-bit registers, "
            f"exceeding the {scale}x-scaled register file"
        )
    return threads_for_scale(report, scale)


def arith_cycles(mix, config, native_math: bool = False) -> float:
    cycles = 0.0
    for (op, base, width, accumulates), count in mix.arith.items():
        cycles += count * config.arith_issue_cost(
            op, base=base, width=width, scalar_bits=scalar_bits(base), native_math=native_math
        )
    cycles += mix.loop_headers * config.loop_header_cost
    cycles += mix.branches * config.branch_cost
    cycles += mix.calls * config.call_cost
    return cycles


def ls_cycles(mix, config) -> float:
    cycles = 0.0
    for (kind, space, pattern, base, width, sequential, aligned), count in mix.mem.items():
        if space == MemSpace.PRIVATE:
            continue  # register-resident; spills are emitted as GLOBAL
        cost = config.ls_issue_cost(width, scalar_bits=scalar_bits(base))
        if width > 1 and not aligned:
            cost *= 2.0
        if space == MemSpace.CONSTANT:
            cost *= config.uniform_load_cost_factor
        cycles += count * cost
    for (op, base, space), count in mix.atomics.items():
        if space == MemSpace.LOCAL:
            cycles += count * config.atomic_local_cycles
        else:
            cycles += count * config.atomic_cycles
    return cycles


def access_width_efficiency(mix, config) -> float:
    """Bandwidth efficiency from the byte-weighted mean global-access width."""
    total_bytes = 0.0
    weighted_bits = 0.0
    for (kind, space, pattern, base, width, sequential, aligned), count in mix.mem.items():
        if space != MemSpace.GLOBAL:
            continue
        nbytes = count * DType(base, width).bytes
        total_bytes += nbytes
        if sequential:
            weighted_bits += nbytes * config.lane_bits
        else:
            weighted_bits += nbytes * min(width * scalar_bits(base), config.lane_bits)
    if total_bytes <= 0.0:
        return 1.0
    mean_bits = weighted_bits / total_bytes
    frac = min(max((mean_bits - 32.0) / (config.lane_bits - 32.0), 0.0), 1.0)
    low = config.scalar_access_dram_efficiency
    return low + (1.0 - low) * frac


def time_launch_reference(
    compiled, n_items, local_size, traits, config, dram, caches, concurrent_agents=1
) -> GpuLaunchTiming:
    """One NDRange launch of ``n_items`` work-items, cell by cell."""
    if n_items < 1:
        raise ValueError(f"n_items must be >= 1, got {n_items}")
    mix = compiled.mix
    totals = mix.scaled(float(n_items))

    occ = derive_occupancy(threads_per_core(compiled, config), local_size)
    dist, imbalance = distribute(n_items, local_size, config, traits.imbalance_cv)

    clock = config.clock_hz
    n_cores = config.shader_cores

    native_math = compiled.options.native_math
    arith = arith_cycles(totals, config, native_math) / (n_cores * config.arith_pipes_per_core)
    ls = ls_cycles(totals, config) / (n_cores * config.ls_pipes_per_core)
    arith_s = arith / clock / occ.hiding
    ls_s = ls / clock / occ.hiding

    traffic = caches.dram_traffic(list(traits.streams))
    dram_bytes = sum(traffic.values())
    access_eff = access_width_efficiency(totals, config)
    dram_s = (
        dram.transfer_seconds(
            "gpu", bytes_by_pattern=traffic, concurrent_agents=concurrent_agents
        )
        / occ.bandwidth_hiding
        / access_eff
        if dram_bytes > 0
        else 0.0
    )

    atomic_s = (
        totals.atomic_contention_weight * config.atomic_cycles
        # local atomics serialize only within one core: 1/n_cores weight
        + totals.atomic_contention_weight_local * config.atomic_local_cycles / n_cores
    ) / clock

    barrier_instances = totals.barriers / max(local_size, 1)
    barrier_s = barrier_instances * config.barrier_cycles / clock / n_cores

    components = {"arith": arith_s, "ls": ls_s, "dram": dram_s, "atomic": atomic_s}
    bottleneck = max(components, key=components.get)
    peak = components[bottleneck]
    leak = config.overlap_leak * (sum(components.values()) - peak)
    parallel_s = (peak + leak) * imbalance + barrier_s

    total = parallel_s + dist.schedule_seconds + config.launch_overhead_s

    return GpuLaunchTiming(
        seconds=total,
        arith_seconds=arith_s,
        ls_seconds=ls_s,
        dram_seconds=dram_s,
        atomic_seconds=atomic_s,
        barrier_seconds=barrier_s,
        schedule_seconds=dist.schedule_seconds,
        launch_overhead_seconds=config.launch_overhead_s,
        imbalance_factor=imbalance,
        dram_bytes=dram_bytes,
        bottleneck=bottleneck,
    )


def roofline_floor_reference(compiled, n_items, traits, config, dram, caches) -> float:
    """``max(arith, ls, dram)`` seconds with perfect hiding and no overheads."""
    if n_items < 1:
        raise ValueError(f"n_items must be >= 1, got {n_items}")
    totals = compiled.mix.scaled(float(n_items))
    clock = config.clock_hz
    n_cores = config.shader_cores
    arith_s = (
        arith_cycles(totals, config, compiled.options.native_math)
        / (n_cores * config.arith_pipes_per_core)
        / clock
    )
    ls_s = ls_cycles(totals, config) / (n_cores * config.ls_pipes_per_core) / clock
    traffic = caches.dram_traffic(list(traits.streams))
    dram_s = (
        dram.transfer_seconds("gpu", bytes_by_pattern=traffic)
        if sum(traffic.values()) > 0
        else 0.0
    )
    return max(arith_s, ls_s, dram_s)


# ---------------------------------------------------------------------------
# Cortex-A15 Serial / OpenMP
# ---------------------------------------------------------------------------


def core_cycles(totals, config, caches, traits) -> tuple[float, float]:
    """(busy cycles on one core, instruction count) for the whole mix."""
    fp_cycles = 0.0
    int_cycles = 0.0
    accum_cycles = 0.0
    instructions = 0.0
    for (op, base, width, accumulates), count in totals.arith.items():
        if accumulates and base.startswith("f"):
            # the loop-carried FP chain advances one element per VFP
            # result latency and is its own serialization resource
            per_lane = max(config.op_cycles[op], config.accum_latency(op))
            if base == "f64":
                per_lane *= config.fp64_cost_factor
            accum_cycles += count * per_lane * width
        else:
            cycles = count * config.arith_cycles(op, base, width)
            if base.startswith("f"):
                fp_cycles += cycles
            else:
                int_cycles += cycles
        instructions += count * width

    ls_count = 0.0
    irregular_ls = 0.0
    for (kind, space, pattern, base, width, sequential, aligned), count in totals.mem.items():
        if space == MemSpace.PRIVATE:
            continue
        ls_count += count * width  # scalar code: one instruction per lane
        if pattern in _IRREGULAR:
            irregular_ls += count * width
    l1_hit = caches.l1_hit_fraction(list(traits.streams))
    ls = ls_count / config.ls_ops_per_cycle
    ls += irregular_ls * (1.0 - l1_hit) * config.l2_hit_penalty_cycles
    irregular = [st for st in traits.streams if st.pattern in _IRREGULAR]
    if irregular and irregular_ls > 0.0:
        requested = sum(st.requested_bytes for st in irregular)
        if requested > 0.0:
            traffic = caches.dram_traffic(list(traits.streams))
            irregular_dram = traffic.get(AccessPattern.STRIDED, 0.0) + traffic.get(
                AccessPattern.GATHER, 0.0
            ) + traffic.get(AccessPattern.ATOMIC, 0.0)
            miss_frac = min(irregular_dram / requested, 1.0)
            ls += irregular_ls * miss_frac * config.dram_miss_penalty_cycles
    instructions += ls_count

    branch_cycles = (
        totals.branches * config.mispredict_rate
        + totals.divergent_branches * (config.divergent_mispredict_rate - config.mispredict_rate)
    ) * config.mispredict_penalty
    loop_cycles = totals.loop_headers * config.loop_header_cycles
    call_cycles = totals.calls * config.call_cycles
    atomic_cycles = totals.atomic_ops() * config.atomic_cycles
    instructions += totals.branches + totals.loop_headers + totals.calls + totals.atomic_ops()

    busy = max(fp_cycles, int_cycles + loop_cycles, ls, accum_cycles)
    leak = 0.25 * (fp_cycles + int_cycles + loop_cycles + ls + accum_cycles - busy)
    cycles = busy + leak + branch_cycles + call_cycles + atomic_cycles
    return cycles, instructions


def _element_loop(mix, n_elements):
    if n_elements < 1:
        raise ValueError(f"n_elements must be >= 1, got {n_elements}")
    totals = mix.scaled(float(n_elements))
    totals.loop_headers += float(n_elements)  # the serial element loop itself
    return totals


def _dram(caches, traits, dram, agent):
    traffic = caches.dram_traffic(list(traits.streams))
    dram_bytes = sum(traffic.values())
    dram_s = dram.transfer_seconds(agent, bytes_by_pattern=traffic) if dram_bytes > 0 else 0.0
    return dram_bytes, dram_s


def time_serial_reference(mix, n_elements, traits, config, dram, caches) -> CpuTiming:
    """One timed iteration of the Serial version on one A15 core."""
    totals = _element_loop(mix, n_elements)
    cycles, instructions = core_cycles(totals, config, caches, traits)
    compute_s = cycles / config.clock_hz
    dram_bytes, dram_s = _dram(caches, traits, dram, "cpu1")
    total = max(compute_s, dram_s) + (1.0 - config.mlp_overlap) * min(compute_s, dram_s)
    ipc = instructions / (total * config.clock_hz) if total > 0 else 0.0
    return CpuTiming(
        seconds=total,
        compute_seconds=compute_s,
        mem_stall_seconds=total - compute_s,
        dram_seconds=dram_s,
        overhead_seconds=0.0,
        dram_bytes=dram_bytes,
        active_cores=1,
        ipc=ipc,
    )


def time_openmp_reference(mix, n_elements, traits, config, dram, caches) -> CpuTiming:
    """One timed iteration of the OpenMP version on both A15 cores."""
    n_cores = config.cores
    totals = _element_loop(mix, n_elements)
    cycles, instructions = core_cycles(totals, config, caches, traits)
    serial_cycles = cycles * traits.serial_fraction
    parallel_cycles = cycles - serial_cycles

    imbalance = 1.0
    if traits.imbalance_cv > 0.0:
        chunks_per_core = max(n_elements / n_cores, 1.0)
        imbalance = 1.0 + traits.imbalance_cv * math.sqrt(
            2.0 * math.log(max(n_cores, 2)) / chunks_per_core
        )
    imbalance = max(imbalance, 1.0 + 0.35 * traits.imbalance_cv / math.sqrt(n_cores))

    compute_s = (serial_cycles + parallel_cycles / n_cores * imbalance) / config.clock_hz
    dram_bytes, dram_s = _dram(caches, traits, dram, "cpu2")
    total = max(compute_s, dram_s) + (1.0 - config.mlp_overlap) * min(compute_s, dram_s)
    stall = total - compute_s
    overhead = traits.launches * (
        config.omp_region_overhead_s + n_cores * config.omp_chunk_overhead_s
    )
    total += overhead
    ipc = instructions / (total * config.clock_hz * n_cores) if total > 0 else 0.0
    return CpuTiming(
        seconds=total,
        compute_seconds=compute_s,
        mem_stall_seconds=stall,
        dram_seconds=dram_s,
        overhead_seconds=overhead,
        dram_bytes=dram_bytes,
        active_cores=n_cores,
        ipc=ipc,
    )


def time_cpu_reference(cell, config, dram, caches) -> CpuTiming:
    """The reference of one :class:`~repro.pricing.CpuCell`."""
    fn = time_serial_reference if cell.mode == MODE_SERIAL else time_openmp_reference
    return fn(cell.mix, cell.n_elements, cell.traits, config, dram, caches)


# ---------------------------------------------------------------------------
# design-space rows
# ---------------------------------------------------------------------------


def facade_rows(space, config):
    """:class:`~repro.designspace.SpaceRows` of one SoC config, every cell
    priced through the references: CPU cells through the A15 references,
    GPU cells that fit the config's register file through
    :func:`time_launch_reference`, power through the platform's batched
    trace pricing."""
    from repro.designspace import SpaceRows

    platform = config.platform(space.base)
    pricing = platform.pricing_model()
    dram = pricing.dram_model
    rf_scale = platform.mali.register_file_scale

    cpu_rows = [
        time_cpu_reference(cell, platform.cpu, dram, pricing.cpu_caches)
        for cell in space.cpu_cells
    ]
    feasible = [
        fits_register_file(cell.compiled.registers, rf_scale) for cell in space.gpu_cells
    ]
    idx = [i for i, ok in enumerate(feasible) if ok]
    timings = [
        time_launch_reference(
            cell.compiled,
            cell.n_items,
            cell.local_size,
            cell.traits,
            platform.mali,
            dram,
            pricing.gpu_caches,
            cell.concurrent_agents,
        )
        for cell in (space.gpu_cells[i] for i in idx)
    ]

    trace_cells = [
        TraceCell(
            (
                Activity(
                    kind=ActivityKind.GPU_KERNEL,
                    duration_s=t.seconds * space.gpu_cells[i].traits.launches,
                    gpu_alu_utilization=t.alu_utilization,
                    gpu_ls_utilization=t.ls_utilization,
                    dram_bandwidth=t.dram_bandwidth,
                ),
            )
        )
        for i, t in zip(idx, timings)
    ]
    trace_cells += [
        TraceCell(
            (
                Activity(
                    kind=ActivityKind.CPU,
                    duration_s=r.seconds,
                    active_cpu_cores=r.active_cores,
                    cpu_ipc=r.ipc,
                    dram_bandwidth=r.dram_bandwidth,
                ),
            )
        )
        for r in cpu_rows
    ]
    traces = pricing.power.price(trace_cells)

    width = len(space.gpu_cells)
    gpu_seconds = np.full(width, np.inf)
    gpu_iter = np.full(width, np.inf)
    gpu_watts = np.zeros(width)
    gpu_energy = np.full(width, np.inf)
    for k, (i, t) in enumerate(zip(idx, timings)):
        gpu_seconds[i] = t.seconds
        gpu_iter[i] = t.seconds * space.gpu_cells[i].traits.launches
        gpu_watts[i] = traces[k].segments[0].watts
        gpu_energy[i] = traces[k].energy_j
    cpu_traces = traces[len(idx):]
    return SpaceRows(
        gpu_feasible=np.asarray(feasible, dtype=bool),
        gpu_seconds=gpu_seconds,
        gpu_iter_seconds=gpu_iter,
        gpu_watts=gpu_watts,
        gpu_energy=gpu_energy,
        cpu_seconds=np.asarray([r.seconds for r in cpu_rows]),
        cpu_watts=np.asarray([t.segments[0].watts for t in cpu_traces]),
        cpu_energy=np.asarray([t.energy_j for t in cpu_traces]),
    )


def points_reference(space, config, rows):
    """Design points of one config from its row arrays, one group at a
    time: [Serial, OpenMP, Opt] per (benchmark, precision) group, then
    the per-precision aggregates, summed term by term in group order."""
    from repro.designspace import AGGREGATE, VERSIONS, DesignPoint

    pts = []
    agg = {}  # (precision, version) -> [seconds, energy, ok]
    for bc in space.groups:
        for version, lane in (("Serial", bc.cpu_start), ("OpenMP", bc.cpu_start + 1)):
            seconds = float(rows.cpu_seconds[lane])
            energy = float(rows.cpu_energy[lane])
            pts.append(
                DesignPoint(
                    config.name, bc.name, bc.precision, version, seconds,
                    float(rows.cpu_watts[lane]), energy,
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
            seconds, watts, energy, ok = math.inf, 0.0, math.inf, False
        pts.append(
            DesignPoint(
                config.name, bc.name, bc.precision, "Opt", seconds, watts, energy, ok
            )
        )
        acc = agg.setdefault((bc.precision, "Opt"), [0.0, 0.0, True])
        acc[0] += seconds
        acc[1] += energy
        acc[2] = acc[2] and ok
    for precision in dict.fromkeys(bc.precision for bc in space.groups):
        for version in VERSIONS:
            seconds, energy, ok = agg[(precision, version)]
            watts = energy / seconds if ok and seconds > 0 else 0.0
            pts.append(
                DesignPoint(
                    config.name, AGGREGATE, precision, version, seconds, watts, energy, ok
                )
            )
    return pts


def digest_reference(config, base=None) -> str:
    """SHA-256 prefix of ``repr((mali, cpu, dram, rails))`` of the whole
    derived platform."""
    p = config.platform(base)
    return hashlib.sha256(repr((p.mali, p.cpu, p.dram, p.rails)).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Pareto frontiers
# ---------------------------------------------------------------------------


def skyline_reference(points, key=point_key) -> tuple:
    """The O(n²) all-pairs frontier: every feasible point no feasible
    point strictly dominates, sorted by ``key``."""
    feasible = [p for p in points if getattr(p, "feasible", True)]
    keys = [key(p) for p in feasible]
    front = [
        p
        for p, kp in zip(feasible, keys)
        if not any(strictly_dominates(kq[0], kq[1], kp[0], kp[1]) for kq in keys)
    ]
    return tuple(sorted(front, key=key))


def frontier_reference(points) -> tuple:
    """:func:`skyline_reference` over design points (the oracle of
    :func:`repro.designspace.frontier`)."""
    return skyline_reference(points, key=point_key)


# ---------------------------------------------------------------------------
# the scalar world
# ---------------------------------------------------------------------------


def _scalar_cpu_one(self, cell):
    return time_cpu_reference(cell, self.config, self.dram, self.caches)


def _scalar_cpu(self, cells):
    return tuple(_scalar_cpu_one(self, cell) for cell in cells)


def _scalar_launch(self, n_items, local_size):
    return time_launch_reference(
        self.compiled, n_items, local_size, self.traits, self.config, self.dram,
        self.caches, self.concurrent_agents,
    )


def _scalar_gpu_one(self, cell):
    return time_launch_reference(
        cell.compiled, cell.n_items, cell.local_size, cell.traits, self.config,
        self.dram, self.caches, cell.concurrent_agents,
    )


def _scalar_gpu(self, cells):
    return tuple(_scalar_gpu_one(self, cell) for cell in cells)


@contextmanager
def scalar_pricing():
    """Every launch and CPU evaluation through the references, no caches.

    Covers what a campaign and the tuner reach in-process:
    ``LaunchPricer.price`` (``time_launch``, the tuner's pricers),
    ``GpuPricingModel``, ``CpuPricingModel`` and the pruning floor.
    """
    with perf.disabled(), \
            mock.patch.object(LaunchPricer, "price", _scalar_launch), \
            mock.patch.object(GpuPricingModel, "price_one", _scalar_gpu_one), \
            mock.patch.object(GpuPricingModel, "price", _scalar_gpu), \
            mock.patch.object(timing, "roofline_floor_seconds", roofline_floor_reference), \
            mock.patch.object(CpuPricingModel, "price_one", _scalar_cpu_one), \
            mock.patch.object(CpuPricingModel, "price", _scalar_cpu):
        yield
