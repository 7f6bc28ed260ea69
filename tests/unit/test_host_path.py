"""The zero-copy host path of §III-A, on the functional side too.

A GPU cell stages each input as a ``READ_ONLY`` ``ALLOC_HOST_PTR``
buffer over the instance's own array (no copy), binds each kernel's
buffers by its IR parameter names, verifies its result in the output
buffer's read mapping (no copy out), and prices exactly what a copying
host would; a wrong kernel function fails its cell.  Serial and OpenMP
keep one verdict, not the functional array, and a campaign runs each
family's double-precision group first so the float64 draws die before
the single-precision cast.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from repro import PAPER_ORDER, Precision, create
from repro.benchmarks.base import Draws, Fill, Launch, Version, run_gpu_version, run_version
from repro.benchmarks.vecop import VecOp
from repro.compiler.options import NAIVE
from repro.errors import CLBuildProgramFailure
from repro.experiments import Campaign, CampaignSpec, ListTraceSink
from repro.experiments.engine import RunTask, _safe_run
from repro.ocl.buffer import Buffer
from repro.ocl.context import Context
from repro.ocl.device import mali_t604
from repro.ocl.enums import MapFlag, MemFlag
from repro.ocl.queue import CommandQueue
from repro.optimizations.autotune import candidates

SCALE = 0.02
BOTH = (Precision.SINGLE, Precision.DOUBLE)

#: every (benchmark, precision) whose naive program builds; amcd DP is
#: the paper's driver failure and never gets buffers
BUILDS = [
    (name, precision)
    for name in PAPER_ORDER
    for precision in BOTH
    if not (name == "amcd" and precision is Precision.DOUBLE)
]


def _setup(bench, options=NAIVE):
    ctx = Context(mali_t604(bench.platform))
    queue = CommandQueue(ctx)
    return ctx, queue, bench.gpu_setup(ctx, queue, options)


def _instance_arrays(bench) -> list[np.ndarray]:
    return [v for v in vars(bench).values() if isinstance(v, np.ndarray)]


def copying_alloc_mapped(ctx, queue, data=None, shape=None, dtype=None):
    """The staging a copying host does: write the input into the map."""
    flags = MemFlag.READ_WRITE | MemFlag.ALLOC_HOST_PTR
    if data is None:
        return Buffer(ctx, flags, shape=shape, dtype=dtype)
    buf = Buffer(ctx, flags, hostbuf=data)
    view, _ = queue.enqueue_map_buffer(buf, MapFlag.WRITE)
    view[...] = data
    queue.enqueue_unmap_mem_object(buf)
    return buf


def _event_rows(events) -> list[tuple]:
    return [(e.command_type, e.info.get("bytes"), e.end_s - e.start_s) for e in events]


@pytest.mark.parametrize("name,precision", BUILDS)
def test_inputs_are_read_only_views_and_outputs_share_nothing(name, precision):
    bench = create(name, precision=precision, scale=SCALE)
    option_points = [NAIVE]
    if name == "hist":  # the privatized variant adds a partials buffer
        option_points.append(next(iter(bench.tuning_space()))[0])
    for options in option_points:
        ctx, _, state = _setup(bench, options)
        buffers = list(state["buffers"].values())
        views = [b.device_view() for b in buffers]
        inputs = [b.flags & MemFlag.READ_ONLY for b in buffers]
        assert any(inputs)
        assert not (bench.gpu_result(state).flags & MemFlag.READ_ONLY)
        owned = _instance_arrays(bench)
        for i, (buf, view) in enumerate(zip(buffers, views)):
            assert buf.zero_copy
            if inputs[i]:
                assert not view.flags.writeable
                assert any(np.shares_memory(view, a) for a in owned)
            else:
                assert view.flags.writeable
                others = owned + views[:i] + views[i + 1 :]
                assert not any(np.shares_memory(view, a) for a in others)
        ctx.release()


@pytest.mark.parametrize("name,precision", BUILDS)
def test_kernels_bind_their_buffers_by_parameter_name(name, precision):
    """At every options point the tuner can pick, each declared launch's
    kernel takes the buffers its IR parameters name, every fill names a
    staged buffer, and the result is the last launch's last parameter."""
    bench = create(name, precision=precision, scale=SCALE)
    built = 0
    for options in dict.fromkeys(o for o, _ in candidates(bench, include_naive=True)):
        try:
            ctx, _, state = _setup(bench, options)
        except CLBuildProgramFailure:
            continue
        built += 1
        buffers = state["buffers"]
        cells = bench.iteration_cells(options, None)
        launches = [c for c in cells if isinstance(c, Launch)]
        for cell in launches:
            args = state["kernels"][cell.ir.name].bound_args()
            assert len(args) == len(cell.ir.params)
            for arg, param in zip(args, cell.ir.params):
                assert arg is buffers[param.name], (options, cell.ir.name, param.name)
        assert all(c.buffer in buffers for c in cells if isinstance(c, Fill))
        assert bench.gpu_result(state) is buffers[launches[-1].ir.params[-1].name]
        ctx.release()
    assert built


def _corrupting(func):
    """``func``, then one wrong element in its last argument."""

    def wrong(*views):
        func(*views)
        out = views[-1]
        if out.dtype.kind == "f":
            out.flat[0] = np.nan
        else:
            out.flat[0] += 1

    return wrong


@pytest.mark.parametrize("precision", BOTH)
@pytest.mark.parametrize("name", PAPER_ORDER)
def test_a_wrong_kernel_fails_its_cell(name, precision):
    """Every GPU cell that runs verifies what its kernels wrote: a
    kernel function that corrupts one output element fails it."""
    bench = create(name, precision=precision, scale=SCALE)
    funcs = bench.kernel_funcs()
    bench.kernel_funcs = lambda: {ir: _corrupting(f) for ir, f in funcs.items()}
    for version in (Version.OPENCL, Version.OPENCL_OPT):
        run = run_version(bench, version=version)
        if (name, precision) in BUILDS:
            assert run.ok and not run.verified, (version, run.failure)
        else:  # the modeled build failure stays what it was
            clean = run_version(create(name, precision=precision, scale=SCALE), version=version)
            assert not run.ok and run.failure_kind is None and run.failure == clean.failure


class _InputWriter(VecOp):
    """A kernel function that also writes into its input ``a``."""

    def kernel_funcs(self):
        def vecop_add(a, b, c):
            np.add(a, b, out=c)
            a += 1.0

        return {"vecop_add": vecop_add}


def test_a_kernel_writing_its_input_fails_the_cell():
    bench = _InputWriter(scale=SCALE)
    before = np.array(bench.a, copy=True)
    with pytest.raises(ValueError, match="read-only"):
        run_gpu_version(bench, NAIVE, None)
    task = RunTask(bench.name, Version.OPENCL, Precision.SINGLE, SCALE, bench.seed)
    run = _safe_run(bench, task)
    assert not run.ok and run.crashed and not run.verified
    assert "read-only" in run.failure
    assert np.array_equal(bench.a, before)


@pytest.mark.parametrize("name", PAPER_ORDER)
def test_shared_staging_prices_what_a_copying_host_does(name, monkeypatch):
    shared = create(name, scale=SCALE)
    shared_setup = _event_rows(_setup(shared)[1].events)
    shared_runs = [run_version(shared, version=v) for v in (Version.OPENCL, Version.OPENCL_OPT)]

    monkeypatch.setattr(sys.modules[type(shared).__module__], "alloc_mapped", copying_alloc_mapped)
    copied = create(name, scale=SCALE)
    copied_setup = _event_rows(_setup(copied)[1].events)
    copied_runs = [run_version(copied, version=v) for v in (Version.OPENCL, Version.OPENCL_OPT)]

    assert any(row[0].value == "map_buffer" for row in shared_setup)
    assert shared_setup == copied_setup
    for ours, theirs in zip(shared_runs, copied_runs):
        assert ours.verified and theirs.verified
        assert _event_rows(ours.diagnostics["events"]) == _event_rows(theirs.diagnostics["events"])
        assert (ours.elapsed_s, ours.energy_j) == (theirs.elapsed_s, theirs.energy_j)


def test_cpu_versions_keep_the_verdict_not_the_array():
    bench = create("vecop", scale=SCALE)
    alive = []
    functional_result = bench.functional_result

    def counted():
        result = functional_result()
        alive.append(weakref.ref(result))
        return result

    bench.functional_result = counted
    assert run_version(bench, version=Version.SERIAL).verified
    assert run_version(bench, version=Version.OPENMP).verified
    gc.collect()
    assert len(alive) == 1
    assert alive[0]() is None
    assert bench.__dict__["_perf_memo"]["verify_functional"] is True


def _old_plan_families(pending):
    """Family planning in the spec's precision order."""
    families: dict = {}
    for task, key in pending:
        family = families.setdefault(task.benchmark, {})
        family.setdefault(task.precision, []).append((task, key))
    return {name: list(groups.values()) for name, groups in families.items()}


@pytest.mark.timeout_guard(300)
@pytest.mark.parametrize("jobs", (1, 2))
def test_families_run_their_double_group_first(jobs, monkeypatch):
    spec = CampaignSpec(benchmarks=("vecop", "red", "hist"), scale=SCALE, precisions=BOTH)
    sink = ListTraceSink()
    results = Campaign(spec, trace=sink).run(jobs=jobs)
    started = [e for e in sink.events if e.event == "started"]
    assert len(started) == spec.size
    for name in spec.benchmarks:
        order = [e.precision for e in started if e.benchmark == name]
        assert order == ["double"] * 4 + ["single"] * 4, name

    monkeypatch.setattr(Campaign, "_plan_families", staticmethod(_old_plan_families))
    sink = ListTraceSink()
    old = Campaign(spec, trace=sink).run(jobs=jobs)
    started = [e for e in sink.events if e.event == "started"]
    assert [e.precision for e in started if e.benchmark == "vecop"][0] == "single"
    assert results.to_json() == old.to_json()


def test_float64_draws_die_before_the_single_group_computes(monkeypatch):
    """Once the single-precision instance has cast its inputs, no float64
    draw is alive: the record forgot each one at its last take, and the
    double group that computed on them is gone."""
    drawn = []
    take = Draws.take

    def tracked_take(self, name, draw, at):
        array = take(self, name, draw, at)
        drawn.append(weakref.ref(array))
        return array

    alive_after_cast = []
    draw_inputs = VecOp.draw_inputs

    def tracked_draw_inputs(self):
        inputs = draw_inputs(self)
        if self.precision is Precision.SINGLE:
            alive_after_cast.append({id(ref()) for ref in drawn if ref() is not None})
        return inputs

    monkeypatch.setattr(Draws, "take", tracked_take)
    monkeypatch.setattr(VecOp, "draw_inputs", tracked_draw_inputs)
    spec = CampaignSpec(benchmarks=("vecop",), scale=SCALE, precisions=BOTH)
    assert all(run.verified for run in Campaign(spec).run(jobs=1).results.values())
    assert len(drawn) == 4 and alive_after_cast == [set()]


#: family peak over float64 input bytes, per benchmark: each bound sits
#: below the ratio the whole-array numerics reached (vecop 2.08, red
#: 2.00, hist 3.51, 2dcon 4.02, 3dstc 6.76) and above the block-wise one
#: (1.55, 1.52, 1.70, 3.16, 3.51), all at scale 0.25
PEAK_OVER_INPUTS = {"vecop": 1.75, "red": 1.75, "hist": 2.0, "2dcon": 3.5, "3dstc": 4.0}


@pytest.mark.parametrize("name", tuple(PEAK_OVER_INPUTS))
def test_family_peak_stays_near_its_float64_inputs(name):
    """A two-precision family holds its float64 inputs, its output and a
    memoized result, but no staged copy, read-back, kept functional
    array or full-size scratch: every other temporary is one block.
    tracemalloc sees every NumPy data allocation."""
    spec = CampaignSpec(benchmarks=(name,), scale=0.25, precisions=BOTH)
    probe = create(name, precision=Precision.DOUBLE, scale=0.25)
    for attr in probe.lazy_inputs:
        getattr(probe, attr)
    inputs = sum(a.nbytes for a in _instance_arrays(probe))
    del probe
    gc.collect()
    tracemalloc.start()
    try:
        results = Campaign(spec).run(jobs=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(run.ok and run.verified for run in results.results.values())
    bound = PEAK_OVER_INPUTS[name]
    assert peak <= bound * inputs, (
        f"peak {peak / 2**20:.1f} MiB, inputs {inputs / 2**20:.1f} MiB, ratio {peak / inputs:.2f}"
    )
