"""Design-space hypercube: SoCConfig family, Pareto logic, key hygiene."""

from __future__ import annotations

import gc
import json
import math
import tracemalloc

import numpy as np
import pytest

from repro import perf
from repro.benchmarks.base import Precision
from repro.benchmarks.registry import create
from repro.calibration.exynos5250 import default_platform
from repro.calibration.socspace import (
    EXYNOS_5250,
    SoCConfig,
    config_digests,
    config_grid,
    default_space,
    load_configs,
)
from repro.compiler.regalloc import (
    HARD_REGISTER_LIMIT,
    fits_register_file,
    threads_for_scale,
)
from repro.designspace import (
    AGGREGATE,
    DesignPoint,
    DesignSpace,
    dominated,
    equal_energy_speedup,
    equal_time_energy,
    evaluate_space,
    export_frontier,
    frontier,
    opt_over_serial,
)
from repro.errors import CalibrationError, CLOutOfResources
from repro.pareto import strictly_dominates
from tests.pricing_oracle import config_grid_reference, digest_reference, frontier_reference


@pytest.fixture(autouse=True)
def _fresh_perf():
    perf.reset()
    yield
    perf.reset()


# ---------------------------------------------------------------------------
# SoCConfig family
# ---------------------------------------------------------------------------


def test_exynos_point_reproduces_default_platform_exactly():
    assert EXYNOS_5250.platform() == default_platform()


def test_soc_config_validates_ranges():
    with pytest.raises(CalibrationError):
        SoCConfig(name="bad", gpu_cores=0)
    with pytest.raises(CalibrationError):
        SoCConfig(name="bad", gpu_clock_hz=533.0)  # MHz-vs-Hz mistake
    with pytest.raises(CalibrationError):
        SoCConfig(name="bad", dram_gbps=12.8e9)  # bytes/s-vs-GB/s mistake
    with pytest.raises(CalibrationError):
        SoCConfig(name="")


def test_soc_digest_is_content_addressed():
    # name excluded: same hardware, different label -> same digest
    a = SoCConfig(name="a", gpu_cores=8)
    b = SoCConfig(name="b", gpu_cores=8)
    assert a.digest() == b.digest()
    # any knob change -> different digest
    knobs = {
        "gpu_cores": 8,
        "gpu_clock_hz": 700e6,
        "cpu_cores": 4,
        "cpu_clock_hz": 1.0e9,
        "dram_gbps": 16.5,
        "register_file_scale": 2.0,
        "rail_scale": 0.5,
    }
    digests = {EXYNOS_5250.digest()}
    for knob, value in knobs.items():
        d = SoCConfig(name="x", **{knob: value}).digest()
        assert d not in digests, knob
        digests.add(d)


def test_soc_digest_bytes_are_pinned():
    """A digest is the SHA-256 prefix of ``repr((mali, cpu, dram,
    rails))`` of the derived platform: pinned for the board, equal to
    the whole-platform reference over a knob sample (per config and
    batched), and moved by a base that differs outside the knobs."""
    import dataclasses

    assert EXYNOS_5250.digest() == "95063a522cb7122f"
    configs = config_grid(
        gpu_cores=(1, 8),
        gpu_clock_hz=(416e6, 700e6),
        cpu_cores=(1, 4),
        cpu_clock_hz=(1.0e9, 1.7e9),
        dram_gbps=(6.4, 16.5),
        register_file_scale=(0.5, 2.0),
        rail_scale=(0.5, 1.0),
    ) + (
        # equal to the board's knobs but rendered as ints
        SoCConfig(name="int-clock", gpu_clock_hz=533000000),
        SoCConfig(name="int-cores", gpu_cores=4.0, register_file_scale=1),
        EXYNOS_5250,
    )
    expected = tuple(digest_reference(c) for c in configs)
    assert tuple(c.digest() for c in configs) == expected
    assert config_digests(configs) == expected
    assert len(set(expected[-3:])) == 3

    base = default_platform()
    idle = dataclasses.replace(
        base, rails=dataclasses.replace(base.rails, board_idle_w=base.rails.board_idle_w + 0.5)
    )
    assert EXYNOS_5250.digest(idle) != EXYNOS_5250.digest()
    assert config_digests(configs, idle) == tuple(digest_reference(c, idle) for c in configs)


def test_config_grid_names_and_exynos_rename():
    grid = config_grid(gpu_cores=(2, 4), dram_gbps=(12.8,))
    assert [c.name for c in grid] == ["soc-g2", "exynos5250"]
    assert len(default_space()) == 64
    names = [c.name for c in default_space()]
    assert len(set(names)) == 64 and "exynos5250" in names


def test_config_grid_rejects_unknown_axis():
    with pytest.raises(CalibrationError):
        config_grid(warp_size=(32,))


def test_load_configs_roundtrip(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(
        json.dumps(
            {
                "configs": [{"name": "big", "gpu_cores": 8}],
                "grid": {"name_prefix": "p", "dram_gbps": [8.5, 16.5]},
            }
        )
    )
    configs = load_configs(path)
    assert [c.name for c in configs] == ["big", "p-8.5GBs", "p-16.5GBs"]
    path.write_text(json.dumps({"configs": [{"name": "x"}, {"name": "x"}]}))
    with pytest.raises(CalibrationError):
        load_configs(path)
    path.write_text(json.dumps({"unrelated": 1}))
    with pytest.raises(CalibrationError):
        load_configs(path)


#: the streamed grid of perfbench's ``design_space`` workload: 32,768
#: points, the board among them
LARGE_GRID = dict(
    gpu_cores=[1, 2, 3, 4, 6, 8, 12, 16],
    gpu_clock_hz=[300e6, 416e6, 533e6, 600e6, 700e6, 800e6, 900e6, 1e9],
    dram_gbps=[6.4, 8.5, 10.6, 12.8, 14.9, 16.5, 21.2, 25.6],
    rail_scale=[0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0],
    register_file_scale=[0.5, 1.0, 2.0, 4.0],
    cpu_cores=[2, 4],
)


@pytest.mark.timeout_guard(10)
def test_load_configs_finds_the_duplicate_in_a_large_grid(tmp_path):
    """An explicit ``exynos5250`` next to a grid holding the board: one
    duplicate among 32,769 names, counted once, not rescanned per name."""
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"configs": [{"name": "exynos5250"}], "grid": LARGE_GRID}))
    with pytest.raises(CalibrationError) as info:
        load_configs(path)
    assert str(info.value) == f"{path}: duplicate config names ['exynos5250']"


def test_load_configs_rejects_a_string_knob_value(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"grid": {"gpu_cores": ["4", 8]}}))
    with pytest.raises(CalibrationError) as info:
        load_configs(path)
    assert str(info.value) == f"{path}: bad grid: SoCConfig.gpu_cores='4' is not a real number"


def test_load_configs_rejects_a_bool_knob_value(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"grid": {"gpu_cores": [True, 8]}}))
    with pytest.raises(CalibrationError) as info:
        load_configs(path)
    assert str(info.value) == f"{path}: bad grid: SoCConfig.gpu_cores=True is not a real number"
    path.write_text(json.dumps({"configs": [{"name": "b", "cpu_cores": False}]}))
    with pytest.raises(CalibrationError) as info:
        load_configs(path)
    assert str(info.value) == f"{path}: bad config 'b': SoCConfig.cpu_cores=False is not a real number"


def test_knob_check_takes_numpy_reals_and_nothing_but_reals():
    config = SoCConfig(name="np", gpu_cores=np.int64(8), dram_gbps=np.float32(16.5))
    assert config.gpu_cores == 8 and type(config.gpu_cores) is np.int64
    axes = dict(gpu_cores=(np.int64(2), 8), rail_scale=(np.float64(0.5), 1.0))
    assert config_grid(**axes) == config_grid_reference(**axes)
    for bad in ("4", None, np.bool_(True), 4j, [4]):
        message = f"SoCConfig.gpu_cores={bad!r} is not a real number"
        with pytest.raises(CalibrationError) as info:
            SoCConfig(name="x", gpu_cores=bad)
        assert str(info.value) == message
        with pytest.raises(CalibrationError) as info:
            config_grid(gpu_cores=(2, bad))
        assert str(info.value) == message


def test_designspace_cli_reports_a_bad_config_file(tmp_path, capsys):
    from repro.__main__ import main

    path = tmp_path / "space.json"
    path.write_text(json.dumps({"grid": {"gpu_cores": ["4"]}}))
    assert main(["designspace", "--configs", str(path), "--sp-only", "--scale", "0.1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {path}: bad grid: SoCConfig.gpu_cores='4' is not a real number\n"
    )


@pytest.mark.parametrize(
    "text, reason",
    [
        (None, "cannot read: No such file or directory"),
        ('{"grid": ', "not valid JSON: Expecting value: line 1 column 10 (char 9)"),
    ],
    ids=["missing", "truncated"],
)
def test_designspace_cli_reports_an_unreadable_config_file(tmp_path, capsys, text, reason):
    from repro.__main__ import main

    path = tmp_path / "space.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(CalibrationError) as info:
        load_configs(path)
    assert str(info.value) == f"{path}: {reason}"
    assert main(["designspace", "--configs", str(path), "--sp-only", "--scale", "0.1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {reason}\n"


@pytest.mark.parametrize(
    "data, message",
    [
        ({"grid": {"gpu_cores": 4}}, "bad grid: axis 'gpu_cores' must be an array, got 4"),
        ({"grid": {"gpu_cores": "48"}}, "bad grid: axis 'gpu_cores' must be an array, got '48'"),
        ({"configs": {"name": "x"}}, "'configs' must be an array, got {'name': 'x'}"),
    ],
    ids=["scalar-axis", "string-axis", "configs-object"],
)
def test_load_configs_takes_only_arrays_of_values(tmp_path, data, message):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(data))
    with pytest.raises(CalibrationError) as info:
        load_configs(path)
    assert str(info.value) == f"{path}: {message}"


def test_config_grid_keeps_no_more_memory_than_the_constructor_loop():
    """A 4,096-config grid holds what the constructor loop's does: each
    config keeps CPython's shared-key attribute layout (a config given
    its own ``__dict__`` costs about 1.8 times as much)."""
    axes = {k: LARGE_GRID[k] for k in ("gpu_cores", "gpu_clock_hz", "dram_gbps", "rail_scale")}

    def retained(build):
        build(**axes)  # caches and free lists at their steady state
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            grid = build(**axes)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(grid) == 4096
        return held

    assert retained(config_grid) <= retained(config_grid_reference)


# ---------------------------------------------------------------------------
# register-file scaling
# ---------------------------------------------------------------------------


def test_register_scale_feasibility_and_occupancy():
    bench = create("nbody", precision=Precision.DOUBLE, scale=0.1)
    from repro.compiler.options import NAIVE
    from repro.compiler.pipeline import compile_kernel
    from repro.ocl.driver import default_quirks

    compiled = compile_kernel(bench.kernel_ir(NAIVE), NAIVE, quirks=default_quirks())
    report = compiled.registers
    # scale 1.0 is the historical bitwise path
    assert fits_register_file(report, 1.0)
    assert threads_for_scale(report, 1.0) == report.threads_per_core
    # a big enough file never loses occupancy; a tiny one loses it or
    # rejects the kernel outright
    assert threads_for_scale(report, 4.0) >= report.threads_per_core
    if fits_register_file(report, 0.25):
        assert threads_for_scale(report, 0.25) <= report.threads_per_core
    heavy = report.registers_128
    assert not fits_register_file(report, (heavy - 0.5) / HARD_REGISTER_LIMIT)


def test_launch_pricer_raises_on_register_exhaustion():
    import dataclasses

    from repro.compiler.options import NAIVE
    from repro.compiler.pipeline import compile_kernel
    from repro.mali.timing import LaunchPricer
    from repro.ocl.driver import default_quirks

    platform = default_platform()
    bench = create("nbody", precision=Precision.DOUBLE, scale=0.1)
    compiled = compile_kernel(bench.kernel_ir(NAIVE), NAIVE, quirks=default_quirks())
    scale = (compiled.registers.registers_128 - 0.5) / HARD_REGISTER_LIMIT
    tiny = dataclasses.replace(platform.mali, register_file_scale=scale)
    with pytest.raises(CLOutOfResources):
        LaunchPricer(
            compiled,
            bench.gpu_traits(NAIVE),
            tiny,
            platform.dram_model(),
            platform.gpu_caches(),
        )


# ---------------------------------------------------------------------------
# Pareto logic (synthetic points)
# ---------------------------------------------------------------------------


def _pt(name, seconds, energy, feasible=True, version="Opt"):
    return DesignPoint(
        config_name=name,
        benchmark=AGGREGATE,
        precision="single",
        version=version,
        seconds=seconds,
        watts=0.0 if not feasible else energy / seconds,
        energy_j=energy,
        feasible=feasible,
    )


def test_design_point_is_an_immutable_named_tuple():
    p = DesignPoint(
        config_name="a",
        benchmark=AGGREGATE,
        precision="single",
        version="Opt",
        seconds=1.0,
        watts=2.0,
        energy_j=2.0,
    )
    assert p.feasible is True  # the default
    fields = ("a", AGGREGATE, "single", "Opt", 1.0, 2.0, 2.0, True)
    assert p == fields and tuple(p) == fields and hash(p) == hash(fields)
    assert repr(p) == "DesignPoint(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(DesignPoint._fields, fields)
    ) + ")"
    with pytest.raises(AttributeError):
        p.seconds = 3.0
    moved = p._replace(seconds=3.0)
    assert type(moved) is DesignPoint and moved.seconds == 3.0 and p.seconds == 1.0


def test_dominates_is_strict_pareto():
    def dominates(a, b):
        return strictly_dominates(a.seconds, a.energy_j, b.seconds, b.energy_j)

    assert dominates(_pt("a", 1.0, 1.0), _pt("b", 2.0, 2.0))
    assert dominates(_pt("a", 1.0, 2.0), _pt("b", 2.0, 2.0))
    assert not dominates(_pt("a", 1.0, 1.0), _pt("b", 1.0, 1.0))  # equal
    assert not dominates(_pt("a", 1.0, 3.0), _pt("b", 2.0, 2.0))  # trade-off
    assert not dominates(_pt("b", 2.0, 2.0), _pt("a", 1.0, 3.0))


def test_frontier_is_deterministic_and_excludes_dominated():
    pts = [
        _pt("slow-frugal", 4.0, 1.0),
        _pt("fast-hungry", 1.0, 4.0),
        _pt("dominated", 4.0, 4.0),
        _pt("middle", 2.0, 2.0),
        _pt("broken", 0.1, 0.1, feasible=False),
    ]
    front = frontier(pts)
    assert [p.config_name for p in front] == ["fast-hungry", "middle", "slow-frugal"]
    assert frontier(list(reversed(pts))) == front  # order-independent
    dom = dominated(pts)
    assert [p.config_name for p in dom] == ["dominated"]
    # equal (seconds, energy) points both survive
    twins = [_pt("a", 1.0, 1.0), _pt("b", 1.0, 1.0)]
    assert [p.config_name for p in frontier(twins)] == ["a", "b"]


def test_dominated_compares_by_value_not_identity():
    """Satellite regression: ``dominated`` used to test frontier
    membership by object identity, so a value-equal *copy* of a frontier
    point was misfiled as dominated.  Membership is by sort key now."""
    import copy

    a = _pt("a", 1.0, 1.0)
    twin = copy.deepcopy(a)  # equal value, different object identity
    loser = _pt("loser", 2.0, 2.0)
    assert [p.config_name for p in dominated([a, twin, loser])] == ["loser"]
    assert [p.config_name for p in frontier([a, twin, loser])] == ["a", "a"]
    # iterator inputs are materialized once, not consumed twice
    assert [p.config_name for p in dominated(iter([a, loser]))] == ["loser"]
    # frontier + dominated partition the feasible points
    pts = [_pt(f"p{i}", float(1 + i % 3), float(3 - i % 3)) for i in range(9)]
    pts.append(_pt("broken", 0.1, 0.1, feasible=False))
    front, dom = frontier(pts), dominated(pts)
    assert len(front) + len(dom) == 9
    assert not set(map(id, front)) & set(map(id, dom))
    assert frontier_reference(pts) == front


def test_equal_energy_and_equal_time_queries():
    ref = _pt("ref", 2.0, 2.0, version="Serial")
    pts = [
        _pt("fast-hungry", 0.5, 3.0),   # faster but over the energy budget
        _pt("fast-frugal", 1.0, 1.5),
        _pt("slower-frugal", 1.6, 1.0),
        _pt("broken", 0.1, 0.1, feasible=False),
    ]
    speedup, best = equal_energy_speedup(pts, ref)
    assert best.config_name == "fast-frugal" and speedup == 2.0
    energy, best = equal_time_energy(pts, ref)
    assert best.config_name == "slower-frugal" and energy == 1.0
    assert equal_energy_speedup([_pt("x", 1.0, 9.9)], ref) is None
    assert equal_time_energy([_pt("x", 9.9, 1.0)], ref) is None


# ---------------------------------------------------------------------------
# hypercube evaluation
# ---------------------------------------------------------------------------


def test_opt_point_matches_tuner_estimate_exactly():
    space = DesignSpace(benchmarks=("vecop",), precisions=(Precision.SINGLE,),
                        scale=0.25)
    pts = space.points(EXYNOS_5250, space.stacked_rows(EXYNOS_5250))
    opt = next(p for p in pts if p.version == "Opt" and p.benchmark == "vecop")
    from repro.pricing.grid import estimate_opt_seconds

    bench = create("vecop", precision=Precision.SINGLE, scale=0.25)
    assert opt.seconds == estimate_opt_seconds(bench)


def test_evaluate_space_shapes_and_dp_collapse():
    configs = config_grid(register_file_scale=(0.125, 1.0))
    result = evaluate_space(configs, benchmarks=("nbody",), scale=0.1)
    # 2 configs x (3 bench versions + 3 aggregate) x 2 precisions
    assert len(result.points) == 2 * 6 * 2
    assert result.digests == tuple(c.digest() for c in configs)
    # the tiny register file kills the DP Opt (register exhaustion:
    # nbody DP's leanest candidate wants 7 x 128-bit registers, an
    # eighth of the file holds 4) but the measured point keeps it
    tiny_dp = result.point("soc-rf0.125", "nbody", "double", "Opt")
    base_dp = result.point("exynos5250", "nbody", "double", "Opt")
    assert not tiny_dp.feasible and math.isinf(tiny_dp.seconds)
    assert tiny_dp.watts == 0.0 and math.isinf(tiny_dp.energy_j)
    assert base_dp.feasible
    # infeasible Opt poisons that config's aggregate
    assert not result.point("soc-rf0.125", AGGREGATE, "double", "Opt").feasible
    assert result.point("soc-rf0.125", AGGREGATE, "double", "Serial").feasible
    # aggregate sums the per-benchmark points
    agg = result.point("exynos5250", AGGREGATE, "double", "Serial")
    per = result.point("exynos5250", "nbody", "double", "Serial")
    assert agg.seconds == per.seconds and agg.energy_j == per.energy_j

    data = result.to_dict()
    assert len(data["points"]) == len(result.points)
    row = next(r for r in data["points"]
               if r["config"] == "soc-rf0.125" and r["version"] == "Opt"
               and r["precision"] == "double" and r["benchmark"] == "nbody")
    assert row["seconds"] is None and row["feasible"] is False
    json.dumps(data)  # inf never leaks into the JSON form


def test_block_pass_times_each_mali_and_dram_setting_once():
    """The rail scale never enters launch timing: twelve configs over
    four (cores, clock) settings send four rows to the launch stack."""
    from unittest import mock

    from repro.mali.timing import GpuConfigStack

    configs = config_grid(
        gpu_cores=(1, 2), gpu_clock_hz=(300e6, 600e6), rail_scale=(0.5, 1.0, 2.0)
    )
    space = DesignSpace(benchmarks=("vecop",), precisions=(Precision.SINGLE,), scale=0.1)
    with mock.patch.object(
        GpuConfigStack, "block_rows", autospec=True, side_effect=GpuConfigStack.block_rows
    ) as spy:
        points = space.evaluate(configs)
    assert len(configs) == 12 and len(points) == 12 * len(space.slots)
    assert sum(len(call.args[1]) for call in spy.call_args_list) == 4


def _select_scan(result, benchmark, precision, version, feasible_only):
    return tuple(
        p
        for p in result.points
        if p.benchmark == benchmark
        and p.precision == precision
        and (version is None or p.version == version)
        and (not feasible_only or p.feasible)
    )


def test_select_equals_the_scan_on_every_slice():
    """A materialized result selects by slot offset, a streamed one by
    scanning: both return what a scan over every point returns."""
    from repro.designspace import VERSIONS

    configs = config_grid(gpu_cores=(2, 8), register_file_scale=(0.125, 1.0))
    benchmarks = ("vecop", "amcd")  # amcd DP has no Opt candidate
    materialized = evaluate_space(configs, benchmarks=benchmarks, scale=0.05)
    streamed = evaluate_space(configs, benchmarks=benchmarks, scale=0.05, stream=True)
    filtered = 0
    for result in (materialized, streamed):
        for benchmark in (*benchmarks, AGGREGATE, "nbody"):
            for precision in result.precisions:
                for version in (*VERSIONS, None):
                    for feasible_only in (False, True):
                        picked = result.select(benchmark, precision, version, feasible_only)
                        scan = _select_scan(result, benchmark, precision, version, feasible_only)
                        assert type(picked) is tuple and picked == scan
                        if feasible_only and scan != _select_scan(
                            result, benchmark, precision, version, False
                        ):
                            filtered += 1
    assert filtered  # the grid has infeasible points to filter out
    assert len(materialized.select(version=None)) == 3 * len(configs)


def test_evaluate_space_validates_inputs():
    with pytest.raises(ValueError):
        evaluate_space(())
    with pytest.raises(ValueError):
        evaluate_space((EXYNOS_5250, SoCConfig(name="exynos5250", gpu_cores=8)))


def test_opt_over_serial_matches_whatif_and_sensitivity():
    from repro.calibration.sensitivity import probe_speedups
    from repro.whatif import estimate_speedups, mali_t628_platform

    platforms = {"t604": default_platform(), "t628": mali_t628_platform()}
    sp = estimate_speedups("vecop", platforms, scale=0.1)
    assert set(sp) == {"t604", "t628"}
    direct = opt_over_serial("vecop", platforms, scale=0.1, serial="first")
    assert sp == direct
    with pytest.raises(ValueError):
        estimate_speedups("vecop", {})
    with pytest.raises(ValueError):
        opt_over_serial("vecop", platforms, serial="sometimes")
    probes = probe_speedups(default_platform(), benchmarks=("vecop",),
                            scale=0.1, model_only=True)
    assert probes["vecop"] > 0


def _count_draws(monkeypatch):
    """Count, per input name, how often a family record really draws."""
    from collections import Counter

    from repro.benchmarks.base import Draws

    drawn = Counter()
    take = Draws.take

    def counting_take(self, name, draw, at):
        def counted(rng):
            drawn[name] += 1
            return draw(rng)

        return take(self, name, counted, at)

    monkeypatch.setattr(Draws, "take", counting_take)
    return drawn


def test_platforms_share_one_draw_record(monkeypatch):
    """The platform variants of one benchmark draw its inputs once, and
    price exactly as fresh per-platform instances do.  spmv draws its
    row lengths in set-up; hist's set-up draws nothing at all."""
    from repro.pricing.grid import estimate_cpu_seconds, estimate_opt_seconds
    from repro.whatif import compare_platforms, estimate_speedups, mali_t628_platform

    drawn = _count_draws(monkeypatch)
    platforms = {"t604": default_platform(), "t628": mali_t628_platform()}
    assert estimate_speedups("hist", platforms, scale=0.1) and not drawn
    speedups = estimate_speedups("spmv", platforms, scale=0.1)
    assert drawn == {"row_lengths": 1}

    drawn.clear()
    perf.reset()
    fresh = {name: create("spmv", scale=0.1, platform=p) for name, p in platforms.items()}
    serial = estimate_cpu_seconds(fresh["t604"])
    assert speedups == {
        name: serial / estimate_opt_seconds(bench) for name, bench in fresh.items()
    }
    assert drawn == {"row_lengths": len(platforms)}  # fresh instances redraw

    drawn.clear()
    perf.reset()
    shared = compare_platforms("spmv", platforms, scale=0.05)
    assert len(drawn) > 1 and set(drawn.values()) == {1}
    for name, platform in platforms.items():
        perf.reset()
        alone = compare_platforms("spmv", {name: platform}, scale=0.05)
        assert shared.runs[name] == alone.runs[name]


# ---------------------------------------------------------------------------
# streaming evaluation: chunking, pruning, export, trace
# ---------------------------------------------------------------------------


def _stream_grid():
    return config_grid(
        gpu_cores=(2, 4, 8),
        rail_scale=(0.5, 1.0, 2.0),
        register_file_scale=(0.125, 1.0),
    )


def test_stream_matches_materialize_and_reports_counts():
    configs = _stream_grid()
    mat = evaluate_space(configs, benchmarks=("vecop",), scale=0.1)
    st = evaluate_space(
        configs, benchmarks=("vecop",), scale=0.1, stream=True, chunk_size=4
    )
    assert mat.mode == "materialize" and st.mode == "stream"
    for precision in ("single", "double"):
        assert st.frontier_points(precision) == mat.frontier_points(precision)
    # every config was either priced or provably skipped
    assert st.evaluated + st.pruned == len(configs)
    assert st.pruned > 0  # this grid has dominated / rf-infeasible configs
    assert st.chunk_size == 4
    # a chunk's survivors priced across several blocks: same result bytes
    from unittest import mock

    from repro import designspace

    with mock.patch.object(designspace, "BLOCK_SIZE", 1):
        small = evaluate_space(
            configs, benchmarks=("vecop",), scale=0.1, stream=True, chunk_size=4
        )
    assert json.dumps(small.to_dict()) == json.dumps(st.to_dict())
    assert st.target_benchmark == AGGREGATE and st.target_version == "Opt"
    # memory-model witness: far below the materialized space, never zero
    assert 0 < st.peak_resident < mat.peak_resident
    # the kept measured config retains its full point list (all versions)
    kept = [p for p in st.points if p.config_name == EXYNOS_5250.name]
    assert {p.version for p in kept} == {"Serial", "OpenMP", "Opt"}
    assert st.point(EXYNOS_5250.name, AGGREGATE, "single", "Serial").feasible
    # retained configs/digests stay aligned
    assert st.digests == tuple(c.digest() for c in st.configs)
    assert {p.config_name for p in st.points} <= {c.name for c in st.configs}

    text = st.describe()
    assert "mode=stream" in text and "peak resident points" in text
    assert f"{st.evaluated} evaluated, {st.pruned} pruned" in text
    data = st.to_dict()
    json.dumps(data)
    for key in ("mode", "evaluated", "pruned", "peak_resident", "chunk_size"):
        assert key in data


def test_stream_bounds_each_shard_in_one_call():
    """The bound pass runs once over the shard, not once per chunk."""
    from unittest import mock

    configs = _stream_grid()
    space = DesignSpace(benchmarks=("vecop",), scale=0.1)
    with mock.patch.object(
        DesignSpace, "opt_bounds", autospec=True, side_effect=DesignSpace.opt_bounds
    ) as spy:
        st = evaluate_space(
            configs, benchmarks=("vecop",), scale=0.1, stream=True, chunk_size=4,
            space=space,
        )
    assert st.pruned > 0 and len(configs) > 2 * 4  # several chunks, pruning on
    assert spy.call_count == 1
    assert tuple(spy.call_args.args[1]) == configs


def test_stream_bounds_a_last_group_without_candidates():
    """amcd has no double-precision Opt candidate (the paper's compiler
    defect): as the space's last group it bounds as infeasible instead
    of indexing past the candidate axis."""
    configs = config_grid(gpu_cores=(2, 4))
    st = evaluate_space(
        configs, benchmarks=("vecop", "amcd"), precisions=(Precision.DOUBLE,),
        scale=0.05, stream=True,
    )
    assert st.evaluated + st.pruned == len(configs)
    kept = st.select(precision="double")
    assert kept and not any(p.feasible for p in kept)


def test_stream_jobs_pool_matches_inline_bytes():
    configs = _stream_grid()
    perf.reset()
    inline = evaluate_space(
        configs, benchmarks=("vecop",), scale=0.1, stream=True, chunk_size=4
    )
    perf.reset()
    pooled = evaluate_space(
        configs, benchmarks=("vecop",), scale=0.1, stream=True, chunk_size=4, jobs=4
    )
    a, b = inline.to_dict(), pooled.to_dict()
    # evaluated/pruned may differ (each worker probes its own shard);
    # the surviving data must be byte-identical
    for key in ("points", "configs"):
        assert json.dumps(a[key]) == json.dumps(b[key]), key
    for precision in ("single", "double"):
        assert pooled.frontier_points(precision) == inline.frontier_points(precision)
    assert pooled.evaluated + pooled.pruned == len(configs)
    # points compare equal to plain tuples: pickled ones must stay records
    assert pooled.points and all(type(p) is DesignPoint for p in pooled.points)


def test_stream_single_benchmark_target_and_keep_override():
    configs = _stream_grid()
    st = evaluate_space(
        configs,
        benchmarks=("vecop", "hist"),
        scale=0.1,
        stream=True,
        chunk_size=7,
        target_benchmark="vecop",
        keep_configs=("soc-g2-rf1-rs0.5",),
    )
    mat = evaluate_space(configs, benchmarks=("vecop", "hist"), scale=0.1)
    for precision in ("single", "double"):
        assert st.frontier_points(precision) == frontier(
            mat.select(benchmark="vecop", precision=precision, version="Opt")
        )
    assert {p.version for p in st.points if p.config_name == "soc-g2-rf1-rs0.5"} == {"Serial", "OpenMP", "Opt"}


def test_stream_trace_events(tmp_path):
    from repro.experiments.trace import ListTraceSink, read_trace

    configs = _stream_grid()
    sink = ListTraceSink()
    evaluate_space(
        configs, benchmarks=("vecop",), scale=0.1, stream=True, chunk_size=5,
        trace=sink,
    )
    names = [e.event for e in sink.events]
    assert names[0] == "space_started" and names[-1] == "space_finished"
    chunks = [e for e in sink.events if e.event == "space_chunk_finished"]
    assert len(chunks) == -(-len(configs) // 5)  # ceil(n / chunk_size)
    assert sink.events[0].detail["configs"] == len(configs)
    for e in chunks:
        for key in ("configs", "evaluated", "pruned", "frontier", "resident_points"):
            assert key in e.detail
    # chunk events cover the whole shard except the frontier-seeding
    # probes (at most argmin-time + argmin-energy per precision),
    # which are priced before the chunked pass
    covered = sum(e.detail["evaluated"] + e.detail["pruned"] for e in chunks)
    probes = len(configs) - covered
    assert 0 <= probes <= 4

    # a path means an owned JSONL sink, parseable by read_trace
    trace_path = tmp_path / "space.jsonl"
    evaluate_space(
        configs[:6], benchmarks=("vecop",), scale=0.1, stream=True, chunk_size=3,
        trace=trace_path,
    )
    events = read_trace(trace_path)
    assert [e.event for e in events][0] == "space_started"
    assert events[-1].event == "space_finished"


def test_materialize_trace_path_gets_start_and_finish(tmp_path):
    """``trace`` is honoured without ``stream``: a JSONL path gets the
    space_started / space_finished envelope (no per-chunk events)."""
    from repro.experiments.trace import read_trace

    configs = _stream_grid()[:3]
    path = tmp_path / "space.jsonl"
    result = evaluate_space(configs, benchmarks=("vecop",), scale=0.1, trace=path)
    events = read_trace(path)
    assert [e.event for e in events] == ["space_started", "space_finished"]
    assert events[0].detail["configs"] == 3
    finished = events[-1].detail
    assert finished["evaluated"] == 3 and finished["pruned"] == 0
    assert finished["peak_resident"] == len(result.points)


def test_evaluate_space_reuses_a_prebuilt_space():
    configs = _stream_grid()[:4]
    space = DesignSpace(benchmarks=("vecop",), scale=0.1)
    direct = evaluate_space(configs, benchmarks=("vecop",), scale=0.1)
    reused = evaluate_space(configs, benchmarks=("vecop",), scale=0.1, space=space)
    assert reused.points == direct.points
    streamed = evaluate_space(
        configs, benchmarks=("vecop",), scale=0.1, stream=True, chunk_size=2,
        space=space,
    )
    assert streamed.frontier_points("single") == direct.frontier_points("single")
    # a space built for a different grid is rejected, not silently used
    with pytest.raises(ValueError):
        evaluate_space(configs, benchmarks=("vecop",), scale=0.25, space=space)
    with pytest.raises(ValueError):
        evaluate_space(configs, benchmarks=("vecop", "hist"), scale=0.1, space=space)


def test_stream_validates_inputs():
    configs = _stream_grid()[:2]
    with pytest.raises(ValueError):
        evaluate_space(configs, benchmarks=("vecop",), scale=0.1, stream=True,
                       chunk_size=0)
    with pytest.raises(ValueError):
        evaluate_space(configs, benchmarks=("vecop",), scale=0.1, stream=True,
                       target_version="Fastest")
    with pytest.raises(ValueError):
        evaluate_space(configs, benchmarks=("vecop",), scale=0.1, stream=True,
                       target_benchmark="nbody")  # not in benchmarks


def test_export_frontier_csv_and_json(tmp_path):
    import csv

    configs = _stream_grid()
    result = evaluate_space(configs, benchmarks=("vecop",), scale=0.1)
    digests = dict(zip((c.name for c in result.configs), result.digests))

    csv_path = tmp_path / "frontier.csv"
    n = export_frontier(result, csv_path)
    with csv_path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == n == sum(
        len(result.frontier_points(p)) for p in result.precisions
    )
    for row in rows:
        assert row["on_frontier"] == "True"
        assert row["digest"] == digests[row["config"]]
        assert row["benchmark"] == AGGREGATE and row["version"] == "Opt"
        float(row["seconds"]), float(row["energy_j"])  # parseable objectives

    json_path = tmp_path / "frontier.json"
    n_all = export_frontier(result, json_path, include_dominated=True)
    data = json.loads(json_path.read_text())
    assert data["benchmark"] == AGGREGATE and data["version"] == "Opt"
    assert len(data["points"]) == n_all > n
    flags = {p["on_frontier"] for p in data["points"]}
    assert flags == {True, False}
    on = [p for p in data["points"] if p["on_frontier"]]
    assert len(on) == n

    # explicit slice selection
    m = export_frontier(result, tmp_path / "serial.json", version="Serial")
    assert m == sum(
        len(frontier(result.select(precision=p, version="Serial")))
        for p in result.precisions
    )


def test_cli_designspace_stream_and_export(tmp_path, capsys):
    from repro.__main__ import main

    out_json = tmp_path / "space.json"
    front_csv = tmp_path / "front.csv"
    trace = tmp_path / "trace.jsonl"
    code = main([
        "designspace", "--sp-only", "--scale", "0.1", "--stream",
        "--chunk-size", "16", "--trace", str(trace),
        "--export-frontier", str(front_csv), "--output", str(out_json),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "mode=stream" in out and "Pareto frontier" in out
    # the frontier counts against every swept config, not the retained ones
    assert "of 64 swept configs):" in out
    assert "wrote" in out and "frontier rows" in out
    assert front_csv.exists() and trace.exists()
    data = json.loads(out_json.read_text())
    assert data["mode"] == "stream" and data["evaluated"] + data["pruned"] == 64
