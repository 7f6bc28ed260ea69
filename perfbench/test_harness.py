"""Tests of the perfbench harness itself (not of repro).

Run from the repository root::

    python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import metrics  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402

NAME_CHARSET = r"[A-Za-z0-9_.-]+"


def _span(sid, parent, start, end, name="x", tag=None):
    return Span(sid, parent, name, start, end, tag)


# ---------------------------------------------------------------------------
# self-time arithmetic
# ---------------------------------------------------------------------------


def test_self_time_of_nested_spans():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 3.0),
        _span(3, 2, 2.0, 2.5),
        _span(4, 1, 5.0, 9.0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({1: 4.0, 2: 1.5, 3: 0.5, 4: 4.0})
    # a properly nested tree: self times sum to the root's duration
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 3.0, 6.0),  # overlaps its sibling (another thread)
        _span(4, 1, 6.0, 7.0),  # touches it
    ]
    assert tracing.self_times(spans)[1] == pytest.approx(10.0 - 6.0)


def test_self_time_clips_children_to_the_parent():
    spans = [_span(1, None, 0.0, 10.0), _span(2, 1, 8.0, 12.0), _span(3, 1, -1.0, 1.0)]
    assert tracing.self_times(spans)[1] == pytest.approx(7.0)


def test_tag_totals_partition_tagged_time():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 5.0, tag="cell=a"),
        _span(3, 2, 2.0, 3.0, tag="cell=a"),
        _span(4, 1, 5.0, 9.0, tag="cell=b"),
    ]
    assert tracing.tag_totals(spans) == pytest.approx({"cell=a": 4.0, "cell=b": 4.0})


def test_covered_handles_empty_and_degenerate_intervals():
    assert tracing.covered([], 0.0, 1.0) == 0.0
    assert tracing.covered([(0.5, 0.5), (2.0, 3.0)], 0.0, 1.0) == 0.0
    assert tracing.covered([(0.0, 0.2), (0.1, 0.4), (0.6, 0.8)], 0.0, 1.0) == pytest.approx(0.6)


def test_recorder_nesting_and_phase_totals():
    ticks = iter(range(100))
    recorder = tracing.Recorder(clock=lambda: float(next(ticks)))

    def leaf():
        return "leaf"

    def middle():
        recorder.call("inner", leaf, (), {}, "cell=a/b/c")
        return recorder.call("inner", leaf, (), {})

    assert recorder.call("op", middle, (), {}) == "leaf"
    by_name = {s.name: s for s in recorder.spans}
    assert by_name["op"].parent is None
    inner = [s for s in recorder.spans if s.name == "inner"]
    assert {s.parent for s in inner} == {by_name["op"].sid}
    assert inner[0].tag == "cell=a/b/c"
    totals = tracing.layer_totals(recorder.spans, under="op")
    op_duration = by_name["op"].end - by_name["op"].start
    assert sum(t.self_s for t in totals.values()) == pytest.approx(op_duration)
    assert totals["inner"].calls == 2
    assert tracing.layer_totals(recorder.spans, under="setup") == {}


def test_recorder_round_trips_through_its_file(tmp_path):
    recorder = tracing.Recorder()
    recorder.call("op", lambda: None, (), {})
    recorder.count("bytes", 3)
    recorder.dump(tmp_path / "spans.jsonl")
    spans, counters = tracing.load(tmp_path / "spans.jsonl")
    assert spans == recorder.spans
    assert counters == {"bytes": 3}


# ---------------------------------------------------------------------------
# metric names
# ---------------------------------------------------------------------------


def _catalog():
    return [name for name, _, _ in metrics.END_TO_END] + [name for name, _, _ in metrics.PER_LAYER]


def test_metric_names_follow_the_grammar():
    import re

    names = _catalog()
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(NAME_CHARSET, name), name
        assert metrics.METRIC_NAME.match(name), name


def test_metric_grammar_rejects_bad_names():
    for bad in ("", "_leading", "has space", "slash/name", "x" * 65, "ünicode"):
        assert not metrics.METRIC_NAME.match(bad), bad


def test_benchmark_json_matches_the_catalog():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(metrics.PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert metrics.tail(list(range(19))) is None
    assert metrics.tail(list(range(20)))[0] == 50.0
    assert metrics.tail(list(range(100)))[0] == 90.0
    assert metrics.tail(list(range(1000)))[0] == 99.0


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def test_every_wrapper_is_removed_after_a_traced_run():
    import repro  # noqa: F401
    import repro.benchmarks.reduction as reduction
    import repro.experiments.engine as engine
    from repro import perf
    from repro.benchmarks import base

    originals = {
        "digest": perf.digest,
        "run_version": engine.run_version,
        "verify": base.Benchmark.__dict__["verify"],
        "red_verify": reduction.Reduction.__dict__["verify"],
    }
    recorder = tracing.Recorder()
    installation = tracing.install(recorder)
    try:
        assert perf.digest is not originals["digest"]
        assert engine.run_version is not originals["run_version"]
        assert base.run_version is engine.run_version  # every binding site
        assert reduction.Reduction.__dict__["verify"] is not originals["red_verify"]
        assert tracing.installed_wrappers()
        perf.digest(b"x")
        assert [s.name for s in recorder.spans] == ["perf.digest"]
    finally:
        installation.remove()
    assert tracing.installed_wrappers() == []
    assert perf.digest is originals["digest"]
    assert engine.run_version is originals["run_version"]
    assert base.Benchmark.__dict__["verify"] is originals["verify"]
    assert reduction.Reduction.__dict__["verify"] is originals["red_verify"]
    perf.digest(b"x")
    assert len(recorder.spans) == 1  # untraced calls record nothing


def test_wrapper_cost_is_positive_and_small():
    cost = tracing.wrapper_cost(calls=2000, batches=3)
    assert 0 < cost < 1e-3


def test_every_target_is_wrapped_where_it_is_defined():
    import importlib

    import repro  # noqa: F401

    installation = tracing.install(tracing.Recorder())
    try:
        for target in tracing.TARGETS:
            module = importlib.import_module(target.module)
            owner_name, _, attr = target.qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            assert "perfbench_span" in vars(vars(owner)[attr]), target
    finally:
        installation.remove()


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def _grid(seed=1):
    """A two-cell DP amcd campaign: Serial runs, OpenCL is the paper's failure."""
    import repro.experiments as exp
    from repro.benchmarks.base import Precision, Version

    spec = exp.CampaignSpec(
        benchmarks=("amcd",), versions=(Version.SERIAL, Version.OPENCL),
        precisions=(Precision.DOUBLE,), scale=0.05, seed=seed,
    )
    return spec, exp.Campaign(spec).run(jobs=1)


def test_grid_gate_accepts_the_modeled_failures_only():
    import dataclasses

    import workloads

    spec, results = _grid()
    assert workloads.grid_problems(spec, results) == []
    key = next(k for k, run in results.results.items() if run.ok)
    results.results[key] = dataclasses.replace(results.results[key], verified=False)
    assert len(workloads.grid_problems(spec, results)) == 1
    failed = next(k for k, run in results.results.items() if not run.ok)
    del results.results[failed]
    assert len(workloads.grid_problems(spec, results)) == 2


def test_row_mismatches_name_the_changed_cell():
    import workloads

    _, results = _grid()
    text = results.to_json()
    data = json.loads(text)
    data["runs"][0]["energy_j"] = 1.0
    changed = json.dumps(data, indent=2)
    assert workloads.row_mismatches(text, text) == []
    assert len(workloads.row_mismatches(changed, text)) == 1


def test_grid_cold_gates_its_warm_and_resumed_passes(tmp_path):
    """The warm rerun and the journal resume must reproduce the cold
    pass byte for byte and serve every cell without executing it."""
    import dataclasses

    import workloads

    ctx = workloads.Context(seed=1, work=tmp_path, index=0)
    cold = workloads.GridCold()
    cold.setup(ctx)
    cold.spec = workloads.grid_spec(1, 0.05)  # the full grid, small inputs
    output = cold.op()
    assert cold.check(ctx, output).problems == []
    first, (warm, warm_report), (resumed, resumed_report), text = output
    key = next(iter(warm.results))
    warm.results[key] = dataclasses.replace(warm.results[key], energy_j=-1.0)
    resumed_report = dataclasses.replace(resumed_report, replayed=0)
    problems = cold.check(ctx, (first, (warm, warm_report), (resumed, resumed_report), text)).problems
    assert len(problems) == 2
    assert problems[0].startswith("warm ")
    assert problems[1].startswith("resumed: 0 of 72")


def test_materialized_digest_sees_every_point():
    import workloads

    points = [
        SimpleNamespace(config_name=f"c{i}", benchmark="b", precision="single", version="Opt",
                        seconds=1.0 + i, energy_j=2.0)
        for i in range(3)
    ]
    digest = workloads.points_digest(points)
    assert workloads.points_digest(points) == digest
    points[2].energy_j = 2.5
    assert workloads.points_digest(points) != digest


def test_frontier_gate_flags_a_dominated_streamed_point():
    import workloads

    def config(name, cores):
        return SimpleNamespace(
            name=name, gpu_cores=cores, gpu_clock_hz=1.0, cpu_cores=2, cpu_clock_hz=1.0,
            dram_gbps=1.0, register_file_scale=1.0, rail_scale=1.0,
        )

    def point(name, seconds, energy):
        return SimpleNamespace(
            config_name=name, benchmark="aggregate", precision="single", version="Opt",
            seconds=seconds, watts=1.0, energy_j=energy, feasible=True,
        )

    good, bad = point("m1", 1.0, 1.0), point("m2", 2.0, 2.0)
    materialized = SimpleNamespace(
        configs=[config("m1", 1), config("m2", 2)], points=[good, bad],
        select=lambda precision: [good, bad],
    )
    agreeing = SimpleNamespace(configs=[config("s1", 1)], points=[point("s1", 1.0, 1.0)])
    fronts = {"single": ([good], [point("s1", 1.0, 1.0)])}
    assert workloads.frontier_problems(materialized, agreeing, fronts) == []
    dominated = SimpleNamespace(configs=[config("s2", 2)], points=[point("s2", 2.0, 2.0)])
    fronts = {"single": ([good], [point("s2", 2.0, 2.0)])}
    problems = workloads.frontier_problems(materialized, dominated, fronts)
    assert any("strictly dominated" in p for p in problems)
    assert any("not weakly dominated" in p for p in problems)


def test_the_command_exits_nonzero_when_a_check_fails(tmp_path):
    """A crash injected into one cell fails the gate and the exit code."""
    from repro.benchmarks.base import Version
    from repro.experiments import faults

    crash = faults.FaultSpec(benchmark="vecop", version=Version.SERIAL.value, times=-1)
    with faults.injected(crash, state_dir=tmp_path / "faults"):
        env = dict(os.environ)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "grid_distributed",
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 1, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is False and result["failed"] > 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
