"""The per-instance memo, fresh compiles and mixes, and the tuner's held pick."""

import collections
import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro import Precision, Version, create, perf, run_version
from repro.compiler import CompileOptions, compile_kernel
from repro.compiler.options import NAIVE
from repro.experiments.engine import Campaign, CampaignSpec
from repro.experiments.runner import run_grid
from repro.ir.analysis import analyze
from repro.optimizations import autotune
from repro.optimizations.autotune import sweep


@pytest.fixture(autouse=True)
def _cold_lane():
    """Every test starts and ends with zero counters."""
    perf.reset()
    yield
    perf.reset()


# ---------------------------------------------------------------------------
# the per-instance memo and its counters
# ---------------------------------------------------------------------------


class _Instance:
    pass


def test_counters_track_hits_and_misses():
    obj = _Instance()
    assert perf.instance_memo(obj, "a", lambda: 1) == 1
    assert perf.instance_memo(obj, "a", lambda: 2) == 1  # memoized, compute ignored
    assert perf.instance_memo(obj, "b", lambda: 3) == 3
    assert perf.instance_memo(_Instance(), "a", lambda: 4) == 4  # per instance
    assert perf.counters() == {"functional": {"hits": 1, "misses": 3}}


def test_reset_clears_registry_counters():
    perf.instance_memo(_Instance(), "a", lambda: 1)
    assert perf.counters()["functional"]["misses"] == 1
    perf.reset()
    assert perf.counters() == {"functional": {"hits": 0, "misses": 0}}


def test_counters_delta_drops_idle_caches():
    before = perf.counters()
    perf.instance_memo(_Instance(), "a", lambda: 1)
    after = perf.counters()
    assert perf.counters_delta(before, after) == {"functional": {"hits": 0, "misses": 1}}
    assert perf.counters_delta(after, perf.counters()) == {}


def test_counters_merge_sums_and_drops_zero():
    merged = perf.counters_merge(
        {"a": {"hits": 1, "evictions": 2}},
        {"a": {"hits": 2, "misses": 1}, "b": {"hits": 0}},
    )
    assert merged == {"a": {"hits": 3, "evictions": 2, "misses": 1}}


# ---------------------------------------------------------------------------
# content digests
# ---------------------------------------------------------------------------


def test_digest_is_content_addressed():
    x = np.arange(8, dtype=np.float32)
    assert perf.digest(x) == perf.digest(x.copy())
    assert perf.digest(x) != perf.digest(x.astype(np.float64))
    assert perf.digest(x) != perf.digest(x[::-1].copy())
    # non-contiguous views digest by content, not layout
    y = np.arange(16, dtype=np.float32)[::2]
    assert perf.digest(y) == perf.digest(np.ascontiguousarray(y))


# ---------------------------------------------------------------------------
# compiles and mixes are computed afresh, and held by their callers only
# ---------------------------------------------------------------------------


def test_a_compiled_kernel_is_freed_once_its_caller_drops_it():
    bench = create("vecop", scale=0.05)
    options = CompileOptions(vector_width=4, qualifiers=True)
    compiled = compile_kernel(bench.kernel_ir(options), options)
    ref = weakref.ref(compiled)
    del compiled
    gc.collect()
    assert ref() is None


def test_mutating_a_mix_does_not_change_the_next_analysis():
    ir = create("vecop", scale=0.05).kernel_ir(NAIVE)
    first = analyze(ir)
    barriers, arith = first.barriers, dict(first.arith)
    first.barriers += 1.0
    first.arith.clear()
    again = analyze(ir)
    assert (again.barriers, dict(again.arith)) == (barriers, arith)
    assert arith


# ---------------------------------------------------------------------------
# the tuner's pick: one sweep per instance and platform
# ---------------------------------------------------------------------------


@pytest.fixture
def sweeps(monkeypatch):
    """``autotune.sweep`` calls, counted per benchmark name."""
    counts = collections.Counter()
    real = autotune.sweep

    def counted(bench, *args, **kwargs):
        counts[bench.name] += 1
        return real(bench, *args, **kwargs)

    monkeypatch.setattr(autotune, "sweep", counted)
    return counts


def test_governed_campaign_tunes_each_instance_once(sweeps):
    """An instance's Opt cells under three governors settle from one
    sweep, not one per governor."""
    spec = CampaignSpec(
        benchmarks=("vecop", "dmmm"),
        versions=(Version.OPENCL_OPT,),
        precisions=(Precision.SINGLE,),
        scale=0.05,
        governors=("fixed", "ondemand", "powersave"),
    )
    results = Campaign(spec).run(jobs=1)
    assert len(results.results) == 6
    assert all(run.ok for run in results.results.values())
    assert sweeps == {"vecop": 1, "dmmm": 1}


def test_a_replaced_platform_re_tunes(sweeps):
    bench = create("vecop", scale=0.05)
    first = run_version(bench, version=Version.OPENCL_OPT)
    run_version(bench, version=Version.OPENCL_OPT, governor="ondemand")
    assert sweeps["vecop"] == 1
    # an equal platform, but not the object the pick was tuned on
    bench.platform = dataclasses.replace(bench.platform)
    assert run_version(bench, version=Version.OPENCL_OPT) == first
    assert sweeps["vecop"] == 2


# ---------------------------------------------------------------------------
# the campaign report
# ---------------------------------------------------------------------------


def test_campaign_report_carries_memo_counters():
    campaign = Campaign(CampaignSpec(benchmarks=("vecop",), scale=0.05))
    campaign.run()
    report = campaign.report
    assert report.perf, "expected memo counter deltas on the report"
    assert "functional" in report.perf
    assert "compile" not in report.perf
    assert "memo (hits/misses):" in report.describe()


# ---------------------------------------------------------------------------
# satellites: ratios without a Serial baseline, sweep dedupe
# ---------------------------------------------------------------------------


def test_ratios_returns_none_when_serial_baseline_filtered_out():
    results = run_grid(benchmarks=("vecop",), scale=0.05)
    gpu_only = results.filter(versions=(Version.OPENCL,))
    assert gpu_only.ratios("vecop", Version.OPENCL, Precision.SINGLE) is None
    # and the unfiltered set still computes them
    assert results.ratios("vecop", Version.OPENCL, Precision.SINGLE) is not None


def test_sweep_dedupes_naive_already_in_tuning_space():
    bench = create("vecop", scale=0.05)
    space = [(NAIVE, None)] + list(bench.tuning_space())[:3]
    bench.tuning_space = lambda: iter(space)
    result = sweep(bench, include_naive=True)
    candidates = [(t.options, t.local_size) for t in result.trials]
    assert len(candidates) == len(set(candidates))
    assert candidates.count((NAIVE, None)) == 1
