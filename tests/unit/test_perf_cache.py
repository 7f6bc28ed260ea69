"""The memoization fast lane: cache mechanics, identity, transparency."""

import collections
import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro import Precision, Version, create, perf, run_version
from repro.compiler import CompileOptions, compile_kernel
from repro.compiler.options import NAIVE
from repro.errors import RegisterAllocationError, ReproError
from repro.experiments.engine import Campaign, CampaignSpec
from repro.experiments.runner import run_grid
from repro.ir.analysis import analyze
from repro.optimizations import autotune
from repro.optimizations.autotune import sweep


@pytest.fixture(autouse=True)
def _cold_lane():
    """Every test starts and ends with empty caches and zero counters."""
    perf.reset()
    yield
    perf.reset()


# ---------------------------------------------------------------------------
# MemoCache mechanics
# ---------------------------------------------------------------------------


def test_counters_track_hits_and_misses():
    c = perf.MemoCache("t")
    assert c.get_or_compute("a", lambda: 1) == 1
    assert c.get_or_compute("a", lambda: 2) == 1  # cached, compute ignored
    assert c.get_or_compute("b", lambda: 3) == 3
    assert c.stats.hits == 1
    assert c.stats.misses == 2
    assert c.stats.evictions == 0


def test_lru_eviction_past_maxsize():
    c = perf.MemoCache("t", maxsize=2)
    c.put("a", 1)
    c.put("b", 2)
    c.get("a")  # refresh a: b becomes least recently used
    c.put("c", 3)
    assert c.stats.evictions == 1
    assert c.get_or_compute("a", lambda: None) == 1  # survived (recently used)
    assert c.get_or_compute("c", lambda: None) == 3
    assert c.get_or_compute("b", lambda: "recomputed") == "recomputed"  # evicted


def test_exceptions_are_memoized_and_reraised():
    c = perf.MemoCache("t")
    calls = []

    def boom():
        calls.append(1)
        raise ReproError("nope")

    with pytest.raises(ReproError):
        c.get_or_compute("k", boom)
    with pytest.raises(ReproError):
        c.get_or_compute("k", boom)
    assert len(calls) == 1  # second raise came from the cache
    assert c.stats.hits == 1


def test_cached_error_keeps_no_caller_alive():
    """A memoized error must not pin the frames (and arguments) of the
    calls it was raised through, on the first raise or on a cached one."""
    c = perf.MemoCache("t")

    class Payload:
        pass

    def boom():
        raise RegisterAllocationError("too many registers", 80, 64)

    def caller(payload):
        try:
            c.get_or_compute("k", boom)
        except RegisterAllocationError as exc:
            return exc

    for _ in range(2):  # the computing raise, then the cached one
        payload = Payload()
        ref = weakref.ref(payload)
        exc = caller(payload)
        assert (str(exc), exc.registers_required, exc.register_limit) == (
            "too many registers", 80, 64,
        )
        del payload, exc
        gc.collect()
        assert ref() is None


def test_disabled_bypasses_cache_entirely():
    c = perf.MemoCache("t")
    c.put("k", "cached")
    with perf.disabled():
        assert not perf.is_enabled()
        assert c.get_or_compute("k", lambda: "fresh") == "fresh"
    assert perf.is_enabled()
    assert c.get_or_compute("k", lambda: "fresh") == "cached"


def test_reset_clears_registry_counters():
    perf.cache("x").get_or_compute(1, lambda: 1)
    assert perf.counters()["x"]["misses"] == 1
    perf.reset()
    assert perf.counters()["x"] == {"hits": 0, "misses": 0, "evictions": 0}


def test_counters_delta_drops_idle_caches():
    before = perf.counters()
    perf.cache("busy").get_or_compute(1, lambda: 1)
    perf.cache("idle")
    delta = perf.counters_delta(before, perf.counters())
    assert "busy" in delta
    assert "idle" not in delta


def test_counters_merge_sums_and_drops_zero():
    merged = perf.counters_merge(
        {"a": {"hits": 1, "evictions": 2}},
        {"a": {"hits": 2, "misses": 1}, "b": {"hits": 0}},
    )
    assert merged == {"a": {"hits": 3, "evictions": 2, "misses": 1}}


# ---------------------------------------------------------------------------
# content keys & digests
# ---------------------------------------------------------------------------


def test_content_key_handles_dict_bearing_dataclasses():
    @dataclasses.dataclass(frozen=True)
    class Cfg:
        table: dict

    a = perf.content_key(Cfg(table={"x": 1, "y": [2, 3]}))
    b = perf.content_key(Cfg(table={"y": [2, 3], "x": 1}))
    assert a == b
    assert hash(a) == hash(b)
    assert a != perf.content_key(Cfg(table={"x": 2, "y": [2, 3]}))


def test_digest_is_content_addressed():
    x = np.arange(8, dtype=np.float32)
    assert perf.digest(x) == perf.digest(x.copy())
    assert perf.digest(x) != perf.digest(x.astype(np.float64))
    assert perf.digest(x) != perf.digest(x[::-1].copy())
    # non-contiguous views digest by content, not layout
    y = np.arange(16, dtype=np.float32)[::2]
    assert perf.digest(y) == perf.digest(np.ascontiguousarray(y))


# ---------------------------------------------------------------------------
# memoized hot-path functions return identical objects
# ---------------------------------------------------------------------------


def test_compile_kernel_is_memoized():
    bench = create("vecop", scale=0.05)
    options = CompileOptions(vector_width=4, qualifiers=True)
    ir = bench.kernel_ir(options)
    first = compile_kernel(ir, options)
    again = compile_kernel(ir, options)
    assert again is first  # cache hit returns the same object
    assert perf.counters()["compile"]["hits"] >= 1


def test_analyze_is_memoized():
    bench = create("vecop", scale=0.05)
    ir = bench.kernel_ir(NAIVE)
    assert analyze(ir) is analyze(ir)
    assert perf.counters()["analysis"]["hits"] >= 1


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
    with perf.disabled():
        run_version(bench, version=Version.OPENCL_OPT)
    assert sweeps["vecop"] == 3


# ---------------------------------------------------------------------------
# transparency: the fast lane must not change any result
# ---------------------------------------------------------------------------


def test_run_grid_byte_identical_with_and_without_fast_lane():
    """The nine-benchmark SP+DP grid, memo on and off: same bytes, and
    every cell that ran verified."""
    kwargs = dict(precisions=(Precision.SINGLE, Precision.DOUBLE), scale=0.05)
    perf.reset()
    fast = run_grid(**kwargs)
    perf.reset()
    with perf.disabled():
        plain = run_grid(**kwargs).to_json()
    assert fast.to_json() == plain
    assert all(run.verified for run in fast.results.values() if run.ok)


def test_campaign_report_carries_memo_counters():
    campaign = Campaign(CampaignSpec(benchmarks=("vecop",), scale=0.05))
    campaign.run()
    report = campaign.report
    assert report.perf, "expected memo counter deltas on the report"
    assert "compile" in report.perf
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
