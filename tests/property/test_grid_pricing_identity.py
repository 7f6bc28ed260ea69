"""Campaign-level identity: batched pricing never changes a result byte.

The tentpole guarantee of the batched cold path is that an entire
campaign — full SP+DP grid, every version, tuner options included —
serializes to exactly the same ``ResultSet.to_json()`` bytes whether
cells are priced through the vectorized ``repro.pricing`` models or
through the scalar reference implementations cell by cell, and whether
the engine runs in-process or on a worker pool.

The scalar world is forced by (a) ``perf.disabled()``, which bypasses
every memo tier, and (b) patching every launch and CPU pricing entry
the campaign reaches — ``LaunchPricer.price``, ``GpuPricingModel``,
``CpuPricingModel`` and the tuner's ``roofline_floor_seconds`` — onto
the independent scalar references of ``tests/pricing_oracle.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import perf
from repro.benchmarks.base import Precision, Version
from repro.benchmarks.registry import PAPER_ORDER
from repro.experiments.runner import run_grid
from tests.pricing_oracle import facade_rows, scalar_pricing

BOTH_PRECISIONS = (Precision.SINGLE, Precision.DOUBLE)


@pytest.fixture(autouse=True)
def _fresh_perf():
    perf.reset()
    yield
    perf.reset()


def _grid_json(*, benchmarks=PAPER_ORDER, versions=tuple(Version),
               precisions=BOTH_PRECISIONS, jobs=1, scalar=False, scale=0.1):
    perf.reset()
    if scalar:
        with scalar_pricing():
            rs = run_grid(benchmarks, versions=versions, precisions=precisions,
                          scale=scale, jobs=jobs, preprice=False)
    else:
        rs = run_grid(benchmarks, versions=versions, precisions=precisions,
                      scale=scale, jobs=jobs)
    return rs.to_json()


def test_full_grid_byte_identity_scalar_vs_batched():
    """Full SP+DP grid, all versions: scalar and batched bytes agree,
    in-process and across a 4-worker pool."""
    scalar = _grid_json(scalar=True)
    batched_inline = _grid_json()
    assert batched_inline == scalar
    batched_pool = _grid_json(jobs=4)
    assert batched_pool == scalar


def test_preprice_off_is_still_identical():
    perf.reset()
    on = run_grid(("vecop", "hist"), precisions=BOTH_PRECISIONS, scale=0.1).to_json()
    perf.reset()
    off = run_grid(
        ("vecop", "hist"), precisions=BOTH_PRECISIONS, scale=0.1, preprice=False
    ).to_json()
    assert on == off


@given(
    benchmarks=st.sets(st.sampled_from(PAPER_ORDER), min_size=1, max_size=2),
    versions=st.sets(st.sampled_from(list(Version)), min_size=1, max_size=4),
    precisions=st.sets(st.sampled_from(BOTH_PRECISIONS), min_size=1, max_size=2),
)
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_cell_subset_byte_identity(benchmarks, versions, precisions):
    """Any sub-grid prices to the same bytes scalar vs batched."""
    benchmarks = tuple(sorted(benchmarks))
    versions = tuple(v for v in Version if v in versions)
    precisions = tuple(p for p in BOTH_PRECISIONS if p in precisions)
    scalar = _grid_json(benchmarks=benchmarks, versions=versions,
                        precisions=precisions, scalar=True)
    batched = _grid_json(benchmarks=benchmarks, versions=versions,
                         precisions=precisions)
    assert batched == scalar


# ---------------------------------------------------------------------------
# design-space hypercube: stacked config axis vs the scalar references
# ---------------------------------------------------------------------------


_SOC_KNOBS = st.fixed_dictionaries(
    {},
    optional={
        "gpu_cores": st.sampled_from((1, 2, 4, 8)),
        "gpu_clock_hz": st.sampled_from((416e6, 533e6, 700e6)),
        "cpu_cores": st.sampled_from((1, 2, 4)),
        "cpu_clock_hz": st.sampled_from((1.0e9, 1.7e9)),
        "dram_gbps": st.sampled_from((6.4, 12.8, 16.5)),
        "register_file_scale": st.sampled_from((0.125, 0.5, 1.0, 2.0)),
        "rail_scale": st.sampled_from((0.5, 1.0, 2.0)),
    },
)


def _assert_rows_bitwise(stacked, reference):
    import numpy as np

    for field in stacked.__slots__:
        a = np.asarray(getattr(stacked, field))
        b = np.asarray(getattr(reference, field))
        if a.dtype == np.float64:
            # bitwise, not tolerance: inf lanes and signed zeros included
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), field
        else:
            assert np.array_equal(a, b), field


@given(knob_sets=st.lists(_SOC_KNOBS, min_size=1, max_size=4, unique_by=repr))
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_soc_configs_stacked_rows_match_facade(knob_sets):
    """Random SoCConfig subsets: every stacked row is bitwise the row the
    scalar references compute cell by cell for that config — including
    configs whose scaled register file makes candidates infeasible."""
    from repro.calibration.socspace import SoCConfig
    from repro.designspace import DesignSpace

    configs = [SoCConfig(name=f"p{i}", **knobs) for i, knobs in enumerate(knob_sets)]
    perf.reset()
    space = DesignSpace(benchmarks=("vecop", "red"), scale=0.1)
    for config in configs:
        _assert_rows_bitwise(space.stacked_rows(config), facade_rows(space, config))


def test_design_space_jobs_pool_matches_inline():
    """jobs=4 shards configs over a process pool; the reassembled points
    are exactly the jobs=1 points, which are exactly the points of the
    scalar reference rows."""
    from repro.calibration.socspace import config_grid
    from repro.designspace import DesignSpace, evaluate_space

    configs = config_grid(gpu_cores=(2, 4), register_file_scale=(0.25, 1.0))
    perf.reset()
    inline = evaluate_space(configs, benchmarks=("vecop", "hist"), scale=0.1, jobs=1)
    perf.reset()
    pooled = evaluate_space(configs, benchmarks=("vecop", "hist"), scale=0.1, jobs=4)
    assert pooled.points == inline.points

    space = DesignSpace(benchmarks=("vecop", "hist"), scale=0.1)
    reference = tuple(
        p for c in configs for p in space.points(c, facade_rows(space, c))
    )
    assert inline.points == reference
