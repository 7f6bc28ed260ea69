"""Campaign-level identity: the pricing stacks never change a result byte.

An entire campaign — full SP+DP grid, every version, tuner options
included — serializes to exactly the same ``ResultSet.to_json()`` bytes
whether cells are priced through the config-axis stacks of
``repro.pricing`` or through the scalar reference implementations cell
by cell, and whether the engine runs in-process or on a worker pool.

The scalar world is forced by patching the launch and CPU pricing
entries the campaign reaches — ``LaunchPricer.price`` and
``PlatformPricing.price_one`` — onto the independent scalar references
of ``tests/pricing_oracle.py``.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.benchmarks.base import Precision, Version
from repro.benchmarks.registry import PAPER_ORDER
from repro.experiments.runner import run_grid
from tests.pricing_oracle import facade_rows, points_reference, scalar_pricing

BOTH_PRECISIONS = (Precision.SINGLE, Precision.DOUBLE)


def _grid_json(*, benchmarks=PAPER_ORDER, versions=tuple(Version),
               precisions=BOTH_PRECISIONS, jobs=1, scalar=False, scale=0.1):
    if scalar:
        with scalar_pricing():
            rs = run_grid(benchmarks, versions=versions, precisions=precisions,
                          scale=scale, jobs=jobs)
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


def _row(rows, i):
    """Row ``i`` of a block's :class:`~repro.designspace.SpaceRows`."""
    from repro.designspace import SpaceRows

    return SpaceRows(**{name: getattr(rows, name)[i] for name in SpaceRows.__slots__})


#: an unsorted list mixing every knob the block pass groups by
_MIXED_KNOBS = [
    {"register_file_scale": 2.0, "dram_gbps": 16.5, "rail_scale": 0.5},
    {"cpu_cores": 4, "register_file_scale": 0.125},
    {},
    {"dram_gbps": 6.4, "cpu_cores": 1, "rail_scale": 2.0, "gpu_cores": 8},
    {"register_file_scale": 0.5, "dram_gbps": 16.5, "cpu_cores": 4, "rail_scale": 0.5},
]


@given(knob_sets=st.lists(_SOC_KNOBS, min_size=1, max_size=5, unique_by=repr))
@example(knob_sets=_MIXED_KNOBS)
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_soc_configs_stacked_rows_match_facade(knob_sets):
    """Random, unsorted SoCConfig lists priced in blocks, at the block
    constant and with it patched small so the list crosses block
    boundaries: every block row is bitwise the row the scalar references
    compute cell by cell for that config — including configs whose
    scaled register file makes candidates infeasible — and every
    config's points equal the group-by-group reference loop."""
    from repro import designspace
    from repro.calibration.socspace import SoCConfig
    from repro.designspace import DesignSpace

    configs = [SoCConfig(name=f"p{i}", **knobs) for i, knobs in enumerate(knob_sets)]
    space = DesignSpace(benchmarks=("vecop", "red"), scale=0.1)
    reference = [facade_rows(space, config) for config in configs]
    expected = [
        points_reference(space, config, rows) for config, rows in zip(configs, reference)
    ]
    for config, rows, pts in zip(configs, reference, expected):
        _assert_rows_bitwise(space.stacked_rows(config), rows)
        assert space.points(config, rows) == pts
    for block in (designspace.BLOCK_SIZE, 2):
        for start in range(0, len(configs), block):
            rows = space.block_rows(configs[start : start + block])
            for i, ref in enumerate(reference[start : start + block]):
                _assert_rows_bitwise(_row(rows, i), ref)
        with mock.patch.object(designspace, "BLOCK_SIZE", block):
            points = space.evaluate(configs)
        assert list(points) == [p for pts in expected for p in pts]


def _bits(points):
    """Each point with its floats as IEEE-754 bit patterns, so equality
    is bit for bit (signed zeros and infinities included)."""
    import struct

    return [
        (*p[:4], *(struct.pack("<d", x) for x in p[4:7]), p.feasible, type(p).__name__)
        for p in points
    ]


@pytest.mark.parametrize(
    "axes",
    [
        # runs that share every timing knob and differ only in the rail
        # scale, with and without candidates the register file rejects
        {"register_file_scale": (0.125, 1.0), "rail_scale": (0.5, 1.0, 2.0, 3.0)},
        # one GPU timing setting under every CPU setting
        {"cpu_cores": (1, 2, 4), "cpu_clock_hz": (1.0e9, 1.7e9)},
    ],
    ids=["rails", "cpu"],
)
def test_shared_timing_points_match_the_reference(axes):
    """Configs that share a (Mali, DRAM) setting share one timing row.
    Priced in blocks of 3, which split each run of shared-timing
    configs, the materialized points and the streamed points with every
    config kept are both bitwise the reference loop's over the scalar
    rows."""
    from repro import designspace
    from repro.calibration.socspace import config_grid
    from repro.designspace import DesignSpace, evaluate_space

    configs = config_grid(**axes)
    benchmarks = ("vecop", "red", "hist")
    space = DesignSpace(benchmarks=benchmarks, scale=0.1)
    expected = _bits(
        p for c in configs for p in points_reference(space, c, facade_rows(space, c))
    )
    names = [c.name for c in configs]
    with mock.patch.object(designspace, "BLOCK_SIZE", 3):
        materialized = evaluate_space(configs, benchmarks=benchmarks, scale=0.1, space=space)
        streamed = evaluate_space(
            configs, benchmarks=benchmarks, scale=0.1, space=space, stream=True,
            chunk_size=4, keep_configs=names,
        )
    assert _bits(materialized.points) == expected
    assert _bits(streamed.points) == expected
