"""``config_grid`` builds exactly the configs of one constructor call per point.

:func:`repro.calibration.socspace.config_grid` checks each axis value
and renders its name token once per axis, then fills every config field
by field.  ``config_grid_reference`` (``tests/pricing_oracle.py``) is
the loop it replaced: one ``SoCConfig(name=..., **knobs)`` call per
point.  Over drawn grids — any subset of the seven knobs, 1–8 values
each, ``int`` and ``float`` spellings of the same value, with and
without the board point, custom name prefixes — every config must
agree in ``==``, ``hash``, ``repr``, name, attribute order, pickle bytes
and content digest, and every bad grid must raise the reference's
``CalibrationError`` message.
"""

from __future__ import annotations

import math
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.calibration.socspace import (
    _RANGES,
    EXYNOS_5250,
    SoCConfig,
    config_digests,
    config_grid,
)
from repro.errors import CalibrationError
from tests.pricing_oracle import config_grid_reference

KNOBS = tuple(_RANGES)

#: at most this many points per drawn grid
BUDGET = 256


def _spelled(value):
    """``value`` as an ``int`` or a ``float`` when it is integral."""
    if math.isfinite(value) and float(value).is_integer():
        return st.sampled_from((int(value), float(value)))
    return st.just(value)


def _in_range(knob):
    lo, hi = _RANGES[knob]
    common = st.sampled_from(
        {
            "gpu_cores": (1, 2, 4, 8, 32),
            "gpu_clock_hz": (100e6, 416e6, 533e6, 700e6, 2e9),
            "cpu_cores": (1, 2, 4, 16),
            "cpu_clock_hz": (200e6, 1.0e9, 1.7e9, 4e9),
            "dram_gbps": (1.0, 8.5, 12.8, 16.5, 100.0),
            "register_file_scale": (0.125, 0.5, 1.0, 2.0, 4.0),
            "rail_scale": (0.1, 0.5, 1.0, 2.0, 10.0),
        }[knob]
    )
    drawn = st.integers(lo, hi) if isinstance(lo, int) else st.floats(lo, hi)
    return st.one_of(common, drawn).flatmap(_spelled)


def _out_of_range(knob):
    lo, hi = _RANGES[knob]
    return st.one_of(
        st.floats(max_value=lo, exclude_max=True),
        st.floats(min_value=hi, exclude_min=True),
        st.sampled_from((0, 2 * hi, math.nan)),
    ).flatmap(_spelled)


_PREFIXES = st.one_of(st.sampled_from(("soc", "p", "big-little", "")), st.text(max_size=8))


@st.composite
def grids(draw):
    """``(name_prefix, axes)`` of at most :data:`BUDGET` points."""
    knobs = draw(st.lists(st.sampled_from(KNOBS), unique=True, max_size=len(KNOBS)))
    with_board = draw(st.booleans())
    axes, size = {}, 1
    for knob in knobs:
        values = draw(st.lists(_in_range(knob), min_size=1, max_size=min(8, BUDGET // size)))
        if with_board:
            at = draw(st.integers(0, len(values) - 1))
            values[at] = draw(_spelled(getattr(EXYNOS_5250, knob)))
        axes[knob] = tuple(values)
        size *= len(values)
    return draw(_PREFIXES), axes


def _outcome(build, name_prefix, axes):
    try:
        return build(name_prefix, **axes)
    except CalibrationError as exc:
        return f"CalibrationError: {exc}"


def assert_same_configs(got, want):
    assert type(got) is tuple and len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is SoCConfig
        assert g == w
        assert hash(g) == hash(w)
        assert repr(g) == repr(w)
        assert g.name == w.name
        assert list(vars(g)) == list(vars(w))
        assert pickle.dumps(g) == pickle.dumps(w)
    assert config_digests(got) == config_digests(want)


@given(grid=grids())
@settings(max_examples=100, deadline=None)
@example(grid=("soc", {"gpu_cores": (4, 4.0, 8), "gpu_clock_hz": (533000000, 533e6)}))
@example(grid=("soc", {}))
@example(grid=("", {"dram_gbps": (12.8,)}))
@example(grid=("", {"rail_scale": (0.5, 1, 1.0)}))
def test_config_grid_matches_the_constructor_loop(grid):
    name_prefix, axes = grid
    want = _outcome(config_grid_reference, name_prefix, axes)
    got = _outcome(config_grid, name_prefix, axes)
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_configs(got, want)


@given(grid=grids(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_out_of_range_values_raise_the_reference_error(grid, data):
    """One out-of-range value on each of a drawn set of knobs: the same
    message as the loop's first rejected config, which is not always
    the first knob in declaration order."""
    name_prefix, axes = grid[0], dict(grid[1])
    for knob in data.draw(st.lists(st.sampled_from(KNOBS), unique=True, min_size=1)):
        values = list(axes.get(knob, ()))
        at = data.draw(st.integers(0, len(values)))
        values.insert(at, data.draw(_out_of_range(knob)))
        axes[knob] = tuple(values)
    want = _outcome(config_grid_reference, name_prefix, axes)
    assert isinstance(want, str)
    assert _outcome(config_grid, name_prefix, axes) == want


@pytest.mark.parametrize("knob", KNOBS)
def test_each_knob_rejects_out_of_range_values(knob):
    lo, hi = _RANGES[knob]
    for bad in (lo / 2 if lo > 0 else -1, hi * 2):
        axes = {knob: (getattr(EXYNOS_5250, knob), bad)}
        want = _outcome(config_grid_reference, "soc", axes)
        assert want == (
            f"CalibrationError: SoCConfig.{knob}={bad!r} outside the validated range [{lo}, {hi}]"
        )
        assert _outcome(config_grid, "soc", axes) == want


@pytest.mark.parametrize(
    "name_prefix, axes",
    [
        ("soc", {"warp_size": (32,), "gpu_cores": (2, 4)}),
        ("soc", {"zeta": (1,), "alpha": (2,)}),
        ("soc", {"gpu_cores": (2, 4), "dram_gbps": ()}),
        ("soc", {"rail_scale": (), "gpu_cores": ()}),
        ("", {"gpu_cores": (8,)}),
        ("", {"gpu_cores": (64,), "dram_gbps": (12.8e9,)}),
    ],
    ids=["unknown-axis", "unknown-axes", "empty-axis", "empty-axes", "empty-name",
         "empty-name-before-range"],
)
def test_bad_grids_raise_the_reference_error(name_prefix, axes):
    want = _outcome(config_grid_reference, name_prefix, axes)
    assert want.startswith("CalibrationError: ")
    assert _outcome(config_grid, name_prefix, axes) == want
