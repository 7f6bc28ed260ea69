"""The design space prices what the campaign runs.

At any SoC config, a design point's Serial, OpenMP and Opt seconds are
the ``elapsed_s`` that ``run_version`` reports for that version on the
config's platform, bit for bit, and the Opt point picks the tuner's
(options, local size): the campaign's queue, the tuner and the design
space all read each benchmark's declared iteration
(``Benchmark.iteration_cells``) and sum it in enqueue order.  A group
with no feasible Opt candidate (amcd in double precision, or a register
file too small for every candidate) is infeasible on both sides.
Energy is not compared: the campaign meters it, the design space has
no meter.

The configs are the paper's Exynos 5250 plus a few drawn around it.

A governed run settles its operating point on the same model price
(:func:`repro.power.dvfs.settle` reads it as ``time_at``) and then runs
that point once: at every OPP of a version's ladder the price is the
run's ``elapsed_s``, bit for bit, with or without a deadline policy's
idle tail, and ``inf`` exactly where the run fails.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.benchmarks.base import Precision, Version, run_version
from repro.benchmarks.registry import PAPER_ORDER, create
from repro.calibration.socspace import SoCConfig
from repro.designspace import DesignSpace
from repro.optimizations.autotune import tune
from repro.power import dvfs

SCALE = 0.05
PRECISIONS = (Precision.SINGLE, Precision.DOUBLE)
VERSIONS = {"Serial": Version.SERIAL, "OpenMP": Version.OPENMP, "Opt": Version.OPENCL_OPT}

#: knobs drawn around the Exynos 5250; each drawn config moves at least one
_DRAWN = st.lists(
    st.fixed_dictionaries(
        {},
        optional={
            "gpu_cores": st.sampled_from((1, 2, 8)),
            "gpu_clock_hz": st.sampled_from((300e6, 700e6)),
            "cpu_cores": st.sampled_from((1, 4)),
            "dram_gbps": st.sampled_from((6.4, 16.5)),
            "register_file_scale": st.sampled_from((0.25, 0.5, 2.0)),
            "rail_scale": st.sampled_from((0.5, 2.0)),
        },
    ).filter(bool),
    min_size=2,
    max_size=3,
    unique_by=repr,
)

_SETTINGS = settings(
    max_examples=1,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def space():
    return DesignSpace(scale=SCALE)


def _configs(drawn) -> list[SoCConfig]:
    return [SoCConfig(name="exynos5250")] + [
        SoCConfig(name=f"drawn{i}", **knobs) for i, knobs in enumerate(drawn)
    ]


@pytest.mark.parametrize("name", PAPER_ORDER)
@given(drawn=_DRAWN)
@_SETTINGS
def test_design_points_are_the_campaign_runs(space, name, drawn):
    for config in _configs(drawn):
        points = {
            (p.benchmark, p.precision, p.version): p
            for p in space.points(config, space.stacked_rows(config))
        }
        for precision in PRECISIONS:
            bench = create(name, precision=precision, scale=SCALE, platform=config.platform())
            for label, version in VERSIONS.items():
                point = points[(name, precision.value, label)]
                run = run_version(bench, version=version)
                where = f"{config.name} {name}/{precision.value}/{label}"
                assert point.feasible == run.ok, where
                if run.ok:
                    assert point.seconds == run.elapsed_s, where


@pytest.mark.parametrize("name", PAPER_ORDER)
@given(drawn=_DRAWN)
@_SETTINGS
def test_opt_pick_is_the_tuners_pick(space, name, drawn):
    for config in _configs(drawn):
        rows = space.stacked_rows(config)
        for g, group in enumerate(space.groups):
            if group.name != name:
                continue
            lane = int(rows.pick[g])
            pick = None if lane < 0 else group.candidates[lane - group.opt_start]
            bench = create(
                name,
                precision=Precision(group.precision),
                scale=SCALE,
                platform=config.platform(),
            )
            assert pick == tune(bench), f"{config.name} {name}/{group.precision}"


#: a deadline window longer than any region at ``SCALE``, so every
#: forced OPP of a deadline policy runs with an idle tail
WINDOW_S = 10.0


@pytest.mark.parametrize("name", PAPER_ORDER)
def test_governed_runs_take_the_time_settle_reads(name, monkeypatch):
    forced: dict = {}

    def settle_at(governor, table, *, time_at, deadline_s=None):
        opp = table.points[forced["index"]]
        forced["seconds"] = time_at(opp)
        return opp

    monkeypatch.setattr(dvfs, "settle", settle_at)
    for precision in PRECISIONS:
        bench = create(name, precision=precision, scale=SCALE)
        for version in Version:
            cpu = version in (Version.SERIAL, Version.OPENMP)
            ladder = dvfs.A15_OPPS if cpu else dvfs.MALI_T604_OPPS
            for index, opp in enumerate(ladder.points):
                # the frequency governors run without a tail, the
                # deadline policies with one
                for governor in ("performance", "pace_to_deadline"):
                    forced.clear()
                    forced["index"] = index
                    run = run_version(
                        bench,
                        version=version,
                        governor=governor,
                        energy_deadline_s=WINDOW_S,
                    )
                    where = (
                        f"{name}/{precision.value}/{version.value}"
                        f" @{opp.frequency_hz:g} Hz {governor}"
                    )
                    if "seconds" not in forced:  # no Opt candidate to settle
                        assert not run.ok and version is Version.OPENCL_OPT, where
                        continue
                    assert run.ok == math.isfinite(forced["seconds"]), where
                    if run.ok:
                        assert run.elapsed_s == forced["seconds"], where
                        assert run.diagnostics["dvfs"]["opp_hz"] == opp.frequency_hz, where
