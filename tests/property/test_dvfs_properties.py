"""Property-based tests on the DVFS governor decision and the window energy.

The deadline policies, stated against their definitions in
:func:`repro.power.dvfs.settle` — the one function that picks an OPP
for the campaign's governed runs and the design space's governor sweep:

* ``pace_to_deadline`` returns the slowest OPP whose time fits the
  deadline, and ``None`` exactly when no OPP fits — for any OPP ladder
  and any workload split ``t(f) = a/f + b``, or a region that cannot run
  at all (``inf`` everywhere).
* ``race_to_idle`` and ``pace_to_deadline`` agree on feasibility.
* A deadline-policy point of the design-space sweep reports the
  closed-form window energy: the work energy at its OPP plus the slack
  at the board idle floor.

plus the table/scaling algebra they rest on and the ondemand fit.
"""

import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.benchmarks import Precision
from repro.calibration.socspace import SoCConfig
from repro.designspace import DesignSpace, evaluate_dvfs
from repro.power.dvfs import (
    DEADLINE_POLICIES,
    FREQUENCY_GOVERNORS,
    OperatingPoint,
    OPPTable,
    frequency_response,
    settle,
    utilization,
)

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

#: strictly increasing frequencies with non-decreasing voltages — every
#: ladder a DVFS driver could express
@st.composite
def opp_tables(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    freqs = draw(
        st.lists(
            st.floats(min_value=50e6, max_value=2e9),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    freqs.sort()
    volts = draw(
        st.lists(
            st.floats(min_value=0.8, max_value=1.4),
            min_size=n,
            max_size=n,
        )
    )
    volts.sort()
    return OPPTable(
        tuple(OperatingPoint(f, v) for f, v in zip(freqs, volts))
    )


#: the a/f + b workload split the timing model produces
workloads = st.tuples(
    st.floats(min_value=0.0, max_value=1e9),  # a: clock-scaled cycles
    st.floats(min_value=0.0, max_value=10.0),  # b: clock-invariant floor
)

deadlines = st.floats(min_value=1e-3, max_value=100.0)


def region_time(a, b):
    return lambda opp: a / opp.frequency_hz + b


# ---------------------------------------------------------------------------
# the deadline policies, against their definitions
# ---------------------------------------------------------------------------


@given(table=opp_tables(), workload=workloads, deadline=deadlines, runs=st.booleans())
@settings(max_examples=200)
def test_pace_meets_every_feasible_deadline(table, workload, deadline, runs):
    a, b = workload
    time_at = region_time(a, b) if runs else (lambda opp: math.inf)
    fits = [opp for opp in table.points if time_at(opp) <= deadline]
    pace = settle("pace_to_deadline", table, time_at=time_at, deadline_s=deadline)
    # the slowest OPP that fits, or None when none does
    assert pace == (min(fits, key=lambda opp: opp.frequency_hz) if fits else None)


@given(table=opp_tables(), workload=workloads, deadline=deadlines, runs=st.booleans())
@settings(max_examples=200)
def test_race_and_pace_agree_on_feasibility(table, workload, deadline, runs):
    a, b = workload
    time_at = region_time(a, b) if runs else (lambda opp: math.inf)
    race, pace = (
        settle(policy, table, time_at=time_at, deadline_s=deadline)
        for policy in ("race_to_idle", "pace_to_deadline")
    )
    # t(f) is non-increasing in f, so the max OPP decides feasibility
    # for both policies at once
    assert (race is None) == (pace is None)
    if race is not None:
        assert race == table.max
        assert pace.frequency_hz <= race.frequency_hz


# ---------------------------------------------------------------------------
# the sweep's window energy is exactly the closed-form two-segment sum
# ---------------------------------------------------------------------------

SWEEP = dict(benchmarks=("vecop", "dmmm"), precisions=(Precision.SINGLE,), scale=0.05)
SWEEP_CONFIGS = (
    SoCConfig(name="exynos5250"),
    SoCConfig(name="wide", gpu_cores=8, gpu_clock_hz=700e6, rail_scale=0.5),
)


@pytest.fixture(scope="module")
def sweep_space():
    return DesignSpace(**SWEEP)


#: the sweep's aggregate takes 2.5 ms at 533 MHz and 10.8 ms at 100 MHz
#: on the Exynos 5250, so this range holds infeasible windows, middle
#: OPPs and the bottom one
@given(deadline=st.floats(min_value=1e-3, max_value=0.02))
@example(deadline=0.5)  # generous: pacing downshifts to the bottom OPP
@example(deadline=1e-4)  # no OPP fits
@settings(max_examples=25, deadline=None)
def test_energy_is_the_closed_form_segment_sum(sweep_space, deadline):
    swept = evaluate_dvfs(
        SWEEP_CONFIGS,
        **SWEEP,
        governors=FREQUENCY_GOVERNORS + DEADLINE_POLICIES,
        deadline_s=deadline,
        space=sweep_space,
    )
    for config in SWEEP_CONFIGS:
        idle_w = config.platform().rails.board_idle_w
        points = {p.governor: p for p in swept.points if p.config_name == config.name}
        # work points of the frequency governors, by the OPP they run at
        work = {points[g].opp_hz: points[g] for g in FREQUENCY_GOVERNORS}
        for policy in DEADLINE_POLICIES:
            p = points[policy]
            if not p.feasible:
                assert (p.seconds, p.watts, p.energy_j) == (math.inf, 0.0, math.inf)
                continue
            assert p.seconds <= deadline
            ref = work.get(p.opp_hz)
            if ref is not None:  # bitwise: the same work, then idle
                assert (p.seconds, p.watts) == (ref.seconds, ref.watts)
                assert p.energy_j == ref.energy_j + (deadline - p.seconds) * idle_w
            else:  # no frequency governor at this OPP: rebuild the work energy
                assert p.energy_j == pytest.approx(
                    p.seconds * p.watts + (deadline - p.seconds) * idle_w, rel=1e-12
                )
            # window bounds: never below all-idle, never above all-work
            lo, hi = sorted((idle_w, p.watts))
            assert lo * deadline * (1 - 1e-12) <= p.energy_j <= hi * deadline * (1 + 1e-12)


# ---------------------------------------------------------------------------
# supporting algebra: power scaling, rescaling, the ondemand fit
# ---------------------------------------------------------------------------


@given(table=opp_tables())
@settings(max_examples=100)
def test_power_scale_is_monotone_and_one_at_nominal(table):
    assert table.power_scale(table.nominal) == 1.0
    factors = [table.power_scale(opp) for opp in table.points]
    assert all(f <= 1.0 for f in factors)  # nominal is the ceiling
    assert factors == sorted(factors)  # f·V² grows with frequency


@given(table=opp_tables(), top=st.floats(min_value=50e6, max_value=2e9))
@example(
    table=OPPTable((OperatingPoint(1999999999.9999998, 1.0), OperatingPoint(2e9, 1.1))),
    top=50e6,
)
@settings(max_examples=100)
def test_rescaled_preserves_shape_and_assigns_top(table, top):
    ratio = top / table.nominal.frequency_hz
    freqs = [p.frequency_hz * ratio for p in table.points[:-1]] + [top]
    if any(hi <= lo for lo, hi in zip(freqs, freqs[1:])):
        # the ratio rounds neighbouring OPPs onto one frequency: the
        # ladder cannot keep its shape, so rescaling refuses up front
        with pytest.raises(ValueError, match="collapses the OPPs"):
            table.rescaled(top)
        return
    out = table.rescaled(top)
    assert out.nominal.frequency_hz == top  # assigned, never multiplied
    assert len(out) == len(table)
    assert [p.voltage_v for p in out.points] == [p.voltage_v for p in table.points]


@given(workload=workloads, table=opp_tables())
@settings(max_examples=150)
def test_frequency_fit_recovers_workload_and_governor_is_steady(workload, table):
    a, b = workload
    assume(len(table) >= 2)
    f_slow, f_fast = table.min.frequency_hz, table.max.frequency_hz
    assume(f_fast - f_slow >= 1e6)  # near-equal clocks: no fit to speak of
    time_at = region_time(a, b)
    fit_a, fit_b = frequency_response(
        time_at(table.min), f_slow, time_at(table.max), f_fast
    )
    # exact recovery up to cancellation residue: the fit subtracts the
    # two t·f products, so its absolute error scales with their size
    # over the clock gap
    prod = max(time_at(table.min) * f_slow, time_at(table.max) * f_fast)
    tol_b = 1e-9 + 1e-13 * prod / (f_fast - f_slow)
    tol_a = 1e-6 + f_fast * tol_b
    assert fit_b == pytest.approx(b, abs=tol_b)
    assert fit_a == pytest.approx(a, abs=tol_a)
    chosen = settle("ondemand", table, time_at=time_at)
    # the governor's fixed point: every slower OPP would ramp up
    for opp in table.points:
        if opp.frequency_hz < chosen.frequency_hz:
            assert utilization(fit_a, fit_b, opp.frequency_hz) > 0.8 - 1e-9
