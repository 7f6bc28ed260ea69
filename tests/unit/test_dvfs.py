"""DVFS layer: OPP tables, governors, energy policies, governed runs.

Covers the governor axis end to end — the pure :mod:`repro.power.dvfs`
machinery, governed ``run_version`` executions, the campaign byte-identity
guarantee (the default ``fixed`` governor never perturbs a single output
byte), the design-space governor sweep, and the power-layer hardening
that rode along (activity validation, zero-power normalization, lazy
trace repetition).
"""

import json

import pytest

from repro.benchmarks import Precision, Version, create, run_version
from repro.calibration import default_platform
from repro.designspace import SoCConfig, evaluate_dvfs, evaluate_space
from repro.experiments import run_grid
from repro.experiments.engine import CampaignSpec
from repro.power import (
    Activity,
    ActivityKind,
    EnergyReport,
    PowerRailConfig,
    PowerTrace,
    TraceSegment,
    YokogawaWT230,
)
from repro.power import dvfs
from repro.power.dvfs import (
    A15_OPPS,
    MALI_T604_OPPS,
    OperatingPoint,
    OPPTable,
    frequency_response,
    settle,
    utilization,
)
from repro.power.rails import stack_watts


# ---------------------------------------------------------------------------
# OPP tables
# ---------------------------------------------------------------------------


class TestOPPTable:
    def test_exynos_ladders_top_at_paper_clocks(self):
        assert MALI_T604_OPPS.nominal.frequency_hz == 533e6
        assert A15_OPPS.nominal.frequency_hz == 1.7e9
        assert MALI_T604_OPPS.min.frequency_hz == 100e6
        assert A15_OPPS.min.frequency_hz == 200e6

    def test_validation(self):
        with pytest.raises(ValueError):
            OPPTable(())
        with pytest.raises(ValueError):
            OPPTable((OperatingPoint(2e8, 1.0), OperatingPoint(1e8, 1.1)))
        with pytest.raises(ValueError):  # voltage must not fall with frequency
            OPPTable((OperatingPoint(1e8, 1.1), OperatingPoint(2e8, 1.0)))
        with pytest.raises(ValueError):
            OperatingPoint(0.0, 1.0)
        with pytest.raises(ValueError):
            OperatingPoint(1e8, -0.9)

    def test_fixed_is_degenerate_single_point(self):
        t = OPPTable.fixed(533e6)
        assert len(t) == 1
        assert t.min == t.max == t.nominal

    def test_power_scale_is_exactly_one_at_nominal(self):
        for table in (MALI_T604_OPPS, A15_OPPS):
            assert table.power_scale(table.nominal) == 1.0

    def test_power_scale_matches_f_v_squared(self):
        t = MALI_T604_OPPS
        low, top = t.min, t.nominal
        expected = (low.frequency_hz / top.frequency_hz) * (
            (low.voltage_v / top.voltage_v) ** 2
        )
        assert t.power_scale(low) == pytest.approx(expected)
        assert t.power_scale(low) < 1.0

    def test_rescaled_assigns_top_exactly(self):
        t = MALI_T604_OPPS.rescaled(700e6)
        assert t.nominal.frequency_hz == 700e6  # assigned, not multiplied
        assert t.nominal.voltage_v == MALI_T604_OPPS.nominal.voltage_v
        assert len(t) == len(MALI_T604_OPPS)
        # same-clock rescale is the identity object: no float residue
        assert MALI_T604_OPPS.rescaled(533e6) is MALI_T604_OPPS
        with pytest.raises(ValueError):
            MALI_T604_OPPS.rescaled(0.0)


class TestRailsAt:
    def test_nominal_opp_returns_base_rails_object(self):
        rails = PowerRailConfig()
        out = dvfs.rails_at(
            rails, gpu_table=MALI_T604_OPPS, gpu_opp=MALI_T604_OPPS.nominal
        )
        assert out is rails

    def test_low_opp_scales_only_dynamic_gpu_coefficients(self):
        rails = PowerRailConfig()
        low = MALI_T604_OPPS.min
        factor = MALI_T604_OPPS.power_scale(low)
        out = dvfs.rails_at(rails, gpu_table=MALI_T604_OPPS, gpu_opp=low)
        assert out.gpu_base_w == rails.gpu_base_w * factor
        assert out.gpu_alu_w == rails.gpu_alu_w * factor
        assert out.gpu_ls_w == rails.gpu_ls_w * factor
        # the static terms survive untouched
        assert out.board_idle_w == rails.board_idle_w
        assert out.host_polling_w == rails.host_polling_w
        assert out.dram_w_per_gbps == rails.dram_w_per_gbps
        assert out.cpu_core_base_w == rails.cpu_core_base_w

    def test_opp_without_its_table_is_rejected(self):
        rails = PowerRailConfig()
        with pytest.raises(ValueError):
            dvfs.rails_at(rails, gpu_opp=MALI_T604_OPPS.min)
        with pytest.raises(ValueError):
            dvfs.rails_at(rails, cpu_opp=A15_OPPS.min)

    def test_platform_at_nominal_is_base(self):
        base = default_platform()
        out = dvfs.platform_at(
            base, gpu_table=MALI_T604_OPPS, gpu_opp=MALI_T604_OPPS.nominal
        )
        assert out == base

    def test_platform_at_low_opp_moves_clock_and_rails(self):
        base = default_platform()
        low = MALI_T604_OPPS.min
        out = dvfs.platform_at(base, gpu_table=MALI_T604_OPPS, gpu_opp=low)
        assert out.mali.clock_hz == low.frequency_hz
        assert out.rails.gpu_base_w < base.rails.gpu_base_w
        assert out.cpu == base.cpu


# ---------------------------------------------------------------------------
# frequency response and governor selection
# ---------------------------------------------------------------------------


class TestFrequencyResponse:
    def test_recovers_synthetic_coefficients(self):
        a, b = 3.2e8, 0.05  # t(f) = a/f + b
        fit_a, fit_b = frequency_response(
            a / 100e6 + b, 100e6, a / 533e6 + b, 533e6
        )
        assert fit_a == pytest.approx(a, rel=1e-9)
        assert fit_b == pytest.approx(b, rel=1e-9)

    def test_clamps_float_residue_to_zero(self):
        # pure 1/f workload: b fits to ~0, never negative
        _, b = frequency_response(10.0, 100e6, 10.0 * 100 / 533, 533e6)
        assert b >= 0.0

    def test_rejects_degenerate_samples(self):
        with pytest.raises(ValueError):
            frequency_response(1.0, 100e6, 1.0, 100e6)
        with pytest.raises(ValueError):
            frequency_response(-1.0, 100e6, 1.0, 533e6)

    def test_utilization_bounds(self):
        assert utilization(1.0, 0.0, 100e6) == 1.0  # fully clocked
        assert utilization(0.0, 1.0, 100e6) == 0.0  # fully invariant
        with pytest.raises(ValueError):
            utilization(1.0, 1.0, 0.0)


class TestSelectOpp:
    """:func:`settle` for ``fixed`` and the three frequency governors."""

    def test_performance_and_powersave_extremes(self):
        def unpriced(opp):
            raise AssertionError("the extremes need no price")

        for governor in ("fixed", "performance"):
            assert settle(governor, MALI_T604_OPPS, time_at=unpriced) == MALI_T604_OPPS.max
        assert settle("powersave", MALI_T604_OPPS, time_at=unpriced) == MALI_T604_OPPS.min

    def test_ondemand_compute_bound_picks_max(self):
        # t = a/f: utilization is 1.0 at every clock, so only the max
        # OPP (the never-ramp-above point) is steady
        time_at = lambda opp: 1e9 / opp.frequency_hz
        assert settle("ondemand", MALI_T604_OPPS, time_at=time_at) == (
            MALI_T604_OPPS.max
        )

    def test_ondemand_memory_bound_picks_min(self):
        # clock-invariant region: utilization ~0 everywhere
        assert settle(
            "ondemand", MALI_T604_OPPS, time_at=lambda opp: 0.25
        ) == MALI_T604_OPPS.min

    def test_ondemand_mixed_workload_picks_lowest_under_threshold(self):
        a, b = 2.0e8, 2.0  # busy at low clocks, mostly idle at the top
        time_at = lambda opp: a / opp.frequency_hz + b
        chosen = settle("ondemand", MALI_T604_OPPS, time_at=time_at)
        assert utilization(a, b, chosen.frequency_hz) <= dvfs.ONDEMAND_UP_THRESHOLD
        for opp in MALI_T604_OPPS.points:
            if opp.frequency_hz < chosen.frequency_hz:
                assert utilization(a, b, opp.frequency_hz) > (
                    dvfs.ONDEMAND_UP_THRESHOLD
                )

    def test_ondemand_needs_estimator_and_known_name(self):
        with pytest.raises(TypeError):
            settle("ondemand", MALI_T604_OPPS)
        with pytest.raises(ValueError):
            settle("warp-speed", MALI_T604_OPPS, time_at=lambda opp: 1.0)

    def test_ondemand_stays_nominal_when_an_extreme_cannot_run(self):
        # a region that fails to build prices inf: there is no frequency
        # response to fit, so the governor stays where it boots
        for inf_at in (MALI_T604_OPPS.min, MALI_T604_OPPS.max):
            time_at = lambda opp: float("inf") if opp == inf_at else 1.0
            assert settle("ondemand", MALI_T604_OPPS, time_at=time_at) == (
                MALI_T604_OPPS.nominal
            )

    def test_single_point_table_short_circuits(self):
        t = OPPTable.fixed(533e6)

        def unpriced(opp):
            raise AssertionError("a one-point ladder needs no price")

        assert settle("ondemand", t, time_at=unpriced) == t.max


class TestClockSensitivity:
    @staticmethod
    def _timing_at(kernel, n, hz, flops_per_elem=1):
        from dataclasses import replace

        from repro.compiler import compile_kernel
        from repro.mali import time_launch
        from repro.memory.cache import StreamSpec
        from repro.workload import WorkloadTraits

        platform = default_platform()
        nbytes = float(n * 4)
        traits = WorkloadTraits(
            streams=(StreamSpec("a", nbytes), StreamSpec("c", nbytes)), elements=n
        )
        mali = replace(platform.mali, clock_hz=hz)
        return time_launch(
            compile_kernel(kernel),
            n,
            128,
            traits,
            mali,
            platform.dram_model(),
            platform.gpu_caches(),
        )

    @staticmethod
    def _kernel(fmas):
        from repro.ir import F32, KernelBuilder, OpKind

        b = KernelBuilder("k")
        b.buffer("a", F32)
        b.buffer("c", F32)
        b.load(F32, param="a")
        for _ in range(fmas):
            b.arith(OpKind.FMA, F32)
        b.store(F32, param="c")
        return b.build()

    def test_compute_bound_launch_is_clock_scaled(self):
        timing = self._timing_at(self._kernel(fmas=64), 1 << 20, 533e6)
        assert timing.clock_sensitivity > 0.9

    def test_streaming_launch_has_a_clock_invariant_floor(self):
        compute = self._timing_at(self._kernel(fmas=64), 1 << 20, 533e6)
        stream = self._timing_at(self._kernel(fmas=1), 1 << 20, 533e6)
        assert stream.clock_sensitivity < compute.clock_sensitivity

    def test_matches_two_point_frequency_fit(self):
        """The launch's own clock-scaled share agrees with a local
        frequency-response fit (both split t(f) into a/f + b).  The fit
        uses adjacent OPPs: across the full 100-533 MHz span the model's
        binding bottleneck can flip (compute bound at the bottom, memory
        bound at the top), which is a regime change the single-point
        sensitivity deliberately does not average over."""
        kernel = self._kernel(fmas=8)
        f_slow, f_fast = 450e6, 533e6
        n = 1 << 18
        slow = self._timing_at(kernel, n, f_slow)
        fast = self._timing_at(kernel, n, f_fast)
        assert slow.bottleneck == fast.bottleneck  # same regime, fair fit
        a, b = frequency_response(slow.seconds, f_slow, fast.seconds, f_fast)
        assert fast.clock_sensitivity == pytest.approx(
            utilization(a, b, f_fast), abs=0.15
        )


# ---------------------------------------------------------------------------
# energy policies
# ---------------------------------------------------------------------------


def ramp_table():
    return OPPTable(
        (
            OperatingPoint(1e8, 0.9),
            OperatingPoint(2e8, 1.0),
            OperatingPoint(4e8, 1.2),
        )
    )


class TestPolicyPlan:
    """The deadline window a governed run reports: work at the settled
    OPP, then the slack at the board idle floor."""

    def test_closed_form_energy_and_slack(self, vecop):
        # the fixed run is the nominal OPP without a window: racing runs
        # the same work and idles out the rest of the deadline
        fixed = run_version(vecop, version=Version.OPENCL_OPT)
        deadline = fixed.elapsed_s * 20
        race = run_version(
            vecop,
            version=Version.OPENCL_OPT,
            governor="race_to_idle",
            energy_deadline_s=deadline,
        )
        info = race.diagnostics["dvfs"]
        idle_w = vecop.platform.rails.board_idle_w
        assert info["work_s"] == race.elapsed_s == fixed.elapsed_s
        assert info["slack_s"] == deadline - info["work_s"]
        assert info["model_energy_j"] == (
            fixed.diagnostics["trace_energy_j"] + info["slack_s"] * idle_w
        )
        assert race.mean_power_w * deadline == pytest.approx(race.energy_j)

    def test_validation(self, vecop):
        for policy in dvfs.DEADLINE_POLICIES:
            for deadline in (None, 0.0, -1.0):
                with pytest.raises(ValueError):
                    settle(policy, ramp_table(), time_at=lambda o: 1.0, deadline_s=deadline)
                with pytest.raises(ValueError):
                    run_version(
                        vecop,
                        version=Version.OPENCL,
                        governor=policy,
                        energy_deadline_s=deadline,
                    )


class TestPlanPolicy:
    """:func:`settle` for the deadline policies."""

    def setup_method(self):
        self.table = ramp_table()
        # pure 1/f region: 1 s at the top OPP
        self.time_at = lambda opp: 4e8 / opp.frequency_hz

    def settle(self, policy, deadline):
        return settle(policy, self.table, time_at=self.time_at, deadline_s=deadline)

    def test_race_takes_max_opp(self):
        assert self.settle("race_to_idle", 5.0) == self.table.max
        assert self.settle("race_to_idle", 1.0) == self.table.max

    def test_pace_takes_lowest_feasible_opp(self):
        assert self.settle("pace_to_deadline", 5.0) == self.table.min
        assert self.settle("pace_to_deadline", 2.5) == self.table.points[1]
        assert self.settle("pace_to_deadline", 1.0) == self.table.max

    def test_pace_beats_race_with_a_small_idle_floor(self):
        # the sweep's deadline-window energies: at a generous budget the
        # voltage saving at the bottom OPP beats racing's idle tail
        swept = evaluate_dvfs(
            small_family(),
            benchmarks=("vecop",),
            scale=0.1,
            governors=dvfs.DEADLINE_POLICIES,
            deadline_s=5.0,
        )
        for config in small_family():
            sel = {
                p.governor: p
                for p in swept.select(precision="single")
                if p.config_name == config.name
            }
            pace, race = sel["pace_to_deadline"], sel["race_to_idle"]
            assert pace.opp_hz < race.opp_hz
            assert pace.energy_j < race.energy_j

    def test_infeasible_deadline_settles_nowhere(self):
        assert self.settle("race_to_idle", 0.5) is None
        assert self.settle("pace_to_deadline", 0.5) is None
        # a region that cannot run fits no deadline
        for policy in dvfs.DEADLINE_POLICIES:
            assert settle(
                policy, self.table, time_at=lambda o: float("inf"), deadline_s=5.0
            ) is None
        with pytest.raises(ValueError):
            self.settle("sprint_and_pray", 5.0)


# ---------------------------------------------------------------------------
# governed runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def vecop():
    return create("vecop", precision=Precision.SINGLE, scale=0.05)


class TestGovernedRuns:
    def test_fixed_governor_is_byte_identical_to_default(self, vecop):
        plain = run_version(vecop, version=Version.OPENCL)
        fixed = run_version(vecop, version=Version.OPENCL, governor="fixed")
        assert fixed.governor is None  # the default axis has no label
        assert fixed.elapsed_s == plain.elapsed_s
        assert fixed.energy_j == plain.energy_j
        assert fixed.mean_power_w == plain.mean_power_w

    def test_powersave_slows_gpu_run_and_records_opp(self, vecop):
        fixed = run_version(vecop, version=Version.OPENCL)
        slow = run_version(vecop, version=Version.OPENCL, governor="powersave")
        assert slow.ok
        assert slow.governor == "powersave"
        assert slow.elapsed_s > fixed.elapsed_s
        info = slow.diagnostics["dvfs"]
        assert info["opp_hz"] == 100e6
        assert info["table_hz"][-1] == 533e6

    def test_powersave_slows_cpu_run_on_the_a15_ladder(self, vecop):
        fixed = run_version(vecop, version=Version.SERIAL)
        slow = run_version(vecop, version=Version.SERIAL, governor="powersave")
        assert slow.ok
        assert slow.elapsed_s > fixed.elapsed_s
        assert slow.diagnostics["dvfs"]["opp_hz"] == 200e6

    def test_ondemand_settles_at_or_below_nominal(self, vecop):
        run = run_version(vecop, version=Version.OPENCL, governor="ondemand")
        assert run.ok
        assert run.diagnostics["dvfs"]["opp_hz"] <= 533e6

    def test_race_to_idle_fills_the_deadline_window(self, vecop):
        fixed = run_version(vecop, version=Version.OPENCL_OPT)
        deadline = fixed.elapsed_s * 20
        race = run_version(
            vecop,
            version=Version.OPENCL_OPT,
            governor="race_to_idle",
            energy_deadline_s=deadline,
        )
        assert race.ok
        info = race.diagnostics["dvfs"]
        assert info["opp_hz"] == 533e6  # racing means the top OPP
        assert info["deadline_s"] == deadline
        assert info["slack_s"] == pytest.approx(deadline - info["work_s"])
        # window energy: work plus the idle tail, never the work alone
        assert race.energy_j > fixed.energy_j

    def test_pace_to_deadline_meets_the_budget_at_a_lower_clock(self, vecop):
        fixed = run_version(vecop, version=Version.OPENCL_OPT)
        deadline = fixed.elapsed_s * 20
        pace = run_version(
            vecop,
            version=Version.OPENCL_OPT,
            governor="pace_to_deadline",
            energy_deadline_s=deadline,
        )
        assert pace.ok
        info = pace.diagnostics["dvfs"]
        assert info["work_s"] <= deadline
        assert info["opp_hz"] < 533e6  # generous budget: pacing downshifts

    def test_pace_beats_race_on_model_energy(self, vecop):
        deadline = run_version(vecop, version=Version.OPENCL_OPT).elapsed_s * 20
        kw = dict(version=Version.OPENCL_OPT, energy_deadline_s=deadline)
        race = run_version(vecop, governor="race_to_idle", **kw)
        pace = run_version(vecop, governor="pace_to_deadline", **kw)
        # the exact trace energies (meterless): pacing's voltage saving
        # beats racing whenever the idle floor is small
        assert pace.diagnostics["dvfs"]["model_energy_j"] <= (
            race.diagnostics["dvfs"]["model_energy_j"]
        )

    def test_infeasible_deadline_fails_cleanly(self, vecop):
        run = run_version(
            vecop,
            version=Version.OPENCL,
            governor="race_to_idle",
            energy_deadline_s=1e-12,
        )
        assert not run.ok
        assert "deadline infeasible" in run.failure
        assert run.governor == "race_to_idle"

    @pytest.mark.parametrize(
        "governor", dvfs.FREQUENCY_GOVERNORS + dvfs.DEADLINE_POLICIES
    )
    def test_amcd_dp_build_failure_is_modeled_under_every_governor(self, governor):
        # the driver's fp64 defect is a modeled failure (Figure 2(b)'s
        # missing bar) at every operating point, never a harness crash
        amcd = create("amcd", precision=Precision.DOUBLE, scale=0.02)
        fixed = run_version(amcd, version=Version.OPENCL)
        run = run_version(
            amcd, version=Version.OPENCL, governor=governor, energy_deadline_s=0.5
        )
        assert not run.ok
        assert run.failure_kind is None
        assert run.failure == fixed.failure
        assert run.failure.startswith("CL_BUILD_PROGRAM_FAILURE")
        assert run.governor == governor

    def test_policy_without_deadline_is_rejected(self, vecop):
        with pytest.raises(ValueError):
            run_version(vecop, version=Version.OPENCL, governor="race_to_idle")
        with pytest.raises(ValueError):
            run_version(vecop, version=Version.OPENCL, governor="typo")


# ---------------------------------------------------------------------------
# campaign integration: the governor axis and its byte-identity guarantee
# ---------------------------------------------------------------------------


GRID = dict(
    benchmarks=("vecop",),
    versions=(Version.SERIAL, Version.OPENCL),
    precisions=(Precision.SINGLE,),
    scale=0.02,
)


class TestCampaignGovernorAxis:
    def test_default_governor_grid_is_byte_identical(self):
        grid = dict(GRID, benchmarks=("vecop", "red"))
        plain = run_grid(**grid)
        defaulted = run_grid(**grid, governors=("fixed",))
        assert defaulted.to_json() == plain.to_json()

    def test_spec_fingerprint_ignores_default_governor(self):
        base = CampaignSpec(benchmarks=("vecop",), scale=0.02)
        explicit = CampaignSpec(
            benchmarks=("vecop",), scale=0.02, governors=("fixed",)
        )
        governed = CampaignSpec(
            benchmarks=("vecop",), scale=0.02, governors=("fixed", "powersave")
        )
        assert explicit.fingerprint() == base.fingerprint()
        assert governed.fingerprint() != base.fingerprint()

    def test_spec_validates_governors(self):
        with pytest.raises(ValueError):
            CampaignSpec(benchmarks=("vecop",), scale=0.02, governors=())
        with pytest.raises(ValueError):
            CampaignSpec(benchmarks=("vecop",), scale=0.02, governors=("nope",))
        with pytest.raises(ValueError):  # policies need a deadline
            CampaignSpec(
                benchmarks=("vecop",), scale=0.02, governors=("race_to_idle",)
            )
        with pytest.raises(ValueError):
            CampaignSpec(
                benchmarks=("vecop",),
                scale=0.02,
                governors=("race_to_idle",),
                energy_deadline_s=-1.0,
            )

    def test_governed_grid_keys_and_serialization_roundtrip(self):
        from repro.experiments.runner import ResultSet

        results = run_grid(**GRID, governors=("fixed", "powersave"))
        # fixed rows keep the historic 3-field key; governed rows add one
        assert results.has("vecop", Version.OPENCL, Precision.SINGLE)
        assert results.has(
            "vecop", Version.OPENCL, Precision.SINGLE, governor="powersave"
        )
        governed = results.get(
            "vecop", Version.OPENCL, Precision.SINGLE, governor="powersave"
        )
        assert governed.governor == "powersave"
        text = results.to_json()
        rows = json.loads(text)["runs"]
        fixed_rows = [r for r in rows if "governor" not in r]
        governed_rows = [r for r in rows if r.get("governor")]
        assert len(fixed_rows) == len(governed_rows) == 2
        back = ResultSet.from_json(text)
        assert back.get(
            "vecop", Version.OPENCL, Precision.SINGLE, governor="powersave"
        ).elapsed_s == governed.elapsed_s

    def test_report_describes_governed_failures(self):
        from repro.experiments.engine import Campaign

        spec = CampaignSpec(
            benchmarks=("amcd",),
            versions=(Version.OPENCL,),
            precisions=(Precision.SINGLE, Precision.DOUBLE),
            scale=0.02,
            governors=("fixed", "powersave", "pace_to_deadline"),
            energy_deadline_s=0.5,
        )
        campaign = Campaign(spec)
        campaign.run()
        report = campaign.report
        assert report.failed_runs == (
            ("amcd", Version.OPENCL, Precision.DOUBLE),
            ("amcd", Version.OPENCL, Precision.DOUBLE, "powersave"),
            ("amcd", Version.OPENCL, Precision.DOUBLE, "pace_to_deadline"),
        )
        assert report.crashed_runs == ()
        failed = [
            line.strip()
            for line in report.describe().splitlines()
            if line.strip().startswith(("FAILED", "CRASHED", "TIMEOUT"))
        ]
        assert failed == [
            "FAILED amcd [DP] OpenCL",
            "FAILED amcd [DP] OpenCL @powersave",
            "FAILED amcd [DP] OpenCL @pace_to_deadline",
        ]

    def test_governed_cells_survive_journal_replay(self, tmp_path):
        from repro.experiments.engine import Campaign

        spec = CampaignSpec(**GRID, governors=("fixed", "powersave"))
        first = Campaign(spec).run(journal_dir=str(tmp_path))
        resumed = Campaign(spec).run(journal_dir=str(tmp_path))
        assert resumed.to_json() == first.to_json()


# ---------------------------------------------------------------------------
# design-space governor sweep
# ---------------------------------------------------------------------------


def small_family():
    return (
        SoCConfig(name="exynos5250"),
        SoCConfig(name="wide", gpu_cores=8),
    )


class TestDvfsDesignSpace:
    def test_fixed_plane_is_bitwise_the_opt_plane(self):
        configs = small_family()
        # red and hist sum several launches and fills per candidate
        kw = dict(benchmarks=("vecop", "nbody", "red", "hist"), scale=0.1)
        base = evaluate_space(configs, **kw)
        swept = evaluate_dvfs(configs, governors=("fixed",), **kw)
        for p in swept.points:
            ref = base.point(p.config_name, "aggregate", "single", "Opt")
            assert p.seconds == ref.seconds
            assert p.watts == ref.watts
            assert p.energy_j == ref.energy_j

    def test_governor_sweep_shapes_and_deadline_pick(self):
        configs = small_family()
        swept = evaluate_dvfs(
            configs,
            benchmarks=("vecop",),
            scale=0.1,
            governors=("fixed", "powersave", "race_to_idle", "pace_to_deadline"),
            deadline_s=5.0,
        )
        assert len(swept.points) == len(configs) * 4
        for config in configs:
            sel = {
                p.governor: p
                for p in swept.select(precision="single")
                if p.config_name == config.name
            }
            assert sel["powersave"].seconds > sel["fixed"].seconds
            assert sel["race_to_idle"].seconds == sel["fixed"].seconds
            # window energies compare like for like: pace never above race
            assert sel["pace_to_deadline"].energy_j <= sel["race_to_idle"].energy_j
        pick = swept.deadline_pick()
        assert pick is not None
        assert pick.governor in dvfs.DEADLINE_POLICIES
        assert pick.seconds <= 5.0

    def test_frontier_is_a_skyline(self):
        swept = evaluate_dvfs(
            small_family(),
            benchmarks=("vecop",),
            scale=0.1,
            governors=("fixed", "powersave", "ondemand"),
        )
        frontier = swept.frontier_points()
        assert frontier
        for a in frontier:
            for b in frontier:
                assert not (
                    b.seconds <= a.seconds
                    and b.energy_j <= a.energy_j
                    and (b.seconds < a.seconds or b.energy_j < a.energy_j)
                )

    def test_validation(self):
        with pytest.raises(ValueError):
            evaluate_dvfs((), benchmarks=("vecop",), scale=0.1)
        with pytest.raises(ValueError):
            evaluate_dvfs(
                small_family(),
                benchmarks=("vecop",),
                scale=0.1,
                governors=("warp-speed",),
            )
        with pytest.raises(ValueError):  # policies need the deadline
            evaluate_dvfs(
                small_family(),
                benchmarks=("vecop",),
                scale=0.1,
                governors=("race_to_idle",),
            )


# ---------------------------------------------------------------------------
# power-layer hardening satellites
# ---------------------------------------------------------------------------


class TestPowerHardening:
    def test_stack_watts_rejects_negative_inputs(self):
        import numpy as np

        rails = PowerRailConfig()
        with pytest.raises(ValueError):
            stack_watts(
                rails, ActivityKind.GPU_KERNEL, dram_bandwidth=np.array([-1.0])
            )
        with pytest.raises(ValueError):
            stack_watts(
                rails,
                ActivityKind.GPU_KERNEL,
                dram_bandwidth=np.array([1e9, 1e9]),
                gpu_alu_utilization=np.array([0.5, -0.1]),
                gpu_ls_utilization=np.array([0.2, 0.2]),
            )
        with pytest.raises(ValueError):
            stack_watts(
                rails,
                ActivityKind.CPU,
                dram_bandwidth=np.array([1e9]),
                active_cpu_cores=np.array([1.0]),
                cpu_ipc=np.array([-0.5]),
            )

    def test_normalized_to_rejects_zero_power_baseline(self):
        report = EnergyReport(elapsed_s=1.0, mean_power_w=2.0, energy_j=2.0)
        zero = EnergyReport(elapsed_s=1.0, mean_power_w=0.0, energy_j=0.0)
        with pytest.raises(ValueError):
            report.normalized_to(zero)

    def test_lazy_repeat_is_observationally_identical(self):
        segments = (TraceSegment(0.013, 2.1), TraceSegment(0.007, 4.4))
        lazy = PowerTrace(segments).repeated(1000)
        dense = PowerTrace(segments * 1000)
        assert lazy.repeats == 1000
        assert len(lazy.segments) == 2  # never materialized
        assert lazy.duration_s == dense.duration_s
        assert lazy.energy_j == dense.energy_j
        assert lazy.power_at(7.7) == dense.power_at(7.7)
        # the meter samples both identically (same seed, same readings)
        a = YokogawaWT230(seed=7).measure(lazy)
        b = YokogawaWT230(seed=7).measure(dense)
        assert a.mean_power_w == b.mean_power_w
        assert a.n_samples == b.n_samples
        assert a.sample_std_w == b.sample_std_w

    def test_repeated_validates_times(self):
        trace = PowerTrace((TraceSegment(1.0, 1.0),))
        with pytest.raises(ValueError):
            trace.repeated(0)
        assert trace.repeated(3).repeated(2).repeats == 6
