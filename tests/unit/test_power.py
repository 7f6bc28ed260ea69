"""Unit tests for the power stack: rails, trace, meter, energy."""

import numpy as np
import pytest

from repro.power import (
    Activity,
    ActivityKind,
    BoardPowerModel,
    EnergyReport,
    PowerRailConfig,
    PowerTrace,
    TraceSegment,
    YokogawaWT230,
)


def cpu_activity(duration=1.0, cores=1, ipc=1.0):
    return Activity(
        ActivityKind.CPU, duration, active_cpu_cores=cores, cpu_ipc=ipc, dram_bandwidth=1e9
    )


def gpu_activity(duration=1.0, alu=0.5, ls=0.3, bw=2e9):
    return Activity(
        ActivityKind.GPU_KERNEL, duration, gpu_alu_utilization=alu,
        gpu_ls_utilization=ls, dram_bandwidth=bw,
    )


class TestRails:
    def setup_method(self):
        self.rails = PowerRailConfig()

    def test_idle_is_floor(self):
        idle = self.rails.power(Activity(ActivityKind.IDLE, 1.0))
        assert idle == pytest.approx(self.rails.board_idle_w)

    def test_second_core_costs_more(self):
        one = self.rails.power(cpu_activity(cores=1))
        two = self.rails.power(cpu_activity(cores=2))
        assert two > one

    def test_ipc_raises_cpu_power(self):
        slow = self.rails.power(cpu_activity(ipc=0.3))
        fast = self.rails.power(cpu_activity(ipc=1.8))
        assert fast > slow

    def test_gpu_power_scales_with_utilization(self):
        lightly = self.rails.power(gpu_activity(alu=0.1, ls=0.1))
        heavily = self.rails.power(gpu_activity(alu=0.95, ls=0.8))
        assert heavily > lightly

    def test_memory_bound_gpu_below_serial_cpu(self):
        # the Figure 3 shape: spmv/vecop/hist GPU power < Serial power
        gpu = self.rails.power(gpu_activity(alu=0.05, ls=0.35, bw=3e9))
        serial = self.rails.power(cpu_activity(ipc=1.2, cores=1))
        assert gpu < serial

    def test_compute_bound_gpu_above_serial_cpu(self):
        gpu = self.rails.power(gpu_activity(alu=0.95, ls=0.6, bw=1e9))
        serial = self.rails.power(cpu_activity(ipc=1.2, cores=1))
        assert gpu > serial

    def test_invalid_utilization_rejected(self):
        with pytest.raises(ValueError):
            Activity(ActivityKind.GPU_KERNEL, 1.0, gpu_alu_utilization=1.5)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Activity(ActivityKind.IDLE, -1.0)


class TestPowerTrace:
    def test_energy_is_sum_of_segments(self):
        trace = PowerTrace((TraceSegment(2.0, 3.0), TraceSegment(1.0, 5.0)))
        assert trace.energy_j == pytest.approx(11.0)
        assert trace.duration_s == pytest.approx(3.0)
        assert trace.mean_power_w == pytest.approx(11.0 / 3.0)

    def test_power_at(self):
        trace = PowerTrace((TraceSegment(1.0, 3.0), TraceSegment(1.0, 5.0)))
        assert trace.power_at(0.5) == 3.0
        assert trace.power_at(1.5) == 5.0
        assert trace.power_at(99.0) == 5.0  # clamps to last segment

    def test_repeated(self):
        trace = PowerTrace((TraceSegment(1.0, 2.0),))
        rep = trace.repeated(5)
        assert rep.duration_s == pytest.approx(5.0)
        assert rep.energy_j == pytest.approx(10.0)
        with pytest.raises(ValueError):
            trace.repeated(0)

    def test_model_builds_trace_from_activities(self):
        model = BoardPowerModel()
        trace = model.trace([cpu_activity(0.5), gpu_activity(0.25)])
        assert len(trace.segments) == 2
        assert trace.duration_s == pytest.approx(0.75)

    def test_model_rejects_empty(self):
        with pytest.raises(ValueError):
            BoardPowerModel().trace([])

    def test_zero_duration_segments_dropped(self):
        model = BoardPowerModel()
        trace = model.trace([cpu_activity(0.0), gpu_activity(0.25)])
        assert len(trace.segments) == 1


class TestMeter:
    def test_mean_close_to_truth(self):
        trace = PowerTrace((TraceSegment(10.0, 4.2),))
        m = YokogawaWT230(seed=1).measure(trace)
        assert m.mean_power_w == pytest.approx(4.2, rel=0.005)
        assert m.n_samples == 100

    def test_noise_within_spec(self):
        trace = PowerTrace((TraceSegment(100.0, 5.0),))
        m = YokogawaWT230(seed=2).measure(trace)
        # per-sample noise is 0.1%: the mean of 1000 samples is far tighter
        assert abs(m.mean_power_w - 5.0) / 5.0 < 5 * 0.001 / np.sqrt(m.n_samples)

    def test_too_short_run_rejected(self):
        trace = PowerTrace((TraceSegment(0.01, 5.0),))
        with pytest.raises(ValueError, match="repeat the"):
            YokogawaWT230().measure(trace)

    def test_mixed_trace_weighted_mean(self):
        trace = PowerTrace((TraceSegment(5.0, 2.0), TraceSegment(5.0, 6.0))).repeated(4)
        m = YokogawaWT230(seed=3).measure(trace)
        assert m.mean_power_w == pytest.approx(4.0, rel=0.01)

    def test_min_duration(self):
        assert YokogawaWT230().min_duration_s(20) == pytest.approx(2.0)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            YokogawaWT230(sample_hz=0)
        with pytest.raises(ValueError):
            YokogawaWT230(accuracy=-0.1)

    def test_deterministic_with_seed(self):
        trace = PowerTrace((TraceSegment(10.0, 4.2),))
        m1 = YokogawaWT230(seed=42).measure(trace)
        m2 = YokogawaWT230(seed=42).measure(trace)
        assert m1.mean_power_w == m2.mean_power_w


class TestEnergyReport:
    def test_from_measurement(self):
        trace = PowerTrace((TraceSegment(10.0, 3.0),))
        m = YokogawaWT230(seed=0).measure(trace)
        report = EnergyReport.from_measurement(10.0, m)
        assert report.energy_j == pytest.approx(30.0, rel=0.01)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            EnergyReport(elapsed_s=-1.0, mean_power_w=1.0, energy_j=1.0)
