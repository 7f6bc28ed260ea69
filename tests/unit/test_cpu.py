"""Unit tests for the Cortex-A15 serial and OpenMP models."""

import pytest

from repro.calibration import default_platform
from repro.cpu import A15Config
from repro.ir import AccessPattern, F32, F64, KernelBuilder, OpKind, analyze
from repro.memory.cache import StreamSpec
from repro.pricing.cells import MODE_OPENMP, MODE_SERIAL, CpuCell
from repro.workload import WorkloadTraits


@pytest.fixture(scope="module")
def platform():
    return default_platform()


def mix_of(build):
    b = KernelBuilder("k")
    build(b)
    return analyze(b.build())


def compute_mix():
    return mix_of(lambda b: b.arith(OpKind.FMA, F32, count=16.0))


def stream_traits(nbytes):
    return WorkloadTraits(streams=(StreamSpec("a", float(nbytes)),), elements=1)


def price(platform, mode, mix, n, traits):
    cell = CpuCell(mix=mix, mode=mode, n_elements=n, traits=traits or stream_traits(4 * n))
    return platform.pricing_model().price_one(cell)


def run_serial(platform, mix, n, traits=None):
    return price(platform, MODE_SERIAL, mix, n, traits)


def run_omp(platform, mix, n, traits=None):
    return price(platform, MODE_OPENMP, mix, n, traits)


class TestA15Config:
    def test_fp_throughput_costs(self):
        cfg = A15Config()
        assert cfg.arith_cycles(OpKind.FMA, "f32", 1) == pytest.approx(1.0)
        assert cfg.arith_cycles(OpKind.ADD, "i32", 1) == pytest.approx(0.5)

    def test_fp64_penalty(self):
        cfg = A15Config()
        assert cfg.arith_cycles(OpKind.MUL, "f64", 1) > cfg.arith_cycles(OpKind.MUL, "f32", 1)

    def test_transcendentals_are_libm_expensive(self):
        cfg = A15Config()
        assert cfg.op_cycles[OpKind.EXP] > 50
        assert cfg.op_cycles[OpKind.RSQRT] > cfg.op_cycles[OpKind.SQRT]

    def test_accum_latency_by_op(self):
        cfg = A15Config()
        assert cfg.accum_latency(OpKind.FMA) == cfg.fp_mac_latency
        assert cfg.accum_latency(OpKind.ADD) == cfg.fp_add_latency
        assert cfg.fp_mac_latency > cfg.fp_add_latency


class TestSerial:
    def test_time_scales_with_elements(self, platform):
        mix = compute_mix()
        t1 = run_serial(platform, mix, 1 << 16)
        t2 = run_serial(platform, mix, 1 << 18)
        assert t2.seconds > 3 * t1.seconds

    def test_accumulation_chain_slower_than_throughput(self, platform):
        free = mix_of(lambda b: b.arith(OpKind.FMA, F32, count=8.0))
        chained = mix_of(lambda b: b.arith(OpKind.FMA, F32, count=8.0, accumulates=True))
        n = 1 << 18
        assert run_serial(platform, chained, n).seconds > 2 * run_serial(platform, free, n).seconds

    def test_bandwidth_bound_kernel_hits_dram_roofline(self, platform):
        # one load, no compute: time == DRAM time
        def build(b):
            b.buffer("a", F32)
            b.load(F32, param="a")

        mix = mix_of(build)
        n = 1 << 22
        t = run_serial(platform, mix, n)
        assert t.dram_seconds > 0
        assert t.seconds >= t.dram_seconds

    def test_irregular_misses_cost_more_than_streaming(self, platform):
        def gather(b):
            b.buffer("a", F32)
            b.load(F32, pattern=AccessPattern.GATHER, param="a", vectorizable=False)

        def stream(b):
            b.buffer("a", F32)
            b.load(F32, param="a")

        n = 1 << 20
        big = float(64 << 20)  # 64 MB working set: misses everywhere
        tr_gather = WorkloadTraits(
            streams=(StreamSpec("a", big, touches_per_byte=2.0, pattern=AccessPattern.GATHER),),
            elements=n,
        )
        tr_stream = WorkloadTraits(streams=(StreamSpec("a", big, touches_per_byte=2.0),), elements=n)
        t_gather = run_serial(platform, mix_of(gather), n, tr_gather)
        t_stream = run_serial(platform, mix_of(stream), n, tr_stream)
        assert t_gather.compute_seconds > t_stream.compute_seconds

    def test_ipc_is_positive_and_bounded(self, platform):
        t = run_serial(platform, compute_mix(), 1 << 16)
        assert 0.0 < t.ipc < 4.0

    def test_rejects_empty(self, platform):
        with pytest.raises(ValueError):
            run_serial(platform, compute_mix(), 0)


class TestOpenMP:
    def test_speedup_bounded_by_two_cores(self, platform):
        mix = compute_mix()
        n = 1 << 18
        serial = run_serial(platform, mix, n).seconds
        omp = run_omp(platform, mix, n).seconds
        assert 1.0 < serial / omp <= 2.0

    def test_amdahl_serial_fraction(self, platform):
        mix = compute_mix()
        n = 1 << 18
        free = WorkloadTraits(streams=stream_traits(4 * n).streams, elements=n)
        half_serial = WorkloadTraits(
            streams=stream_traits(4 * n).streams, serial_fraction=0.5, elements=n
        )
        t_free = run_omp(platform, mix, n, free)
        t_half = run_omp(platform, mix, n, half_serial)
        assert t_half.seconds > t_free.seconds

    def test_bandwidth_contention_limits_scaling(self, platform):
        # pure streaming: dual-core bandwidth is only ~1.4x single
        def build(b):
            b.buffer("a", F32)
            b.load(F32, param="a")

        mix = mix_of(build)
        n = 1 << 22
        speedup = run_serial(platform, mix, n).seconds / run_omp(platform, mix, n).seconds
        assert speedup < 1.6

    def test_imbalance_slows_down(self, platform):
        mix = compute_mix()
        n = 1 << 16
        even = WorkloadTraits(streams=stream_traits(4 * n).streams, elements=n)
        ragged = WorkloadTraits(
            streams=stream_traits(4 * n).streams, imbalance_cv=2.0, elements=n
        )
        assert run_omp(platform, mix, n, ragged).seconds > run_omp(platform, mix, n, even).seconds

    def test_two_cores_active(self, platform):
        t = run_omp(platform, compute_mix(), 1 << 16)
        assert t.active_cores == 2
