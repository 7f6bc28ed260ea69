"""Unit tests for the memory subsystem (patterns, cache, DRAM)."""

import pytest

from repro.errors import CalibrationError
from repro.ir.nodes import AccessPattern
from repro.memory import (
    CacheConfig,
    CacheHierarchy,
    CacheModel,
    DramConfig,
    DramModel,
    PatternEfficiency,
    StreamSpec,
    effective_bandwidth_fraction,
)


class TestPatternEfficiency:
    def test_factor_lookup(self):
        eff = PatternEfficiency()
        assert eff.factor(AccessPattern.UNIT) == eff.unit
        assert eff.factor(AccessPattern.GATHER) == eff.gather

    def test_blend_is_harmonic(self):
        eff = PatternEfficiency(unit=0.8, gather=0.2)
        blended = effective_bandwidth_fraction(
            {AccessPattern.UNIT: 100.0, AccessPattern.GATHER: 100.0}, eff
        )
        # times add: 100/0.8 + 100/0.2 = 625 -> 200/625 = 0.32
        assert blended == pytest.approx(0.32)

    def test_empty_stream_is_unit(self):
        assert effective_bandwidth_fraction({}, PatternEfficiency()) == 1.0

    def test_pure_stream_matches_factor(self):
        eff = PatternEfficiency()
        assert effective_bandwidth_fraction({AccessPattern.UNIT: 42.0}, eff) == pytest.approx(
            eff.unit
        )


class TestStreamSpec:
    def test_requested_bytes(self):
        s = StreamSpec("x", 1000.0, touches_per_byte=3.0)
        assert s.requested_bytes == 3000.0

    def test_window_defaults_to_footprint(self):
        assert StreamSpec("x", 1000.0).window == 1000.0

    def test_window_capped_by_footprint(self):
        s = StreamSpec("x", 1000.0, reuse_window_bytes=5000.0)
        assert s.window == 1000.0

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            StreamSpec("x", -1.0)
        with pytest.raises(ValueError):
            StreamSpec("x", 10.0, touches_per_byte=0.5)
        with pytest.raises(ValueError):
            StreamSpec("x", 10.0, reuse_window_bytes=-2.0)


class TestCacheModel:
    def setup_method(self):
        self.cache = CacheModel(CacheConfig(size_bytes=1024))

    def test_fully_resident_stream_only_compulsory(self):
        s = StreamSpec("x", 512.0, touches_per_byte=10.0)
        assert self.cache.miss_bytes(s, share_bytes=1024.0) == pytest.approx(512.0)

    def test_oversized_stream_misses_reuse(self):
        s = StreamSpec("x", 4096.0, touches_per_byte=2.0)
        missed = self.cache.miss_bytes(s, share_bytes=1024.0)
        # compulsory 4096 + reuse 4096 * (1 - 0.25)
        assert missed == pytest.approx(4096.0 + 4096.0 * 0.75)

    def test_small_window_saves_big_footprint(self):
        # stencil-like: huge footprint, tiny reuse distance
        s = StreamSpec("x", 1 << 20, touches_per_byte=7.0, reuse_window_bytes=512.0)
        missed = self.cache.miss_bytes(s, share_bytes=1024.0)
        assert missed == pytest.approx(float(1 << 20))  # compulsory only

    def test_hit_fraction_bounds(self):
        s = StreamSpec("x", 4096.0, touches_per_byte=3.0)
        for share in (0.0, 512.0, 4096.0):
            h = self.cache.hit_fraction(s, share_bytes=share)
            assert 0.0 <= h <= 1.0

    def test_shares_respect_windows(self):
        hot = StreamSpec("hot", 64.0, touches_per_byte=1000.0)
        bulk = StreamSpec("bulk", 1 << 20, touches_per_byte=1.0)
        shares = self.cache.shares([hot, bulk])
        # the hot stream never gets more than its window...
        assert shares["hot"] <= hot.window + 1e-9
        # ...and the excess goes to the bulk stream
        assert shares["bulk"] >= 1024.0 - hot.window - 1e-6

    def test_shares_keep_hot_streams_resident(self):
        # the histogram-bins scenario: tiny hot array + huge cold stream
        bins = StreamSpec("bins", 256.0, touches_per_byte=10_000.0)
        vals = StreamSpec("vals", 1 << 22, touches_per_byte=1.0)
        shares = self.cache.shares([bins, vals])
        model = self.cache
        assert model.resident_fraction(bins, shares["bins"]) == pytest.approx(1.0)


class TestCacheHierarchy:
    def setup_method(self):
        self.h = CacheHierarchy(
            CacheConfig(size_bytes=32 * 1024), CacheConfig(size_bytes=256 * 1024)
        )

    def test_dram_traffic_by_pattern(self):
        streams = [
            StreamSpec("a", 1 << 20, pattern=AccessPattern.UNIT),
            StreamSpec("b", 1 << 20, pattern=AccessPattern.STRIDED),
        ]
        traffic = self.h.dram_traffic(streams)
        assert traffic[AccessPattern.UNIT] == pytest.approx(float(1 << 20))
        assert traffic[AccessPattern.STRIDED] == pytest.approx(float(1 << 20))

    def test_resident_stream_produces_no_traffic_beyond_compulsory(self):
        streams = [StreamSpec("a", 64 * 1024, touches_per_byte=100.0)]
        traffic = self.h.dram_traffic(streams)
        assert traffic[AccessPattern.UNIT] == pytest.approx(64 * 1024.0)

    def test_gather_reuse_misses_amplified(self):
        big = float(1 << 22)
        gather = StreamSpec(
            "x", big, touches_per_byte=4.0, pattern=AccessPattern.GATHER, access_bytes=4.0
        )
        unit = StreamSpec("y", big, touches_per_byte=4.0, pattern=AccessPattern.UNIT)
        t_gather = self.h.dram_traffic([gather])[AccessPattern.GATHER]
        t_unit = self.h.dram_traffic([unit])[AccessPattern.UNIT]
        assert t_gather > 4.0 * t_unit  # line amplification

    def test_gather_compulsory_not_amplified(self):
        # fully resident gather: only compulsory traffic, no amplification
        small = StreamSpec(
            "x", 1024.0, touches_per_byte=100.0, pattern=AccessPattern.GATHER
        )
        traffic = self.h.dram_traffic([small])
        assert traffic[AccessPattern.GATHER] == pytest.approx(1024.0)

    def test_l1_hit_fraction_bounds(self):
        streams = [StreamSpec("a", 1 << 20), StreamSpec("b", 2048.0, touches_per_byte=50.0)]
        assert 0.0 <= self.h.l1_hit_fraction(streams) <= 1.0

    def test_empty_streams(self):
        assert self.h.dram_traffic([]) == {}
        assert self.h.l1_hit_fraction([]) == 1.0


class TestDramModel:
    def setup_method(self):
        self.dram = DramModel(DramConfig())

    def test_agent_caps(self):
        assert self.dram.agent_cap("cpu1") < self.dram.agent_cap("cpu2")
        assert self.dram.agent_cap("gpu") > self.dram.agent_cap("cpu2")
        with pytest.raises(ValueError):
            self.dram.agent_cap("tpu")

    def test_transfer_time_scales_with_bytes(self):
        t1 = self.dram.transfer_seconds("gpu", bytes_by_pattern={AccessPattern.UNIT: 1e6})
        t2 = self.dram.transfer_seconds("gpu", bytes_by_pattern={AccessPattern.UNIT: 2e6})
        assert t2 == pytest.approx(2 * t1)

    def test_pattern_slows_transfer(self):
        unit = self.dram.transfer_seconds("gpu", bytes_by_pattern={AccessPattern.UNIT: 1e6})
        strided = self.dram.transfer_seconds("gpu", bytes_by_pattern={AccessPattern.STRIDED: 1e6})
        assert strided > unit

    def test_contention_reduces_bandwidth(self):
        alone = self.dram.effective_bandwidth("cpu1", bytes_by_pattern={AccessPattern.UNIT: 1e6}, concurrent_agents=1)
        shared = self.dram.effective_bandwidth("cpu1", bytes_by_pattern={AccessPattern.UNIT: 1e6}, concurrent_agents=2)
        assert shared < alone

    def test_empty_transfer_is_free(self):
        assert self.dram.transfer_seconds("gpu", bytes_by_pattern={}) == 0.0


class TestConfigValidation:
    def test_negative_peak_rejected(self):
        with pytest.raises(CalibrationError):
            DramConfig(peak_bandwidth=-1.0)

    def test_cap_above_peak_rejected(self):
        with pytest.raises(CalibrationError):
            DramConfig(gpu_cap=100e9)

    def test_bad_cache_size_rejected(self):
        with pytest.raises(CalibrationError):
            CacheConfig(size_bytes=0)
