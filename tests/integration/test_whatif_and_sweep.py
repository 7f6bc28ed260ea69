"""Integration: what-if platforms, size sweeps, the CLI."""

import pytest

from repro.benchmarks import Precision, Version, create, run_version
from repro.calibration import default_platform
from repro.errors import CLError, CompilerError
from repro.experiments.sweep import format_sweep, run_size_sweep
from repro.optimizations.autotune import candidates
from repro.whatif import (
    compare_platforms,
    fixed_driver_platform,
    mali_t628_platform,
    mali_t760_platform,
    run_fixed_driver_amcd,
)


class TestWhatIfPlatforms:
    def test_t628_spec_deltas(self):
        base = default_platform()
        t628 = mali_t628_platform()
        assert t628.mali.shader_cores == 6
        assert t628.mali.clock_hz > base.mali.clock_hz
        assert t628.dram.peak_bandwidth > base.dram.peak_bandwidth
        # CPU side untouched
        assert t628.cpu == base.cpu

    def test_newer_gpus_are_faster(self):
        platforms = {
            "t604": default_platform(),
            "t628": mali_t628_platform(),
            "t760": mali_t760_platform(),
        }
        cmp = compare_platforms("dmmm", platforms, scale=0.1)
        assert cmp.speedup("t604") < cmp.speedup("t628") < cmp.speedup("t760")

    def test_fixed_driver_unlocks_dp_amcd(self):
        r = run_fixed_driver_amcd(scale=0.1)
        assert r.ok and r.verified
        # ... while the shipping driver still fails
        broken = create("amcd", precision=Precision.DOUBLE, scale=0.1)
        assert not run_version(broken, version=Version.OPENCL_OPT).ok

    def test_fixed_driver_platform_only_changes_quirks(self):
        base = default_platform()
        fixed = fixed_driver_platform()
        assert fixed.driver_quirks == ()
        assert base.driver_quirks is None
        assert fixed.mali == base.mali

    def test_empty_platform_dict_rejected(self):
        with pytest.raises(ValueError):
            compare_platforms("vecop", {})


class TestSizeSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return run_size_sweep("vecop", scales=(0.002, 0.02, 0.25))

    def test_points_ordered_by_scale(self, sweep):
        scales = [p.scale for p in sweep.points]
        assert scales == sorted(scales)
        assert len(sweep.points) == 3

    def test_speedup_grows_with_size(self, sweep):
        """Launch/driver overheads dominate tiny problems."""
        speedups = [p.speedup for p in sweep.points]
        assert speedups[0] < speedups[-1]

    def test_crossover_found_for_vecop(self, sweep):
        crossover = sweep.crossover_scale()
        assert crossover is not None
        assert crossover <= 0.25

    def test_format(self, sweep):
        text = format_sweep(sweep)
        assert "vecop" in text and "speedup" in text

    def test_dp_amcd_sweep_is_empty(self):
        sweep = run_size_sweep("amcd", scales=(0.05,), precision=Precision.DOUBLE)
        assert sweep.points == ()
        assert sweep.crossover_scale() is None


class TestCli:
    def run_cli(self, *argv):
        from repro.__main__ import main

        return main(list(argv))

    def test_describe(self, capsys):
        assert self.run_cli("describe") == 0
        out = capsys.readouterr().out
        assert "Mali-T604" in out and "Yokogawa" in out

    def test_run(self, capsys):
        assert self.run_cli("run", "vecop", "--scale", "0.05") == 0
        out = capsys.readouterr().out
        assert "OpenCL Opt" in out and "speedup" in out

    def test_tune(self, capsys):
        assert self.run_cli("tune", "vecop", "--scale", "0.05", "--top", "3") == 0
        out = capsys.readouterr().out
        assert "candidates" in out

        # --top N ranks the N fastest of all feasible candidates, each
        # as it prices on its own
        assert self.run_cli("tune", "dmmm", "--scale", "0.25", "--top", "10") == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
        bench = create("dmmm", scale=0.25)
        priced = []
        for options, local in candidates(bench, include_naive=True):
            try:
                seconds = bench.estimate_iteration_seconds(options, local)
            except (CompilerError, CLError):
                continue
            label = "driver" if local is None else f"L={local}"
            priced.append((seconds, options.describe(), label))
        fastest = sorted(priced, key=lambda p: p[0])[:10]
        assert len(priced) > 10
        assert rows == [[f"{s * 1e3:.3f}", "ms", name, label] for s, name, label in fastest]
        times = [float(row[0]) for row in rows]
        assert times == sorted(times)

    def test_roofline(self, capsys):
        assert self.run_cli("roofline", "--scale", "0.05") == 0
        out = capsys.readouterr().out
        assert "ridge" in out and "compute-bound" in out

    def test_sweep(self, capsys):
        assert self.run_cli("sweep", "vecop", "--scales", "0.01", "0.1") == 0
        out = capsys.readouterr().out
        assert "problem-size sweep" in out

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            self.run_cli("run", "quicksort")
