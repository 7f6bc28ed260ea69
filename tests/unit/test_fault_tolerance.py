"""Deterministic fault-injection tests of the crash-proof campaign engine.

Every recovery path of :mod:`repro.experiments.engine` is driven on
purpose through :mod:`repro.experiments.faults`: in-cell exceptions
captured as ``failure_kind="crash"`` results, worker kills recovered by
pool rebuild + the retry ladder, persistent crashers demoted after a
probe verdict, terminal errors salvaged with a fresh report and a
``campaign_failed`` trace event, hung cells demoted to
``failure_kind="timeout"`` by the deadline watchdog, and on-disk tiers
degrading (not failing) under resource exhaustion.  All pool tests
carry the SIGALRM timeout guard so a recovery bug hangs no one.
"""

import json
import time

import pytest

from repro.benchmarks import Precision, Version
from repro.experiments import (
    Campaign,
    CampaignSpec,
    Clock,
    DeadlineExceeded,
    ListTraceSink,
)
from repro.experiments.faults import (
    FaultSpec,
    InjectedAbort,
    InjectedCrash,
    attempts,
    injected,
)

TWO_VERSIONS = (Version.SERIAL, Version.OPENCL)
GRID = dict(benchmarks=("vecop", "red"), versions=TWO_VERSIONS, scale=0.02)
#: the cell every fault in this module targets
CELL = ("vecop", Version.OPENCL, Precision.SINGLE)


def vecop_fault(**kwargs) -> FaultSpec:
    return FaultSpec(benchmark="vecop", version=Version.OPENCL.value, **kwargs)


def crashed_cells(results):
    return [key for key, run in results.results.items() if run.crashed]


class TestCrashCapture:
    """Mode "raise": an unexpected in-cell exception never aborts."""

    @pytest.mark.timeout_guard(120)
    def test_inline_crash_becomes_result(self, tmp_path):
        spec = CampaignSpec(**GRID)
        sink = ListTraceSink()
        campaign = Campaign(spec, trace=sink)
        with injected(vecop_fault(mode="raise", times=-1), state_dir=tmp_path):
            results = campaign.run(jobs=1)
        assert len(results.results) == spec.size
        run = results.results[CELL]
        assert run.crashed and not run.ok
        assert run.failure.startswith("crash: InjectedCrash")
        assert "InjectedCrash" in run.diagnostics["traceback"]
        assert sum(1 for r in results.results.values() if r.ok) == spec.size - 1
        assert campaign.report.crashed_runs == (CELL,)
        assert campaign.report.failed_runs == (CELL,)
        events = [e.event for e in sink.events]
        assert "run_crashed" in events
        assert events[-1] == "campaign_finished"
        # the crashed run still has its full queued/started/finished arc
        crashed = [e for e in sink.events if e.event == "run_crashed"]
        assert crashed[0].detail["failure"] == run.failure
        assert "traceback" in crashed[0].detail

    @pytest.mark.timeout_guard(240)
    def test_pool_crash_byte_identical_to_inline(self, tmp_path):
        """Capture inside a worker produces the exact same ResultSet."""
        spec = CampaignSpec(**GRID)
        fault = vecop_fault(mode="raise", times=-1)
        with injected(fault, state_dir=tmp_path / "a"):
            inline = Campaign(spec).run(jobs=1)
        with injected(fault, state_dir=tmp_path / "b"):
            pooled = Campaign(spec).run(jobs=4)
        assert pooled.to_json() == inline.to_json()
        assert crashed_cells(pooled) == [CELL]

    @pytest.mark.timeout_guard(120)
    def test_crashes_are_not_cached(self, tmp_path):
        """A crash is not a fact: the warm rerun re-executes the cell."""
        spec = CampaignSpec(**GRID)
        with injected(vecop_fault(mode="raise", times=-1), state_dir=tmp_path / "s"):
            cold = Campaign(spec, cache_dir=tmp_path / "cache")
            cold.run(jobs=1)
        assert cold.cache.stats.writes == spec.size - 1
        warm = Campaign(spec, cache_dir=tmp_path / "cache")
        results = warm.run(jobs=1)
        assert warm.report.cache_hits == spec.size - 1
        assert warm.report.executed == 1
        assert results.results[CELL].ok  # fault gone, cell recovered

    @pytest.mark.timeout_guard(120)
    def test_inline_exit_fault_degrades_to_capture(self, tmp_path):
        """mode="exit" must never kill the in-process (jobs=1) path."""
        spec = CampaignSpec(**GRID)
        with injected(vecop_fault(mode="exit", times=-1), state_dir=tmp_path):
            results = Campaign(spec).run(jobs=1)
        run = results.results[CELL]
        assert run.crashed
        assert "injected worker kill (in-process)" in run.failure


class TestWorkerDeathRecovery:
    """Mode "exit": a hard os._exit in a pool worker."""

    @pytest.mark.timeout_guard(240)
    def test_kill_once_then_retry_succeeds(self, tmp_path):
        spec = CampaignSpec(**GRID)
        baseline = Campaign(spec).run(jobs=1)
        sink = ListTraceSink()
        campaign = Campaign(spec, trace=sink)
        with injected(vecop_fault(mode="exit", times=1), state_dir=tmp_path):
            results = campaign.run(jobs=4)
        # the kill cost one pool and at least one retry, nothing else
        assert all(run.ok for run in results.results.values())
        assert results.to_json() == baseline.to_json()
        assert campaign.report.pool_restarts == 1
        assert campaign.report.retries >= 1
        assert campaign.report.crashed_runs == ()
        events = [e.event for e in sink.events]
        assert "pool_restarted" in events
        assert events[-1] == "campaign_finished"
        # the cell was attempted exactly twice: the kill, then the retry
        assert attempts(tmp_path, *CELL) == 2

    @pytest.mark.timeout_guard(240)
    def test_persistent_killer_demoted_to_crash(self, tmp_path):
        spec = CampaignSpec(**GRID)
        sink = ListTraceSink()
        campaign = Campaign(spec, trace=sink, retries=2)
        with injected(vecop_fault(mode="exit", times=-1), state_dir=tmp_path):
            results = campaign.run(jobs=4)
        # complete ResultSet, only the killer cell marked crashed
        assert len(results.results) == spec.size
        run = results.results[CELL]
        assert run.crashed
        assert run.failure == "crash: worker process died executing this cell"
        assert sum(1 for r in results.results.values() if r.ok) == spec.size - 1
        report = campaign.report
        assert report.crashed_runs == (CELL,)
        assert CELL in report.failed_runs
        # ladder: family kill, single-task kill x retries, probe verdict
        assert report.pool_restarts == campaign.retries + 1
        assert report.retries >= campaign.retries + 1
        events = [e.event for e in sink.events]
        assert events.count("pool_restarted") == report.pool_restarts
        assert "run_crashed" in events
        assert events[-1] == "campaign_finished"
        assert "recovery:" in report.describe()
        assert "CRASHED vecop" in report.describe()

    @pytest.mark.timeout_guard(240)
    def test_byte_identical_across_jobs_under_injected_failures(self, tmp_path):
        """jobs=1 and jobs=4 agree byte-for-byte with a crasher present."""
        spec = CampaignSpec(
            benchmarks=("vecop", "red", "hist"), versions=TWO_VERSIONS, scale=0.02
        )
        fault = vecop_fault(mode="raise", times=-1)
        with injected(fault, state_dir=tmp_path / "a"):
            inline = Campaign(spec).run(jobs=1)
        with injected(fault, state_dir=tmp_path / "b"):
            pooled = Campaign(spec).run(jobs=4)
        assert inline.to_json() == pooled.to_json()
        data = json.loads(pooled.to_json())
        kinds = {
            (row["benchmark"], row["version"]): row["failure_kind"]
            for row in data["runs"]
        }
        assert kinds[("vecop", "OpenCL")] == "crash"
        assert all(k is None for cell, k in kinds.items() if cell != ("vecop", "OpenCL"))


class TestSalvage:
    """Mode "abort": terminal errors still leave a full account."""

    @pytest.mark.timeout_guard(120)
    def test_inline_terminal_error_salvages(self, tmp_path):
        spec = CampaignSpec(**GRID)
        sink = ListTraceSink()
        campaign = Campaign(spec, trace=sink)
        with injected(vecop_fault(mode="abort", times=-1), state_dir=tmp_path):
            with pytest.raises(InjectedAbort):
                campaign.run(jobs=1)
        # vecop Serial completed before the abort; it is salvaged
        assert campaign.salvage is not None
        assert ("vecop", Version.SERIAL, Precision.SINGLE) in campaign.salvage.results
        report = campaign.report
        assert report is not None
        assert report.error.startswith("InjectedAbort")
        assert report.total_runs == spec.size
        assert "TERMINATED" in report.describe()
        assert sink.events[-1].event == "campaign_failed"
        assert sink.events[-1].detail["error"] == report.error
        assert sink.events[-1].detail["completed"] == len(campaign.salvage.results)

    @pytest.mark.timeout_guard(240)
    def test_pool_terminal_error_salvages(self, tmp_path):
        spec = CampaignSpec(**GRID)
        sink = ListTraceSink()
        campaign = Campaign(spec, trace=sink)
        with injected(vecop_fault(mode="abort", times=-1), state_dir=tmp_path):
            with pytest.raises(InjectedAbort):
                campaign.run(jobs=4)
        assert campaign.report is not None and campaign.report.error
        assert sink.events[-1].event == "campaign_failed"

    @pytest.mark.timeout_guard(120)
    def test_reused_campaign_never_keeps_stale_report(self, tmp_path):
        """Satellite: report is reset on entry and set fresh on failure."""
        spec = CampaignSpec(**GRID)
        campaign = Campaign(spec)
        campaign.run(jobs=1)
        good_report = campaign.report
        assert good_report.error is None and campaign.salvage is None
        with injected(vecop_fault(mode="abort", times=-1), state_dir=tmp_path):
            with pytest.raises(InjectedAbort):
                campaign.run(jobs=1)
        assert campaign.report is not good_report
        assert campaign.report.error is not None
        # a successful rerun clears the salvage state again
        campaign.run(jobs=1)
        assert campaign.report.error is None
        assert campaign.salvage is None


class TestFaultSpecMechanics:
    def test_times_bounds_triggering(self, tmp_path):
        from repro.experiments import faults

        faults.install([FaultSpec(benchmark="x", times=2)], state_dir=tmp_path)
        try:
            for _ in range(2):
                with pytest.raises(InjectedCrash):
                    faults.maybe_crash("x", Version.SERIAL, Precision.SINGLE)
            faults.maybe_crash("x", Version.SERIAL, Precision.SINGLE)  # 3rd: clean
            assert attempts(tmp_path, "x", Version.SERIAL, Precision.SINGLE) == 3
        finally:
            faults.clear()

    def test_no_fault_is_a_noop(self):
        from repro.experiments import faults

        assert not faults.active()
        faults.maybe_crash("vecop", Version.SERIAL, Precision.SINGLE)

    def test_matching_is_cell_scoped(self, tmp_path):
        from repro.experiments import faults

        spec = FaultSpec(benchmark="vecop", version="OpenCL", precision="double")
        faults.install([spec], state_dir=tmp_path)
        try:
            faults.maybe_crash("vecop", Version.OPENCL, Precision.SINGLE)  # precision
            faults.maybe_crash("vecop", Version.SERIAL, Precision.DOUBLE)  # version
            faults.maybe_crash("red", Version.OPENCL, Precision.DOUBLE)  # benchmark
            with pytest.raises(InjectedCrash):
                faults.maybe_crash("vecop", Version.OPENCL, Precision.DOUBLE)
        finally:
            faults.clear()

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            FaultSpec(benchmark="x", mode="segfault")

    def test_campaign_rejects_bad_recovery_knobs(self):
        with pytest.raises(ValueError):
            Campaign(CampaignSpec(**GRID), retries=-1)
        with pytest.raises(ValueError):
            Campaign(CampaignSpec(**GRID), retry_backoff_s=-0.5)
        with pytest.raises(ValueError):
            Campaign(CampaignSpec(**GRID), cell_timeout_s=0.0)
        with pytest.raises(ValueError):
            Campaign(CampaignSpec(**GRID), deadline_s=-1.0)


class FakeClock:
    """Virtual time: ``sleep`` advances ``now`` instantly (no wall wait)."""

    def __init__(self) -> None:
        self.now = 0.0
        self.sleeps: list[float] = []

    def clock(self) -> Clock:
        return Clock(monotonic=lambda: self.now, sleep=self._sleep)

    def _sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


class TestInjectableClock:
    """Satellite: backoff and budgets read time only through Clock."""

    @pytest.mark.timeout_guard(240)
    def test_retry_backoff_uses_injected_sleep(self, tmp_path):
        fake = FakeClock()
        spec = CampaignSpec(**GRID)
        campaign = Campaign(
            spec, retries=2, retry_backoff_s=30.0, clock=fake.clock()
        )
        # kill the worker on the group attempt, the single retry, then
        # run clean: exactly one single-task requeue pays backoff
        with injected(vecop_fault(mode="exit", times=3), state_dir=tmp_path):
            t0 = time.monotonic()
            results = campaign.run(jobs=4)
            wall = time.monotonic() - t0
        assert all(run.ok for run in results.results.values())
        # backoff * 2**(attempts-1) with attempts == 2
        assert 60.0 in fake.sleeps
        assert wall < 30.0  # the 60s backoff was virtual, not slept

    def test_default_clock_is_real_time(self):
        clock = Clock()
        a = clock.monotonic()
        clock.sleep(0.01)
        assert clock.monotonic() >= a


class TestDeadlineWatchdog:
    """Modes "hang" + cell_timeout_s / deadline_s: stuck cells die."""

    @pytest.mark.timeout_guard(120)
    def test_inline_hang_demoted_to_timeout(self, tmp_path):
        spec = CampaignSpec(**GRID)
        sink = ListTraceSink()
        campaign = Campaign(spec, cell_timeout_s=0.5, trace=sink)
        with injected(
            vecop_fault(mode="hang", times=-1, seconds=30.0), state_dir=tmp_path
        ):
            results = campaign.run(jobs=1)
        run = results.results[CELL]
        assert run.timed_out and not run.ok and not run.crashed
        assert run.failure_kind == "timeout"
        assert "0.5s wall-clock budget" in run.failure
        assert sum(1 for r in results.results.values() if r.ok) == spec.size - 1
        assert campaign.report.timeout_runs == (CELL,)
        assert CELL in campaign.report.failed_runs
        events = [e.event for e in sink.events]
        assert "run_timed_out" in events
        assert events[-1] == "campaign_finished"
        assert "TIMEOUT vecop" in campaign.report.describe()

    @pytest.mark.timeout_guard(240)
    def test_pool_hang_killed_and_demoted(self, tmp_path):
        """The watchdog kills the stuck worker; the ladder narrows the
        hang to the one cell while every neighbour completes."""
        spec = CampaignSpec(**GRID)
        sink = ListTraceSink()
        campaign = Campaign(spec, cell_timeout_s=1.0, trace=sink)
        with injected(
            vecop_fault(mode="hang", times=-1, seconds=120.0), state_dir=tmp_path
        ):
            results = campaign.run(jobs=4)
        run = results.results[CELL]
        assert run.timed_out
        assert sum(1 for r in results.results.values() if r.ok) == spec.size - 1
        assert campaign.report.timeout_runs == (CELL,)
        assert campaign.report.pool_restarts >= 1
        events = [e.event for e in sink.events]
        assert "run_timed_out" in events
        assert events[-1] == "campaign_finished"

    @pytest.mark.timeout_guard(120)
    def test_timeouts_are_not_cached(self, tmp_path):
        spec = CampaignSpec(**GRID)
        with injected(
            vecop_fault(mode="hang", times=-1, seconds=30.0),
            state_dir=tmp_path / "s",
        ):
            cold = Campaign(spec, cache_dir=tmp_path / "cache", cell_timeout_s=0.5)
            cold.run(jobs=1)
        assert cold.cache.stats.writes == spec.size - 1
        warm = Campaign(spec, cache_dir=tmp_path / "cache")
        results = warm.run(jobs=1)
        assert warm.report.executed == 1
        assert results.results[CELL].ok  # fault gone, cell recovered

    @pytest.mark.timeout_guard(120)
    def test_hang_without_watchdog_finishes_late(self, tmp_path):
        """No budget armed → the fault delays, never corrupts."""
        spec = CampaignSpec(benchmarks=("vecop",), versions=TWO_VERSIONS, scale=0.02)
        with injected(
            vecop_fault(mode="hang", times=1, seconds=0.2), state_dir=tmp_path
        ):
            results = Campaign(spec).run(jobs=1)
        assert all(run.ok for run in results.results.values())

    @pytest.mark.timeout_guard(120)
    def test_deadline_terminates_and_salvages(self, tmp_path):
        spec = CampaignSpec(**GRID)
        sink = ListTraceSink()
        campaign = Campaign(spec, deadline_s=1.0, trace=sink)
        with injected(
            FaultSpec(benchmark="red", mode="hang", times=-1, seconds=30.0),
            state_dir=tmp_path,
        ):
            with pytest.raises(DeadlineExceeded):
                campaign.run(jobs=1, journal_dir=tmp_path / "j")
        assert campaign.salvage is not None
        assert campaign.report.error.startswith("DeadlineExceeded")
        assert sink.events[-1].event == "campaign_failed"
        # the journal makes the unfinished remainder resumable; cells
        # the deadline demoted to timeout results are *re-executed*
        # (operational accidents never replay), so the resumed grid is
        # whole and clean
        resumed = Campaign.resume(tmp_path / "j")
        results = resumed.run(jobs=1)
        assert len(results.results) == spec.size
        assert all(run.ok for run in results.results.values())
        salvaged_ok = sum(
            1 for run in campaign.salvage.results.values() if not run.operational_failure
        )
        assert resumed.report.replayed == salvaged_ok

    @pytest.mark.timeout_guard(120)
    def test_pool_deadline_terminates_and_salvages(self, tmp_path):
        """The pool twin of the deadline test: the hung worker is killed,
        the finished family is salvaged, and no pool is rebuilt."""
        spec = CampaignSpec(**GRID)
        sink = ListTraceSink()
        deadline_s = 3.0
        campaign = Campaign(spec, deadline_s=deadline_s, trace=sink)
        with injected(
            FaultSpec(benchmark="red", mode="hang", times=-1, seconds=30.0),
            state_dir=tmp_path,
        ):
            t0 = time.monotonic()
            with pytest.raises(DeadlineExceeded):
                campaign.run(jobs=4)
            elapsed = time.monotonic() - t0
        assert elapsed < deadline_s + 5.0
        assert set(campaign.salvage.results) == {
            ("vecop", version, Precision.SINGLE) for version in TWO_VERSIONS
        }
        assert campaign.report.pool_restarts == 0
        assert sink.events[-1].event == "campaign_failed"


class TestTierDegradation:
    """Mode "enospc": resource exhaustion disables a tier, not the run."""

    @pytest.mark.timeout_guard(120)
    def test_run_cache_degrades_and_keeps_serving(self, tmp_path):
        spec = CampaignSpec(**GRID)
        sink = ListTraceSink()
        campaign = Campaign(spec, cache_dir=tmp_path / "cache", trace=sink)
        with injected(
            FaultSpec(benchmark="run_cache", mode="enospc", times=-1),
            state_dir=tmp_path / "s",
        ):
            with pytest.warns(UserWarning, match="run cache .* degraded"):
                results = campaign.run(jobs=1)
        # every run completed; nothing was persisted
        assert all(run.ok for run in results.results.values())
        assert campaign.cache.degraded_reason is not None
        assert campaign.cache.stats.writes == 0
        assert any(d.startswith("run_cache:") for d in campaign.report.degraded)
        assert "DEGRADED run_cache" in campaign.report.describe()
        degraded = [e for e in sink.events if e.event == "tier_degraded"]
        assert [e.detail["tier"] for e in degraded] == ["run_cache"]

    @pytest.mark.timeout_guard(120)
    def test_degraded_cache_warns_once_and_stops_writing(self, tmp_path):
        import warnings as _warnings

        from repro.experiments.cache import RunCache

        spec = CampaignSpec(**GRID)
        with injected(
            FaultSpec(benchmark="run_cache", mode="enospc", times=-1),
            state_dir=tmp_path / "s",
        ):
            cache = RunCache(tmp_path / "cache")
            baseline = Campaign(spec).run(jobs=1)
            with _warnings.catch_warnings(record=True) as caught:
                _warnings.simplefilter("always")
                for key, run in enumerate(baseline.results.values()):
                    cache.store(f"{key:064d}", run)
        assert len([w for w in caught if "degraded" in str(w.message)]) == 1
        # the injection counter shows only the first write hit the disk
        assert attempts(tmp_path / "s", "run_cache", "disk", "enospc") == 1
