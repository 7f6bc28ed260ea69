"""Tests for the campaign engine: specs, parallel execution, cache, trace."""

import gc
import json
import os
import time
import weakref

import pytest

from repro.benchmarks import Precision, Version, create, run_version
from repro.experiments import (
    Campaign,
    CampaignSpec,
    ListTraceSink,
    ResultSet,
    RunCache,
    read_trace,
    run_grid,
)
from repro.experiments.cache import run_key

SMALL = dict(benchmarks=("vecop",), scale=0.02)
TWO_VERSIONS = (Version.SERIAL, Version.OPENCL)


class TestCampaignSpec:
    def test_normalizes_iterables(self):
        spec = CampaignSpec(benchmarks=["vecop"], versions=[Version.SERIAL],
                            precisions=[Precision.SINGLE])
        assert spec.benchmarks == ("vecop",)
        assert spec == CampaignSpec(benchmarks=("vecop",), versions=(Version.SERIAL,),
                                    precisions=(Precision.SINGLE,))

    def test_tasks_in_classic_order(self):
        spec = CampaignSpec(benchmarks=("vecop", "red"), versions=TWO_VERSIONS,
                            precisions=(Precision.SINGLE, Precision.DOUBLE))
        labels = [t.label for t in spec.tasks()]
        assert labels[:4] == ["vecop [SP] Serial", "vecop [SP] OpenCL",
                              "vecop [DP] Serial", "vecop [DP] OpenCL"]
        assert len(labels) == spec.size == 8

    def test_fingerprint_changes_with_spec(self):
        a = CampaignSpec(**SMALL)
        assert a.fingerprint() == CampaignSpec(**SMALL).fingerprint()
        assert a.fingerprint() != CampaignSpec(benchmarks=("vecop",), scale=0.04).fingerprint()
        assert a.fingerprint() != CampaignSpec(benchmarks=("vecop",), scale=0.02,
                                               seed=7).fingerprint()

    def test_run_fingerprint_ignores_grid_axes(self):
        """Different grids share cache entries (same run parameters)."""
        a = CampaignSpec(benchmarks=("vecop",), scale=0.02)
        b = CampaignSpec(benchmarks=("vecop", "red"), versions=TWO_VERSIONS, scale=0.02)
        assert a.run_fingerprint() == b.run_fingerprint()
        assert a.fingerprint() != b.fingerprint()

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            CampaignSpec(scale=0.0)


class TestParallelEquivalence:
    def test_jobs4_byte_identical_to_jobs1(self):
        spec = CampaignSpec(**SMALL)
        serial = Campaign(spec).run(jobs=1)
        parallel = Campaign(spec).run(jobs=4)
        assert parallel.to_json() == serial.to_json()

    def test_pool_report_includes_worker_perf_deltas(self):
        """Memo work done inside workers lands in CampaignReport.perf."""
        spec = CampaignSpec(benchmarks=("vecop", "red"), versions=TWO_VERSIONS,
                            scale=0.02)
        campaign = Campaign(spec)
        campaign.run(jobs=2)
        perf_delta = campaign.report.perf or {}
        assert sum(s.get("misses", 0) for s in perf_delta.values()) > 0

    def test_failed_runs_cross_the_pool(self):
        """The DP amcd driver failure must survive worker pickling."""
        spec = CampaignSpec(benchmarks=("amcd",), versions=(Version.OPENCL,),
                            precisions=(Precision.DOUBLE,), scale=0.05)
        # force the pool even for a single pending task
        serial = Campaign(spec).run(jobs=1)
        rs = run_grid(["amcd"], versions=(Version.SERIAL, Version.OPENCL),
                      precisions=(Precision.DOUBLE,), scale=0.05, jobs=2)
        run = rs.get("amcd", Version.OPENCL, Precision.DOUBLE)
        assert not run.ok and run.failure
        assert run.failure == serial.get("amcd", Version.OPENCL, Precision.DOUBLE).failure

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            Campaign(CampaignSpec(**SMALL)).run(jobs=0)


class TestDeprecatedPerfDir:
    """``perf_dir=`` survives as a no-op: one warning, nothing on disk,
    the same rows as a run without it."""

    @pytest.mark.parametrize("entry", ["Campaign", "resume"])
    def test_warns_once_and_changes_nothing(self, tmp_path, entry):
        import warnings

        spec = CampaignSpec(benchmarks=("vecop",), versions=TWO_VERSIONS, scale=0.02)
        journal = tmp_path / "journal"
        if entry == "resume":
            Campaign(spec).run(journal_dir=journal)

        def run(**kwargs) -> str:
            if entry == "Campaign":
                return Campaign(spec, **kwargs).run().to_json()
            return Campaign.resume(journal, **kwargs).run().to_json()

        expected = run()
        tier = tmp_path / "perf"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = run(perf_dir=tier)
        deprecations = [w for w in caught if issubclass(w.category, DeprecationWarning)]
        assert len(deprecations) == 1
        assert "perf_dir" in str(deprecations[0].message)
        assert not tier.exists()
        assert out == expected


class TestRunCacheEngine:
    def test_second_run_is_all_hits_and_identical(self, tmp_path):
        spec = CampaignSpec(**SMALL)
        cold = Campaign(spec, cache_dir=tmp_path)
        fresh = cold.run(jobs=1)
        assert cold.report.cache_hits == 0
        assert cold.report.cache_misses == spec.size
        warm = Campaign(spec, cache_dir=tmp_path)
        cached = warm.run(jobs=1)
        assert warm.report.cache_hits == spec.size
        assert warm.report.executed == 0
        assert warm.report.hit_rate == 1.0
        assert cached.to_json() == fresh.to_json()

    def test_partial_grid_reuses_entries(self, tmp_path):
        """A wider campaign hits the cells a narrower one computed."""
        narrow = CampaignSpec(benchmarks=("vecop",), versions=TWO_VERSIONS, scale=0.02)
        Campaign(narrow, cache_dir=tmp_path).run()
        wide = Campaign(
            CampaignSpec(benchmarks=("vecop", "red"), versions=TWO_VERSIONS, scale=0.02),
            cache_dir=tmp_path,
        )
        wide.run()
        assert wide.report.cache_hits == narrow.size

    def test_spec_change_invalidates_addressing(self, tmp_path):
        spec = CampaignSpec(**SMALL)
        Campaign(spec, cache_dir=tmp_path).run()
        changed = Campaign(CampaignSpec(benchmarks=("vecop",), scale=0.02, seed=99),
                           cache_dir=tmp_path)
        changed.run()
        assert changed.report.cache_hits == 0
        assert changed.report.cache_misses == spec.size

    def test_corrupt_entry_is_invalidated_and_recomputed(self, tmp_path):
        spec = CampaignSpec(benchmarks=("vecop",), versions=(Version.SERIAL,), scale=0.02)
        Campaign(spec, cache_dir=tmp_path).run()
        (entry,) = [p for p in tmp_path.rglob("*.json")]
        entry.write_text("{ not json")
        again = Campaign(spec, cache_dir=tmp_path)
        rs = again.run()
        assert again.report.cache_invalidated == 1
        assert again.report.cache_hits == 0
        assert rs.get("vecop", Version.SERIAL, Precision.SINGLE).ok
        # the eviction rewrote a good entry: third run hits
        third = Campaign(spec, cache_dir=tmp_path)
        third.run()
        assert third.report.cache_hits == 1

    def test_key_is_content_addressed(self):
        a = run_key("fp", "vecop", Version.SERIAL, Precision.SINGLE)
        assert a == run_key("fp", "vecop", Version.SERIAL, Precision.SINGLE)
        assert a != run_key("fp2", "vecop", Version.SERIAL, Precision.SINGLE)
        assert a != run_key("fp", "vecop", Version.OPENCL, Precision.SINGLE)
        assert len(a) == 64 and all(c in "0123456789abcdef" for c in a)

    def test_stats_accounting(self, tmp_path):
        cache = RunCache(tmp_path)
        assert cache.load("0" * 64) is None
        assert cache.stats.misses == 1 and cache.stats.hits == 0

    def test_entry_count_and_clear_handle_tmp_files(self, tmp_path):
        """Satellite: in-flight .tmp staging files are not entries, and
        clear() removes them without counting them."""
        spec = CampaignSpec(**SMALL)
        campaign = Campaign(spec, cache_dir=tmp_path)
        campaign.run()
        cache = campaign.cache
        stray = cache.root / "ab" / f"{'a' * 64}.{os.getpid()}.tmp"
        stray.parent.mkdir(exist_ok=True)
        stray.write_text("{}")
        assert cache.entry_count() == spec.size  # tmp not counted
        removed = cache.clear()
        assert removed == spec.size  # tmp removed but not counted
        assert not stray.exists()
        assert cache.entry_count() == 0

    def test_size_bytes_ignores_foreign_files(self, tmp_path):
        """Only run entries and staging files are run-cache bytes; a
        ``perf/`` tree that older versions left under the root is not."""
        spec = CampaignSpec(benchmarks=("vecop",), versions=TWO_VERSIONS, scale=0.02)
        campaign = Campaign(spec, cache_dir=tmp_path)
        campaign.run()
        cache = campaign.cache
        own = sum(p.stat().st_size for p in tmp_path.rglob("*.json"))
        assert own > 0 and cache.size_bytes() == own
        foreign = tmp_path / "perf" / "v2-1.0.0" / "compile" / "ab" / f"{'a' * 64}.pkl"
        foreign.parent.mkdir(parents=True)
        foreign.write_bytes(b"x" * 4096)
        assert cache.size_bytes() == own

    def test_cli_clear_removes_a_legacy_perf_tree(self, tmp_path, capsys):
        from repro.__main__ import main

        spec = CampaignSpec(benchmarks=("vecop",), versions=TWO_VERSIONS, scale=0.02)
        Campaign(spec, cache_dir=tmp_path).run()
        legacy = tmp_path / "perf" / "v2-1.0.0" / "compile" / "ab"
        legacy.mkdir(parents=True)
        for i in range(3):
            (legacy / f"{i}.pkl").write_bytes(b"x")
        assert main(["cache", "clear", "--cache-dir", str(tmp_path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "run_cache_removed": spec.size,
            "legacy_perf_tier_removed": 3,
        }
        assert not (tmp_path / "perf").exists()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "run_cache": {"path": str(tmp_path), "entries": 0, "size_bytes": 0}
        }

    def test_open_sweeps_stale_tmp_files(self, tmp_path):
        """Crash litter: tmp files of dead writers vanish on cache open;
        a live writer's staging file is left alone."""
        import multiprocessing

        shard = tmp_path / "cd"
        shard.mkdir(parents=True)
        proc = multiprocessing.Process(target=lambda: None)
        proc.start()
        proc.join()  # now certainly a dead pid
        dead = shard / f"{'c' * 64}.{proc.pid}.tmp"
        dead.write_text("{}")
        live = shard / f"{'d' * 64}.{os.getpid()}.tmp"
        live.write_text("{}")
        old = shard / f"{'e' * 64}.tmp"  # unattributable: no pid segment
        old.write_text("{}")
        two_hours_ago = time.time() - 7200
        os.utime(old, (two_hours_ago, two_hours_ago))
        fresh = shard / f"{'f' * 64}.tmp"
        fresh.write_text("{}")

        RunCache(tmp_path)  # opening the cache sweeps
        assert not dead.exists()
        assert live.exists()
        assert not old.exists()
        assert fresh.exists()


class TestTracing:
    def test_jsonl_schema_and_lifecycle(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        spec = CampaignSpec(benchmarks=("vecop",), versions=TWO_VERSIONS, scale=0.02)
        Campaign(spec, cache_dir=tmp_path / "cache", trace=path).run()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["event"] == "campaign_started"
        assert lines[-1]["event"] == "campaign_finished"
        assert lines[-1]["detail"]["executed"] == 2
        per_run = [l for l in lines if l["event"] in ("queued", "started", "finished")]
        assert len(per_run) == 3 * spec.size
        for line in per_run:
            assert {"event", "t_s", "benchmark", "version", "precision"} <= set(line)
        finished = [l for l in per_run if l["event"] == "finished"]
        for line in finished:
            assert line["cache"] == "miss"
            assert line["ok"] is True
            assert line["elapsed_s"] > 0

    def test_cache_hits_traced(self, tmp_path):
        spec = CampaignSpec(**SMALL)
        Campaign(spec, cache_dir=tmp_path / "cache").run()
        sink = ListTraceSink()
        Campaign(spec, cache_dir=tmp_path / "cache", trace=sink).run()
        finished = [e for e in sink.events if e.event == "finished"]
        assert [e.cache for e in finished] == ["hit"] * spec.size

    def test_read_trace_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        spec = CampaignSpec(benchmarks=("vecop",), versions=(Version.SERIAL,), scale=0.02)
        Campaign(spec, trace=path).run()
        events = read_trace(path)
        assert [e.event for e in events] == [
            "campaign_started", "queued", "started", "finished", "campaign_finished",
        ]
        assert events[3].cache == "off"  # no cache configured

    def test_read_trace_tolerates_unknown_keys(self, tmp_path):
        """Forward compat: keys from a newer writer fold into detail."""
        path = tmp_path / "trace.jsonl"
        rows = [
            {"event": "campaign_started", "t_s": 0.0, "gpu_temp_c": 61.5},
            {
                "event": "finished",
                "t_s": 0.1,
                "benchmark": "vecop",
                "detail": {"existing": 1},
                "novel_field": "kept",
            },
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        events = read_trace(path)
        assert events[0].detail == {"gpu_temp_c": 61.5}
        # unknown keys merge with (never clobber the shape of) detail
        assert events[1].detail == {"existing": 1, "novel_field": "kept"}
        assert events[1].benchmark == "vecop"


class TestResultSetComposition:
    def _grid(self, benchmarks, versions=TWO_VERSIONS):
        return run_grid(benchmarks, versions=versions, scale=0.02)

    def test_merge_composes_partial_campaigns(self):
        a = self._grid(["vecop"])
        b = self._grid(["red"])
        merged = a.merge(b)
        assert set(merged.results) == set(a.results) | set(b.results)
        assert merged.fingerprint is None  # different specs
        same = a.merge(self._grid(["vecop"]))
        assert same.fingerprint == a.fingerprint

    def test_merge_other_wins(self):
        a = self._grid(["vecop"])
        b = self._grid(["vecop"])
        merged = a.merge(b)
        assert merged.results[("vecop", Version.SERIAL, Precision.SINGLE)] is b.results[
            ("vecop", Version.SERIAL, Precision.SINGLE)
        ]

    def test_filter_restricts_axes(self):
        rs = self._grid(["vecop", "red"])
        only_vecop = rs.filter(benchmarks=["vecop"])
        assert only_vecop.benchmarks() == ["vecop"]
        assert only_vecop.fingerprint == rs.fingerprint  # provenance kept
        serial_only = rs.filter(versions=[Version.SERIAL])
        assert all(k[1] is Version.SERIAL for k in serial_only.results)
        assert rs.filter(precisions=[Precision.DOUBLE]).results == {}

    def test_schema2_carries_fingerprint(self):
        rs = self._grid(["vecop"])
        data = json.loads(rs.to_json())
        assert data["schema"] == 2
        assert data["fingerprint"] == rs.fingerprint
        assert ResultSet.from_json(rs.to_json()).fingerprint == rs.fingerprint

    def test_schema1_still_accepted(self):
        rs = self._grid(["vecop"])
        data = json.loads(rs.to_json())
        data["schema"] = 1
        del data["fingerprint"]
        loaded = ResultSet.from_json(json.dumps(data))
        assert loaded.fingerprint is None
        assert set(loaded.results) == set(rs.results)


class TestBoundedLifetime:
    """While a cell runs, the only live benchmark instance is its group's."""

    @staticmethod
    def _track(monkeypatch):
        """Record, at the start of every cell, the running instance and
        every instance ``create`` returned that is still alive."""
        from repro.experiments import engine

        made = []
        seen = []
        create, run_version = engine.create, engine.run_version

        def tracking_create(*args, **kwargs):
            bench = create(*args, **kwargs)
            made.append(weakref.ref(bench))
            return bench

        def checking_run_version(bench, **kwargs):
            gc.collect()
            live = [ref() for ref in made]
            seen.append(
                ((bench.name, bench.precision), [(b.name, b.precision) for b in live if b])
            )
            del live
            return run_version(bench, **kwargs)

        monkeypatch.setattr(engine, "create", tracking_create)
        monkeypatch.setattr(engine, "run_version", checking_run_version)
        return seen

    def test_inline_grid_holds_one_group(self, monkeypatch):
        seen = self._track(monkeypatch)
        spec = CampaignSpec(precisions=(Precision.SINGLE, Precision.DOUBLE), scale=0.05)
        Campaign(spec).run(jobs=1)
        assert len(seen) == spec.size
        for running, live in seen:
            assert live == [running]

    def test_family_entry_holds_one_group(self, monkeypatch):
        from repro.experiments.engine import _execute_family

        seen = self._track(monkeypatch)
        tasks = CampaignSpec(
            benchmarks=("vecop",), precisions=(Precision.SINGLE, Precision.DOUBLE), scale=0.05
        ).tasks()
        groups = tuple(
            tuple(t for t in tasks if t.precision is p) for p in (Precision.SINGLE, Precision.DOUBLE)
        )
        out, _ = _execute_family(groups)
        assert all(run.ok for group in out for run, _ in group)
        assert len(seen) == len(tasks)
        for running, live in seen:
            assert live == [running]


class TestWorkerEntry:
    def test_execute_run_matches_run_version(self):
        """A grid cell equals the same version run on a fresh instance."""
        direct = run_version(create("vecop", scale=0.02), version=Version.SERIAL)
        via_grid = run_grid(["vecop"], versions=(Version.SERIAL,), scale=0.02)
        assert direct == via_grid.get("vecop", Version.SERIAL, Precision.SINGLE)


class TestRunGridShim:
    def test_progress_and_cache_flags(self, tmp_path):
        seen = []
        rs = run_grid(["vecop"], versions=(Version.SERIAL,), scale=0.02,
                      progress=seen.append, cache_dir=tmp_path, jobs=1)
        assert seen == ["vecop [SP] Serial"]
        assert rs.fingerprint
        # warm: progress not called for cached cells
        seen.clear()
        run_grid(["vecop"], versions=(Version.SERIAL,), scale=0.02,
                 progress=seen.append, cache_dir=tmp_path)
        assert seen == []
