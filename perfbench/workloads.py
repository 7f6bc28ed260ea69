"""The three perfbench workloads: set-up, timed operation, correctness check.

Each workload is a closed loop with one client: a sample runs one
``op``, and the next sample starts only after it ended.  The benchmark
seed reaches the program only as ``CampaignSpec(seed=)`` or
``DesignSpace(seed=)``.

This module is imported after ``import repro`` has been timed, and
calls into repro through module attributes (``exp.Campaign``,
``ds.evaluate_space``) so that a traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import repro.designspace as ds
import repro.experiments as exp
from repro import perf
from repro.benchmarks.base import Precision, Version
from repro.calibration.socspace import config_grid
from repro.experiments import paper_data
from repro.pareto import strictly_dominates

import metrics
from worker import Workers

PRECISIONS = (Precision.SINGLE, Precision.DOUBLE)

#: the paper's own failures (Fig. 2b: no DP amcd on OpenCL); expected
EXPECTED_FAILURES = frozenset(
    {
        ("amcd", Version.OPENCL, Precision.DOUBLE),
        ("amcd", Version.OPENCL_OPT, Precision.DOUBLE),
    }
)

#: the 4096-config grid of benchmarks/test_large_space.py
SPACE_AXES = dict(
    gpu_cores=(1, 2, 3, 4, 6, 8, 12, 16),
    gpu_clock_hz=(300e6, 416e6, 533e6, 600e6, 700e6, 800e6, 900e6, 1e9),
    dram_gbps=(6.4, 8.5, 10.6, 12.8, 14.9, 16.5, 21.2, 25.6),
    rail_scale=(0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0),
)
#: the streamed pass widens it by these axes (x8: 32768 configs)
STREAM_AXES = dict(register_file_scale=(0.5, 1.0, 2.0, 4.0), cpu_cores=(2, 4))

WORKER_READY_TIMEOUT_S = 60.0


@dataclass
class Context:
    """What one sample process knows about its place in the run."""

    seed: int
    work: Path
    index: int
    #: grid_distributed's workers, started before ``import repro``
    workers: Workers | None = None


@dataclass
class Check:
    """Outcome of a workload's correctness gate over its ops."""

    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    fidelity: dict | None = None
    extras: dict[str, float] = field(default_factory=dict)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def grid_spec(seed: int, scale: float):
    return exp.CampaignSpec(precisions=PRECISIONS, scale=scale, seed=seed)


def _label(key) -> str:
    bench, version, precision = key[:3]
    return f"{bench} [{precision.label}] {version.value}"


def grid_problems(spec, results) -> list[str]:
    """One entry per cell that crashed, timed out, was lost, returned
    ``ok`` unverified, or departs from the paper's modeled-failure set."""
    problems = []
    for task in spec.tasks():
        run = results.results.get(task.cell)
        expected = task.cell in EXPECTED_FAILURES
        if run is None:
            problems.append(f"{_label(task.cell)}: missing from the result")
        elif run.ok and not run.verified:
            problems.append(f"{_label(task.cell)}: ok but not verified")
        elif run.ok and expected:
            problems.append(f"{_label(task.cell)}: ran, but fails on the paper's platform")
        elif not run.ok and (not expected or run.failure_kind is not None):
            problems.append(f"{_label(task.cell)}: {run.failure}")
    return problems


def row_mismatches(text: str, reference: str) -> list[str]:
    """Cells whose serialized row differs from the reference JSON."""
    if text == reference:
        return []

    def rows(payload: str) -> dict:
        return {
            (r["benchmark"], r["version"], r["precision"]): r
            for r in json.loads(payload)["runs"]
        }

    ours, theirs = rows(text), rows(reference)
    out = [
        f"{'/'.join(key)}: differs from the reference run"
        for key in sorted(set(ours) | set(theirs))
        if ours.get(key) != theirs.get(key)
    ]
    return out or ["to_json differs from the reference run outside its rows"]


def fidelity(results) -> dict:
    """Simulated-fidelity scores of a paper-grid result set.

    ``speedup_err``/``energy_err``: relative distance of the §V-D means
    (Opt over Serial, SP+DP) from the paper's 8.7x and 0.32.
    ``in_bracket``: Fig. 2a/2b/3a/4a cells whose ratio lies within the
    paper's exact value, range or bound widened by ±10%; a ``missing``
    cell counts when the run failed.
    """
    summary = exp.summarize(results)
    speedup = paper_data.HEADLINE_SPEEDUP.lo
    energy = paper_data.HEADLINE_ENERGY.lo
    figures = (
        (paper_data.FIG2A_SPEEDUP, Precision.SINGLE, 0),
        (paper_data.FIG2B_SPEEDUP, Precision.DOUBLE, 0),
        (paper_data.FIG3A_POWER, Precision.SINGLE, 1),
        (paper_data.FIG4A_ENERGY, Precision.SINGLE, 2),
    )
    in_bracket = cells = 0
    for table, precision, column in figures:
        for bench, row in table.items():
            for version, value in row.items():
                cells += 1
                ratios = results.ratios(bench, version, precision)
                if value.kind is paper_data.Kind.MISSING:
                    in_bracket += ratios is None
                    continue
                if ratios is None:
                    continue
                lo = -math.inf if math.isnan(value.lo) else 0.9 * value.lo
                hi = math.inf if math.isnan(value.hi) else 1.1 * value.hi
                in_bracket += lo <= ratios[column] <= hi
    return {
        "opt_speedup_mean": summary.opt_speedup_mean,
        "opt_energy_mean": summary.opt_energy_mean,
        "speedup_err": abs(summary.opt_speedup_mean - speedup) / speedup,
        "energy_err": abs(summary.opt_energy_mean - energy) / energy,
        "in_bracket": in_bracket,
        "cells": cells,
    }


def memo_ratios(delta: dict) -> dict[str, float]:
    """Hit ratios of the perf memo caches."""
    out = {}
    for cache in metrics.MEMO_CACHES:
        stats = delta.get(cache, {})
        hits = stats.get("hits", 0)
        out[f"perf.{cache}.hit_ratio"] = metrics.ratio(hits, hits + stats.get("misses", 0))
    return out


def figures_text(results, report) -> str:
    """What ``repro figures`` prints after its campaign: every figure,
    the summary and the campaign report."""
    text = [exp.format_figure(series) for series in exp.all_figures(results, PRECISIONS)]
    text.append(exp.format_summary(exp.summarize(results)))
    text.append(report.describe())
    return "\n".join(text)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class GridCold:
    """A user's first journaled ``repro figures`` run: 9 benchmarks x 4
    versions x SP+DP at scale 1.0, ``jobs=1``, empty run cache, perf
    tier and journal, then the figure text.  The op then serves the same
    grid warm: ``Campaign.run`` over the cache it just filled (72 hits)
    and ``Campaign.resume`` of its completed journal (72 replays)."""

    name = "grid_cold"

    def setup(self, ctx: Context) -> None:
        self.spec = grid_spec(ctx.seed, 1.0)
        self.root = ctx.work / f"cold-{ctx.index}"

    def _campaign(self):
        return exp.Campaign(self.spec, cache_dir=self.root / "cache", perf_dir=self.root / "perf")

    def op(self):
        campaign = self._campaign()
        results = campaign.run(jobs=1, journal_dir=self.root / "journal")
        text = figures_text(results, campaign.report)
        warm = self._campaign()
        warm_results = warm.run(jobs=1)
        # resume appends to the journal; this op's journal is not reused
        resumed = exp.Campaign.resume(self.root / "journal")
        resumed_results = resumed.run(jobs=1)
        return (
            (results, campaign.report),
            (warm_results, warm.report),
            (resumed_results, resumed.report),
            text,
        )

    def check(self, ctx: Context, output) -> Check:
        (results, report), (warm, warm_report), (resumed, resumed_report), _ = output
        reference = results.to_json()
        size = self.spec.size
        check = Check(
            attempted=3 * size,
            problems=grid_problems(self.spec, results),
            digests={"to_json": sha256(reference)},
            fidelity=fidelity(results),
            extras=memo_ratios(report.perf or {}),
        )
        for label, served_results, served in (
            ("warm", warm, warm_report.cache_hits),
            ("resumed", resumed, resumed_report.replayed),
        ):
            check.problems += [
                f"{label} {p}" for p in row_mismatches(served_results.to_json(), reference)
            ]
            if served != size:
                check.problems.append(f"{label}: {served} of {size} cells served without executing")
        return check


class DesignSpace:
    """``repro designspace``-style sweep: build ``DesignSpace(scale=0.5)``
    (set-up), then a materialized ``evaluate_space`` over 4096 configs and
    a streamed, bound-pruned pass over 32768, with their frontiers."""

    name = "design_space"

    def setup(self, ctx: Context) -> None:
        self.memo_before = perf.counters()
        self.grid = config_grid(**SPACE_AXES)
        self.large = config_grid(**SPACE_AXES, **STREAM_AXES)
        self.space = ds.DesignSpace(scale=0.5, seed=ctx.seed)

    def op(self):
        seed = self.space.seed
        materialized = ds.evaluate_space(self.grid, scale=0.5, seed=seed, space=self.space)
        streamed = ds.evaluate_space(
            self.large, scale=0.5, seed=seed, space=self.space, stream=True
        )
        fronts = {
            p.value: (materialized.frontier_points(p.value), streamed.frontier_points(p.value))
            for p in PRECISIONS
        }
        return materialized, streamed, fronts

    def check(self, ctx: Context, output) -> Check:
        materialized, streamed, fronts = output
        check = Check(
            attempted=len(self.grid) + len(self.large),
            problems=frontier_problems(materialized, streamed, fronts),
        )
        check.digests["frontiers"] = sha256(
            json.dumps(
                {
                    precision: [[(p.config_name, p.seconds, p.energy_j) for p in front] for front in pair]
                    for precision, pair in fronts.items()
                }
            )
        )
        check.digests["streamed_to_dict"] = sha256(json.dumps(streamed.to_dict(), sort_keys=True))
        check.digests["materialized_points"] = points_digest(materialized.points)
        total = streamed.evaluated + streamed.pruned
        check.extras["designspace.priced_ratio"] = metrics.ratio(streamed.evaluated, total)
        check.extras.update(memo_ratios(perf.counters_delta(self.memo_before, perf.counters())))
        return check


def points_digest(points) -> str:
    """SHA-256 over what each design point reports.  Cheaper than
    ``to_dict()``, so every sample can hash the materialized pass."""
    h = hashlib.sha256()
    for p in points:
        h.update(
            repr((p.config_name, p.benchmark, p.precision, p.version, p.seconds, p.energy_j)).encode()
        )
    return h.hexdigest()


def _knobs(config) -> tuple:
    return (
        config.gpu_cores,
        config.gpu_clock_hz,
        config.cpu_cores,
        config.cpu_clock_hz,
        config.dram_gbps,
        config.register_file_scale,
        config.rail_scale,
    )


def frontier_problems(materialized, streamed, fronts) -> list[str]:
    """The streamed pass must agree with the materialized one.

    * every streamed point of a config both passes cover equals the
      materialized point of that config, bit for bit;
    * no materialized point strictly dominates a streamed frontier point;
    * every materialized frontier point is weakly dominated by a streamed
      frontier point.
    """
    problems = []
    covered = {_knobs(c): c.name for c in materialized.configs}
    by_name = {c.name: _knobs(c) for c in streamed.configs}
    shared = {covered[k] for k in by_name.values() if k in covered}
    mat = {
        (p.config_name, p.benchmark, p.precision, p.version): p
        for p in materialized.points
        if p.config_name in shared
    }
    for p in streamed.points:
        name = covered.get(by_name[p.config_name])
        if name is None:
            continue
        q = mat.get((name, p.benchmark, p.precision, p.version))
        if q is None or (q.seconds, q.watts, q.energy_j, q.feasible) != (
            p.seconds,
            p.watts,
            p.energy_j,
            p.feasible,
        ):
            problems.append(f"{p.config_name} {p.benchmark}/{p.precision}/{p.version}: passes disagree")
    for precision, (mat_front, stream_front) in fronts.items():
        slice_points = [p for p in materialized.select(precision=precision) if p.feasible]
        for p in stream_front:
            if any(strictly_dominates(q.seconds, q.energy_j, p.seconds, p.energy_j) for q in slice_points):
                problems.append(f"{precision} {p.config_name}: strictly dominated by a materialized point")
        for q in mat_front:
            if not any(p.seconds <= q.seconds and p.energy_j <= q.energy_j for p in stream_front):
                problems.append(f"{precision} {q.config_name}: not weakly dominated by the streamed frontier")
    return problems


class GridDistributed:
    """The 72-cell grid at scale 0.5 from cold on two fresh loopback
    ``repro worker`` processes via ``Campaign(workers=...)``."""

    name = "grid_distributed"
    workers_needed = 2

    def prepare(self, ctx: Context) -> tuple[float, Check]:
        """One inline run of the same spec: the byte-identity reference
        and the numerator of ``parallel_eff``."""
        spec = grid_spec(ctx.seed, 0.5)
        start = time.perf_counter()
        results = exp.Campaign(spec).run(jobs=1)
        elapsed = time.perf_counter() - start
        text = results.to_json()
        (ctx.work / "reference.json").write_text(text)
        check = Check(attempted=spec.size, problems=grid_problems(spec, results))
        check.digests["to_json"] = sha256(text)
        return elapsed, check

    def setup(self, ctx: Context) -> None:
        self.spec = grid_spec(ctx.seed, 0.5)
        self.work = ctx.work
        self.addresses = ctx.workers.wait_ready(WORKER_READY_TIMEOUT_S)

    def op(self):
        campaign = exp.Campaign(self.spec, workers=self.addresses)
        return campaign.run(jobs=1), campaign.report

    def check(self, ctx: Context, output) -> Check:
        results, report = output
        text = results.to_json()
        check = Check(
            attempted=self.spec.size,
            problems=grid_problems(self.spec, results),
            digests={"to_json": sha256(text)},
            extras=memo_ratios(report.perf or {}),
        )
        check.problems += row_mismatches(text, (self.work / "reference.json").read_text())
        check.problems += [f"degraded: {tier}" for tier in report.degraded]
        check.problems += ["chunk resubmitted after a lost worker"] * report.retries
        check.extras["experiments.remote.retries"] = report.retries
        return check


WORKLOADS = {cls.name: cls for cls in (GridCold, DesignSpace, GridDistributed)}
