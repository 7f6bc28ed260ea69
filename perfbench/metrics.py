"""Metric catalog and the statistics perfbench reports.

Every timing is host seconds on the monotonic clock; no metric here is
simulated device time (the simulated fidelity scores are printed apart,
labelled as such).
"""

from __future__ import annotations

import re
import statistics

#: the contract's metric-name grammar (BENCHMARK.json, result lines)
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

#: (name, unit, better) reported by every untraced run
END_TO_END: tuple[tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: span name → the self-time metric it feeds
SELF_TIME = {
    "benchmarks.setup": "benchmarks.setup.s",
    "benchmarks.run": "benchmarks.run.self_s",
    "benchmarks.functional": "benchmarks.functional.s",
    "benchmarks.verify": "benchmarks.verify.s",
    "ocl.launch": "ocl.launch.s",
    "perf.digest": "perf.digest.s",
    "compiler.compile": "compiler.compile.s",
    "ir.analyze": "ir.analyze.s",
    "optimizations.tune": "optimizations.tune.s",
    "pricing": "pricing.s",
    "power.meter": "power.meter.s",
    "calibration.platform": "calibration.platform.s",
    "designspace.build": "designspace.build.s",
    "designspace.rows": "designspace.rows.s",
    "designspace.points": "designspace.points.s",
    "designspace.bounds": "designspace.bounds.s",
    "designspace.evaluate": "designspace.evaluate.self_s",
    "pareto": "pareto.s",
    "experiments.cache.read": "experiments.cache.read_s",
    "experiments.cache.write": "experiments.cache.write_s",
    "experiments.journal.replay": "experiments.journal.replay_s",
    "experiments.journal.write": "experiments.journal.write_s",
    "experiments.engine": "experiments.engine.self_s",
    "experiments.report": "experiments.report.s",
    "experiments.remote.wait": "experiments.remote.wait_s",
    "experiments.remote.submit": "experiments.remote.submit_s",
    "experiments.remote.link": "experiments.remote.link_s",
    "experiments.remote.execute": "experiments.remote.execute_s",
    "setup": "other.setup_s",
    "op": "other.op_s",
}

#: span name → the call-count metric it feeds
CALLS = {
    "benchmarks.setup": "benchmarks.setup.calls",
    "benchmarks.functional": "benchmarks.functional.calls",
    "benchmarks.verify": "benchmarks.verify.calls",
    "ocl.launch": "ocl.launch.calls",
    "perf.digest": "perf.digest.calls",
    "compiler.compile": "compiler.compile.calls",
    "ir.analyze": "ir.analyze.calls",
    "optimizations.tune": "optimizations.tune.calls",
    "pricing": "pricing.calls",
    "power.meter": "power.meter.calls",
    "designspace.rows": "designspace.rows.calls",
    "pareto": "pareto.calls",
    "experiments.remote.submit": "experiments.remote.chunks",
}

MEMO_CACHES = ("compile", "analysis", "gpu_timing", "cpu_timing", "functional", "gpu_exec")

#: (name, unit, better) of every per-layer metric a traced run reports
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("import.s", "s", "lower"),
    *((name, "s", "lower") for name in SELF_TIME.values()),
    *((name, "count", "lower") for name in CALLS.values()),
    ("perf.digest.mb", "MB", "lower"),
    *((f"perf.{cache}.hit_ratio", "ratio", "higher") for cache in MEMO_CACHES),
    ("optimizations.tune.evaluated_ratio", "ratio", "lower"),
    ("designspace.priced_ratio", "ratio", "lower"),
    ("experiments.cache.hit_ratio", "ratio", "higher"),
    ("experiments.cache.mb_written", "MB", "lower"),
    ("experiments.journal.records", "count", "lower"),
    ("experiments.remote.dispatch_s", "s", "lower"),
    ("experiments.remote.retries", "count", "lower"),
    ("experiments.remote.worker_ready_s", "s", "lower"),
    ("experiments.remote.parallel_eff", "ratio", "higher"),
    ("experiments.protocol.mb", "MB", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}

#: percentiles considered for the tail figure, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 ≤ q ≤ 100)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def tail(values) -> tuple[float, float] | None:
    """``(q, value)`` for the highest percentile with ≥ 10 samples beyond
    it, or ``None`` when there are too few samples for any."""
    n = len(values)
    for q in TAIL_PERCENTILES:
        if round(n * (100.0 - q) / 100.0, 9) >= 10:
            return q, percentile(values, q)
    return None


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the
    median (the acceptance spread of the benchmark contract)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
