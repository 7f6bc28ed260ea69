"""Large design-space streaming: chunked + pruned vs materialize-then-reduce.

Sweeps a 4096-config SoC grid (8 core counts x 8 clocks x 8 DRAM
bandwidths x 8 rail scales) over the full benchmark suite two ways:

* **stream** — ``evaluate_space(stream=True)``: configs are priced in
  fixed-size chunks, each chunk's target-slice points feed per-precision
  :class:`~repro.pareto.OnlineFrontier` accumulators and are discarded,
  and the roofline/rail lower bound prunes configs whose best possible
  ``(seconds, energy)`` is already strictly dominated — most of the
  grid is never priced at all.  Peak resident points stay
  O(chunk + kept + frontier) instead of O(space).
* **materialize + O(n^2) reference** — the PR-7 path: every point of
  every config held in memory, then the all-pairs
  ``frontier_reference`` scan of ``tests/pricing_oracle.py`` per
  precision.

Both must produce the identical target-slice frontier.  The in-test
floors mirror the acceptance criteria: >=5x speedup and a
peak-resident witness at least 8x below the materialized point count;
the committed ``BENCH_large_space.json`` at the repo root records the
scale-1.0 numbers (see EXPERIMENTS.md).

The cell-grid build (kernel compiles + config-stack hoisting) is shared
by both paths and excluded from the timed region — a sweep pays it once
regardless of strategy — but is recorded as ``space_build_s``.

Regenerate with::

    PYTHONPATH=src python -m pytest benchmarks/test_large_space.py \
        --benchmark-only --benchmark-json=BENCH_large_space.json
"""

import json
import os
import time

from repro.calibration.socspace import config_grid
from repro.designspace import DesignSpace, evaluate_space
from tests.pricing_oracle import frontier_reference

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
ROUNDS = 5
SPEEDUP_FLOOR = 5.0
MEMORY_FACTOR_FLOOR = 8  # peak resident points at least 8x below the space
CHUNK = 256


def _grid():
    """4096 configs: 8 x 8 x 8 x 8 over the paper's scaling axes."""
    return config_grid(
        gpu_cores=(1, 2, 3, 4, 6, 8, 12, 16),
        gpu_clock_hz=(300e6, 416e6, 533e6, 600e6, 700e6, 800e6, 900e6, 1e9),
        dram_gbps=(6.4, 8.5, 10.6, 12.8, 14.9, 16.5, 21.2, 25.6),
        rail_scale=(0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0),
    )


def _build_space():
    t0 = time.perf_counter()
    space = DesignSpace(scale=SCALE)
    return space, time.perf_counter() - t0


def _stream(configs, space):
    return evaluate_space(
        configs, scale=SCALE, stream=True, chunk_size=CHUNK, space=space
    )


def _reference_frontiers(result):
    """The unpruned O(n^2) frontier of the materialized target slice."""
    return {
        precision: frontier_reference(
            result.select(benchmark=result.target_benchmark or "aggregate",
                          precision=precision, version="Opt")
        )
        for precision in result.precisions
    }


def test_large_space_stream(benchmark):
    """4096 configs streamed in chunks of 256 with bound pruning."""
    configs = _grid()
    assert len(configs) == 4096
    space, build_s = _build_space()
    result = benchmark.pedantic(
        lambda: _stream(configs, space), rounds=ROUNDS, iterations=1
    )
    assert result.evaluated + result.pruned == len(configs)
    benchmark.extra_info["space_build_s"] = round(build_s, 4)
    benchmark.extra_info["scale"] = SCALE
    benchmark.extra_info["configs"] = len(configs)
    benchmark.extra_info["chunk_size"] = CHUNK
    benchmark.extra_info["evaluated"] = result.evaluated
    benchmark.extra_info["pruned"] = result.pruned
    benchmark.extra_info["peak_resident_points"] = result.peak_resident
    benchmark.extra_info["frontier_sizes"] = {
        p: len(result.frontier_points(p)) for p in result.precisions
    }


def test_large_space_materialize_reference(benchmark):
    """The baseline: materialize all points, O(n^2) frontier scan."""
    configs = _grid()
    space, _ = _build_space()

    def run():
        result = evaluate_space(configs, scale=SCALE, space=space)
        return result, _reference_frontiers(result)

    result, _ = benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    benchmark.extra_info["scale"] = SCALE
    benchmark.extra_info["configs"] = len(configs)
    benchmark.extra_info["materialized_points"] = len(result.points)


def test_large_space_speedup_identity_and_memory(benchmark):
    """The PR's acceptance criteria, in one measured test:

    * streaming + pruning is >=5x the materialize-then-reduce baseline;
    * its frontier is byte-identical to the unpruned O(n^2) reference;
    * peak resident points sit >=8x below the materialized space.

    Identity and memory are asserted before any timing is read.  Under
    ``--benchmark-disable`` the fixture runs the streamed pass once and
    keeps no timings, so the floor takes the fastest of ``ROUNDS``
    passes timed here instead.
    """
    configs = _grid()
    space, build_s = _build_space()

    t0 = time.perf_counter()
    materialized = evaluate_space(configs, scale=SCALE, space=space)
    reference = _reference_frontiers(materialized)
    baseline_s = time.perf_counter() - t0

    streamed = benchmark.pedantic(
        lambda: _stream(configs, space), rounds=ROUNDS, iterations=1
    )

    def points_json(front):
        return json.dumps(
            [(p.config_name, p.version, p.seconds, p.energy_j) for p in front]
        )

    for precision, ref in reference.items():
        assert points_json(streamed.frontier_points(precision)) == points_json(ref)
    total_points = len(materialized.points)
    assert streamed.peak_resident * MEMORY_FACTOR_FLOOR <= total_points

    if benchmark.disabled:
        passes = []
        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            _stream(configs, space)
            passes.append(time.perf_counter() - t0)
        stream_s = min(passes)
    else:
        stream_s = benchmark.stats.stats.min
    speedup = baseline_s / stream_s
    benchmark.extra_info["space_build_s"] = round(build_s, 4)
    benchmark.extra_info["scale"] = SCALE
    benchmark.extra_info["configs"] = len(configs)
    benchmark.extra_info["materialized_points"] = total_points
    benchmark.extra_info["peak_resident_points"] = streamed.peak_resident
    benchmark.extra_info["evaluated"] = streamed.evaluated
    benchmark.extra_info["pruned"] = streamed.pruned
    benchmark.extra_info["baseline_s"] = round(baseline_s, 4)
    benchmark.extra_info["stream_s"] = round(stream_s, 4)
    benchmark.extra_info["speedup_vs_materialize_reference"] = round(speedup, 2)
    assert speedup >= SPEEDUP_FLOOR
