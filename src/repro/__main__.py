"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``figures``   — run the grid and print Figures 2/3/4 + the summary
* ``run``       — run one benchmark's four versions
* ``dvfs``      — DVFS governors and race/pace energy policies per benchmark
* ``tune``      — show the autotuner sweep for one benchmark
* ``sweep``     — problem-size sweep (Serial vs Opt crossover)
* ``roofline``  — place every benchmark on the device rooflines
* ``describe``  — print the simulated platform inventory
* ``whatif``    — next-generation-hardware and fixed-driver studies
* ``designspace`` — batch-price a SoC design space, print Pareto frontiers
* ``cache``     — inspect or clear the run cache
* ``resume``    — finish a journaled campaign whose process was killed
* ``worker``    — serve as a remote campaign worker (``--workers`` target)
"""

from __future__ import annotations

import argparse
import sys

from .benchmarks import PAPER_ORDER, Precision, Version, create, run_version
from .calibration import default_platform


def _precision(args) -> Precision:
    return Precision.DOUBLE if args.double else Precision.SINGLE


def cmd_figures(args) -> int:
    from .experiments import (
        Campaign,
        CampaignSpec,
        all_figures,
        format_figure,
        format_summary,
        summarize,
    )

    precisions = (
        (Precision.SINGLE,) if args.sp_only else (Precision.SINGLE, Precision.DOUBLE)
    )
    extra = {}
    if args.governors:
        governors = tuple(args.governors)
        # the figure builders normalize against the fixed-frequency
        # rows, so the fixed plane always rides along
        if "fixed" not in governors:
            governors = ("fixed",) + governors
        extra["governors"] = governors
    spec = CampaignSpec(
        scale=args.scale,
        precisions=precisions,
        energy_deadline_s=args.energy_deadline,
        **extra,
    )
    campaign = Campaign(
        spec,
        cache_dir=None if args.no_cache else args.cache_dir,
        trace=args.trace,
        retries=args.retries,
        cell_timeout_s=args.cell_timeout,
        deadline_s=args.deadline,
        workers=_workers(args),
    )
    results = campaign.run(jobs=args.jobs, journal_dir=args.journal_dir)
    for series in all_figures(results, precisions):
        print(format_figure(series))
        print()
    print(format_summary(summarize(results)))
    print()
    print(campaign.report.describe())
    if args.governors:
        governed = sorted(
            ((key, run) for key, run in results.results.items() if len(key) > 3),
            key=lambda kv: (kv[0][0], kv[0][1].value, kv[0][2].value, kv[0][3]),
        )
        if governed:
            print()
            print("governed runs (time/energy vs the fixed row):")
            for key, run in governed:
                benchmark, version, precision, governor = key
                if not run.ok:
                    print(
                        f"  {benchmark:8s} {version.value:11s} "
                        f"[{precision.label}] {governor:16s} FAILED: {run.failure}"
                    )
                    continue
                fixed = results.get(benchmark, version, precision)
                t_ratio = run.elapsed_s / fixed.elapsed_s if fixed.ok else float("nan")
                e_ratio = run.energy_j / fixed.energy_j if fixed.ok else float("nan")
                print(
                    f"  {benchmark:8s} {version.value:11s} [{precision.label}] "
                    f"{governor:16s} {run.elapsed_s * 1e3:9.3f} ms "
                    f"{run.energy_j:10.5f} J  (x{t_ratio:.2f} time, "
                    f"x{e_ratio:.2f} energy)"
                )
    return 0


def cmd_run(args) -> int:
    bench = create(args.benchmark, precision=_precision(args), scale=args.scale)
    print(f"{args.benchmark}: {bench.description}")
    baseline = None
    for version in Version:
        r = run_version(bench, version=version)
        if not r.ok:
            print(f"  {version.value:11s}  FAILED: {r.failure}")
            continue
        if baseline is None:
            baseline = r
        speedup, power, energy = r.relative_to(baseline)
        tag = r.options.describe() if r.options else ""
        print(
            f"  {version.value:11s} {r.elapsed_s * 1e3:9.3f} ms  "
            f"{r.mean_power_w:5.2f} W  speedup {speedup:6.2f}  energy {energy:5.2f}  {tag}"
        )
    return 0


def cmd_dvfs(args) -> int:
    """Per-benchmark DVFS study: governors and race/pace policies.

    The deadline of the energy policies defaults to ``--deadline-factor``
    times the benchmark's own fixed-frequency elapsed time, so every
    benchmark gets a feasible-but-tight budget; ``--deadline`` overrides
    it with one absolute figure.
    """
    from .power import dvfs

    precision = _precision(args)
    version = Version(args.version)
    governors = tuple(args.governors)
    for governor in governors:
        if governor not in dvfs.GOVERNORS:
            print(f"unknown governor {governor!r}; choose from {dvfs.GOVERNORS}")
            return 2
    benchmarks = (args.benchmark,) if args.benchmark else PAPER_ORDER
    for name in benchmarks:
        bench = create(name, precision=precision, scale=args.scale)
        fixed = run_version(bench, version=version)
        if not fixed.ok:
            print(f"{name}: fixed-frequency run failed: {fixed.failure}")
            continue
        deadline = (
            args.deadline
            if args.deadline is not None
            else args.deadline_factor * fixed.elapsed_s
        )
        print(
            f"{name} [{precision.label}] {version.value} — "
            f"deadline {deadline * 1e3:.3f} ms"
        )
        print(
            f"  {'governor':18s} {'OPP MHz':>8s} {'work ms':>9s} "
            f"{'power W':>8s} {'energy J':>10s}"
        )
        print(
            f"  {'fixed':18s} {bench.platform.mali.clock_hz / 1e6:8.1f} "
            f"{fixed.elapsed_s * 1e3:9.3f} {fixed.mean_power_w:8.3f} "
            f"{fixed.energy_j:10.5f}"
        )
        for governor in governors:
            if governor == dvfs.GOVERNOR_DEFAULT:
                continue
            r = run_version(
                bench,
                version=version,
                governor=governor,
                energy_deadline_s=deadline,
            )
            if not r.ok:
                print(f"  {governor:18s} FAILED: {r.failure}")
                continue
            info = r.diagnostics.get("dvfs", {})
            opp_mhz = info.get("opp_hz", float("nan")) / 1e6
            print(
                f"  {governor:18s} {opp_mhz:8.1f} {r.elapsed_s * 1e3:9.3f} "
                f"{r.mean_power_w:8.3f} {r.energy_j:10.5f}"
            )
        print()
    return 0


def cmd_tune(args) -> int:
    from .optimizations.autotune import sweep

    bench = create(args.benchmark, precision=_precision(args), scale=args.scale)
    result = sweep(bench)
    print(f"{args.benchmark} [{_precision(args).label}]: "
          f"{len(result.trials)} candidates, {result.n_infeasible} infeasible")
    feasible = sorted((t for t in result.trials if t.feasible), key=lambda t: t.seconds)
    for trial in feasible[: args.top]:
        local = "driver" if trial.local_size is None else f"L={trial.local_size}"
        print(f"  {trial.seconds * 1e3:9.3f} ms  {trial.options.describe():24s} {local}")
    return 0


def cmd_sweep(args) -> int:
    from .experiments.sweep import format_sweep, run_size_sweep

    sweep_result = run_size_sweep(
        args.benchmark,
        scales=tuple(args.scales),
        precision=_precision(args),
    )
    print(format_sweep(sweep_result))
    return 0


def cmd_roofline(args) -> int:
    from .analysis import cpu_roofline, format_roofline_chart, gpu_roofline, place
    from .compiler.options import NAIVE

    dp = args.double
    gpu = gpu_roofline(double_precision=dp)
    cpu = cpu_roofline(double_precision=dp)
    placements = []
    for name in PAPER_ORDER:
        bench = create(name, precision=_precision(args), scale=args.scale)
        ir = bench.kernel_ir(NAIVE)
        placements.append(
            place(
                ir,
                gpu,
                traits=bench.gpu_traits(NAIVE),
                caches=bench.platform.gpu_caches(),
                n_items=bench.gpu_work_items(),
            )
        )
    print(format_roofline_chart(placements))
    print(f"\nCPU ridge for comparison: {cpu.ridge_intensity:.2f} flop/byte "
          f"({cpu.peak_flops / 1e9:.1f} GF)")
    return 0


def cmd_describe(args) -> int:
    platform = default_platform()
    print(platform.mali.describe())
    print()
    print(f"CPU: {platform.cpu.cores}x Cortex-A15 @ {platform.cpu.clock_hz / 1e9:.1f} GHz")
    print(f"DRAM: {platform.dram.peak_bandwidth / 1e9:.1f} GB/s peak "
          f"(GPU cap {platform.dram.gpu_cap / 1e9:.1f} GB/s)")
    print(f"Meter: Yokogawa WT230 @ {platform.meter_sample_hz:.0f} Hz, "
          f"{platform.meter_accuracy:.1%} accuracy")
    return 0


def cmd_whatif(args) -> int:
    from .whatif import (
        compare_platforms,
        fixed_driver_platform,
        mali_t628_platform,
        mali_t760_platform,
        run_fixed_driver_amcd,
    )

    platforms = {
        "Mali-T604 (paper)": default_platform(),
        "Mali-T628 MP6": mali_t628_platform(),
        "Mali-T760 MP8": mali_t760_platform(),
    }
    print(f"next-generation hardware: {args.benchmark} Opt speedup over Serial")
    cmp = compare_platforms(args.benchmark, platforms, scale=args.scale)
    for name in platforms:
        speedup = cmp.speedup(name)
        print(f"  {name:20s} {'FAILED' if speedup is None else f'{speedup:6.2f}x'}")

    print("\nfixed-driver counterfactual: double-precision amcd")
    r = run_fixed_driver_amcd(scale=args.scale)
    if r.ok:
        bench = create("amcd", precision=Precision.DOUBLE, scale=args.scale,
                       platform=fixed_driver_platform())
        serial = run_version(bench, version=Version.SERIAL)
        speedup, _, energy = r.relative_to(serial)
        print(f"  compiles and runs: speedup {speedup:.2f}x, energy {energy:.2f} "
              f"({r.options.describe()})")
    else:  # pragma: no cover - defensive
        print(f"  still failing: {r.failure}")
    return 0


def cmd_designspace(args) -> int:
    from .calibration.socspace import EXYNOS_5250, default_space, load_configs
    from .designspace import (
        AGGREGATE,
        equal_energy_speedup,
        equal_time_energy,
        evaluate_space,
        export_frontier,
        frontier,
    )

    configs = load_configs(args.configs) if args.configs else default_space()
    precisions = (
        (Precision.SINGLE,) if args.sp_only else (Precision.SINGLE, Precision.DOUBLE)
    )
    benchmark = args.benchmark or AGGREGATE
    result = evaluate_space(
        configs, precisions=precisions, scale=args.scale, seed=args.seed,
        jobs=args.jobs, stream=args.stream, chunk_size=args.chunk_size,
        prune=not args.no_prune, target_benchmark=benchmark, trace=args.trace,
    )
    print(result.describe())
    for precision in result.precisions:
        pool = result.select(benchmark=benchmark, precision=precision, version="Opt")
        front = frontier(pool)
        # a streamed result keeps only the kept and frontier configs'
        # points, so its frontier counts against the whole swept space
        out_of = (
            f"{result.evaluated + result.pruned} swept configs"
            if result.mode == "stream"
            else f"{len(pool)} configs"
        )
        print(f"\nPareto frontier — {benchmark} [{precision}], Opt "
              f"({len(front)} of {out_of}):")
        print(f"  {'config':28s} {'seconds':>10s} {'watts':>7s} {'energy J':>9s}")
        for p in front:
            print(f"  {p.config_name:28s} {p.seconds:10.4f} {p.watts:7.2f} "
                  f"{p.energy_j:9.4f}")
        try:
            ref = result.point(EXYNOS_5250.name, benchmark, precision, "Serial")
        except KeyError:
            continue
        print(f"  vs exynos5250 Serial ({ref.seconds:.4f} s, {ref.energy_j:.4f} J):")
        ees = equal_energy_speedup(pool, ref)
        if ees is None:
            print("    equal-energy speedup: none (every Opt spends more energy)")
        else:
            print(f"    equal-energy speedup: {ees[0]:.2f}x ({ees[1].config_name})")
        ete = equal_time_energy(pool, ref)
        if ete is None:
            print("    equal-time energy: none (every Opt is slower)")
        else:
            print(f"    equal-time energy: {ete[0]:.4f} J ({ete[1].config_name})")
    if args.governors or args.deadline is not None:
        from .designspace import evaluate_dvfs

        dvfs_result = evaluate_dvfs(
            configs,
            precisions=precisions,
            scale=args.scale,
            seed=args.seed,
            governors=tuple(args.governors) if args.governors else None,
            benchmark=benchmark,
            deadline_s=args.deadline,
        )
        for precision in dvfs_result.precisions:
            front = dvfs_result.frontier_points(precision=precision)
            print(f"\nDVFS frontier — {benchmark} [{precision}] "
                  f"({len(front)} of {len(dvfs_result.select(precision=precision))}"
                  f" points):")
            print(f"  {'config':28s} {'governor':16s} {'OPP MHz':>8s} "
                  f"{'seconds':>10s} {'energy J':>9s}")
            for p in front:
                print(f"  {p.config_name:28s} {p.governor:16s} "
                      f"{p.opp_hz / 1e6:8.1f} {p.seconds:10.4f} {p.energy_j:9.4f}")
            if args.deadline is not None:
                pick = dvfs_result.deadline_pick(precision=precision)
                if pick is None:
                    print(f"  deadline {args.deadline:g}s: no (config, governor) "
                          "meets the budget")
                else:
                    print(f"  deadline {args.deadline:g}s pick: {pick.config_name} "
                          f"@{pick.governor} ({pick.opp_hz / 1e6:.1f} MHz, "
                          f"{pick.energy_j:.4f} J)")
    if args.export_frontier:
        n_rows = export_frontier(
            result, args.export_frontier, benchmark=benchmark,
            include_dominated=args.export_dominated,
        )
        print(f"\nwrote {n_rows} frontier rows to {args.export_frontier}")
    if args.output:
        import json as _json

        with open(args.output, "w", encoding="utf-8") as fh:
            _json.dump(result.to_dict(), fh, indent=2)
        print(f"\nwrote {args.output}")
    return 0


def _workers(args) -> tuple[str, ...] | None:
    """Parse ``--workers host:port,host:port`` into an address tuple."""
    raw = getattr(args, "workers", None)
    if not raw:
        return None
    return tuple(addr.strip() for addr in raw.split(",") if addr.strip())


def cmd_cache(args) -> int:
    import json as _json

    from .experiments.cache import RunCache

    run_cache = RunCache(args.cache_dir)

    if args.action == "path":
        if args.json:
            print(_json.dumps({"run_cache": str(run_cache.root)}, indent=2, sort_keys=True))
        else:
            print(f"run cache: {run_cache.root}")
        return 0

    if args.action == "clear":
        payload = {
            "run_cache_removed": run_cache.clear(),
            "legacy_perf_tier_removed": run_cache.clear_legacy_perf_tier(),
        }
        if args.json:
            print(_json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(f"run cache: removed {payload['run_cache_removed']} entries")
            if payload["legacy_perf_tier_removed"]:
                print(f"legacy perf tier: removed "
                      f"{payload['legacy_perf_tier_removed']} files")
        return 0

    # stats
    payload = {
        "run_cache": {
            "path": str(run_cache.root),
            "entries": run_cache.entry_count(),
            "size_bytes": run_cache.size_bytes(),
        },
    }
    if args.json:
        print(_json.dumps(payload, indent=2, sort_keys=True))
        return 0
    rc = payload["run_cache"]
    print(f"run cache: {rc['path']}")
    print(f"  entries: {rc['entries']}, size: {rc['size_bytes']} bytes")
    return 0


def cmd_resume(args) -> int:
    from pathlib import Path

    from .experiments import Campaign

    campaign = Campaign.resume(
        args.journal_dir,
        cache_dir=None if args.no_cache else args.cache_dir,
        trace=args.trace,
        retries=args.retries,
        cell_timeout_s=args.cell_timeout,
        deadline_s=args.deadline,
        workers=_workers(args),
    )
    results = campaign.run(jobs=args.jobs)
    if args.save:
        Path(args.save).write_text(results.to_json())
        print(f"saved {len(results.results)} runs to {args.save}")
    print(campaign.report.describe())
    return 0


def cmd_worker(args) -> int:
    from .experiments import serve_worker

    try:
        serve_worker(
            args.host,
            args.port,
            announce=lambda line: print(line, flush=True),
        )
    except KeyboardInterrupt:
        print("worker stopped", flush=True)
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, benchmark=False):
        p.add_argument("--scale", type=float, default=0.5)
        p.add_argument("--double", action="store_true", help="double precision")
        if benchmark:
            p.add_argument("benchmark", choices=PAPER_ORDER)

    p = sub.add_parser("figures", help="regenerate Figures 2/3/4")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--sp-only", action="store_true")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="parallel worker processes (1 = in-process)")
    p.add_argument("--cache-dir", default=".repro_cache", metavar="DIR",
                   help="content-addressed run cache directory")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the run cache")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write per-run trace events to a JSONL file")
    p.add_argument("--retries", type=int, default=2, metavar="N",
                   help="times a cell whose pool worker died is retried "
                        "before it is recorded as a crashed run")
    p.add_argument("--journal-dir", default=None, metavar="DIR",
                   help="write a durable checkpoint journal; a killed "
                        "campaign is finished with `repro resume DIR`")
    p.add_argument("--cell-timeout", type=float, default=None, metavar="S",
                   help="wall-clock budget per grid cell; overruns are "
                        "recorded as timeout results")
    p.add_argument("--deadline", type=float, default=None, metavar="S",
                   help="wall-clock budget for the whole campaign "
                        "(overrun terminates with DeadlineExceeded)")
    p.add_argument("--governors", nargs="+", default=None, metavar="GOV",
                   help="extend the grid with a DVFS governor axis "
                        "(performance / powersave / ondemand / race_to_idle "
                        "/ pace_to_deadline); the fixed plane always rides "
                        "along as the figures baseline")
    p.add_argument("--energy-deadline", type=float, default=None, metavar="S",
                   help="per-cell deadline for the race_to_idle / "
                        "pace_to_deadline energy policies (unrelated to "
                        "--deadline, the campaign watchdog budget)")
    p.add_argument("--workers", default=None, metavar="HOST:PORT,...",
                   help="distribute execution across remote `repro worker` "
                        "processes (comma-separated addresses); losing "
                        "every worker degrades back to local execution")
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("run", help="run one benchmark's four versions")
    common(p, benchmark=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "dvfs",
        help="DVFS governors and race/pace energy policies per benchmark",
        description="Runs each benchmark under the DVFS governors and "
                    "compares work time, mean power and energy against the "
                    "fixed-frequency run; the race_to_idle / "
                    "pace_to_deadline policies get a per-benchmark deadline "
                    "(--deadline-factor x the fixed elapsed time, or an "
                    "absolute --deadline).",
    )
    p.add_argument("benchmark", nargs="?", choices=PAPER_ORDER, default=None,
                   help="one benchmark (default: all nine)")
    p.add_argument("--scale", type=float, default=0.5)
    p.add_argument("--double", action="store_true", help="double precision")
    p.add_argument("--version", default=Version.OPENCL_OPT.value,
                   choices=[v.value for v in Version],
                   help="benchmark version to govern (default: OpenCL-Opt)")
    p.add_argument("--governors", nargs="+", metavar="GOV",
                   default=["performance", "powersave", "ondemand",
                            "race_to_idle", "pace_to_deadline"],
                   help="governors to run (default: all)")
    p.add_argument("--deadline", type=float, default=None, metavar="S",
                   help="absolute energy deadline for race/pace")
    p.add_argument("--deadline-factor", type=float, default=1.5, metavar="X",
                   help="deadline as a multiple of the fixed elapsed time "
                        "(default: 1.5)")
    p.set_defaults(func=cmd_dvfs)

    p = sub.add_parser("tune", help="autotuner sweep for one benchmark")
    common(p, benchmark=True)
    p.add_argument("--top", type=int, default=8)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("sweep", help="problem-size sweep")
    common(p, benchmark=True)
    p.add_argument("--scales", type=float, nargs="+", default=[0.01, 0.05, 0.25, 1.0])
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("roofline", help="roofline placement of all kernels")
    common(p)
    p.set_defaults(func=cmd_roofline)

    p = sub.add_parser("describe", help="print the simulated platform")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("whatif", help="future hardware / fixed driver studies")
    common(p, benchmark=True)
    p.set_defaults(func=cmd_whatif)

    p = sub.add_parser(
        "designspace",
        help="batch-price a SoC design space, print Pareto frontiers",
        description="Evaluates the (configs x benchmarks x versions x "
                    "precisions) hypercube with the stacked pricing engine "
                    "and prints energy/performance Pareto frontiers plus "
                    "equal-energy / equal-time queries against the measured "
                    "Exynos 5250 point.",
    )
    p.add_argument("--configs", default=None, metavar="FILE",
                   help="JSON design-space file (default: the built-in "
                        "64-config sweep)")
    p.add_argument("--benchmark", default=None, choices=PAPER_ORDER,
                   help="frontier of one benchmark (default: the "
                        "across-benchmarks aggregate)")
    p.add_argument("--scale", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--sp-only", action="store_true",
                   help="single precision only")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="parallel worker processes (1 = in-process)")
    p.add_argument("--stream", action="store_true",
                   help="chunked streaming evaluation with bound-based "
                        "pruning: memory stays O(chunk + frontier) instead "
                        "of O(space); same frontier as a full evaluation")
    p.add_argument("--chunk-size", type=_positive_int, default=256,
                   metavar="N", help="configs priced per streaming chunk "
                                     "(default: 256)")
    p.add_argument("--no-prune", action="store_true",
                   help="stream without the roofline/rail lower-bound "
                        "config pruning")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="append JSONL space_started / space_chunk_finished "
                        "/ space_finished progress events")
    p.add_argument("--export-frontier", default=None, metavar="PATH",
                   help="write the frontier for plotting (.csv, or JSON "
                        "otherwise) with config digests")
    p.add_argument("--export-dominated", action="store_true",
                   help="include dominated points (flagged "
                        "on_frontier=false) in --export-frontier")
    p.add_argument("--output", default=None, metavar="PATH",
                   help="write every design point as JSON")
    p.add_argument("--governors", nargs="+", default=None, metavar="GOV",
                   help="add a DVFS governor sweep over the configs and "
                        "print the (config, governor) frontier")
    p.add_argument("--deadline", type=float, default=None, metavar="S",
                   help="deadline for the race/pace policies and the "
                        "deadline-constrained min-energy query")
    p.set_defaults(func=cmd_designspace)

    p = sub.add_parser("cache", help="inspect or clear the run cache")
    p.add_argument("action", choices=("stats", "clear", "path"),
                   help="stats: entry count and size; clear: delete every "
                        "entry (and a perf/ tree left by older versions); "
                        "path: print the cache root")
    p.add_argument("--cache-dir", default=".repro_cache", metavar="DIR",
                   help="content-addressed run cache directory")
    p.add_argument("--json", action="store_true",
                   help="machine-readable JSON output")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser(
        "resume",
        help="finish a journaled campaign whose process was killed",
        description="Reconstructs the campaign from <journal-dir>/spec.pkl, "
                    "replays every cell the journal already checkpointed, "
                    "executes only the remainder, and produces a ResultSet "
                    "byte-identical to an uninterrupted run.",
    )
    p.add_argument("journal_dir", metavar="JOURNAL_DIR",
                   help="journal directory of the interrupted campaign")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="parallel worker processes (1 = in-process)")
    p.add_argument("--save", default=None, metavar="PATH",
                   help="write the completed ResultSet JSON here")
    p.add_argument("--cache-dir", default=".repro_cache", metavar="DIR",
                   help="content-addressed run cache directory")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the run cache")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write per-run trace events to a JSONL file")
    p.add_argument("--retries", type=int, default=2, metavar="N",
                   help="times a cell whose pool worker died is retried "
                        "before it is recorded as a crashed run")
    p.add_argument("--cell-timeout", type=float, default=None, metavar="S",
                   help="wall-clock budget per grid cell")
    p.add_argument("--deadline", type=float, default=None, metavar="S",
                   help="wall-clock budget for the whole resumed campaign")
    p.add_argument("--workers", default=None, metavar="HOST:PORT,...",
                   help="distribute the remainder across remote "
                        "`repro worker` processes")
    p.set_defaults(func=cmd_resume)

    p = sub.add_parser(
        "worker",
        help="serve as a remote campaign worker",
        description="Runs a persistent remote worker that coordinators "
                    "target with --workers HOST:PORT.  The worker "
                    "advertises its protocol version, result-row schema "
                    "namespace and repro version at handshake; stale "
                    "workers are rejected by the coordinator.  Announces "
                    "'worker listening on HOST:PORT' once bound "
                    "(--port 0 picks a free port).",
    )
    p.add_argument("--host", default="127.0.0.1", metavar="HOST",
                   help="interface to bind (default: loopback)")
    p.add_argument("--port", type=int, default=0, metavar="PORT",
                   help="port to bind (default: 0 = ephemeral)")
    p.set_defaults(func=cmd_worker)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
