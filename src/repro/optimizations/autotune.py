"""Empirical tuner for the OpenCL Opt configurations.

The paper's method is explicitly empirical: "we suggest, whenever the
code allows it, to experiment with different vector sizes (e.g. size of
4, 8, 16)" and "we strongly suggest to manually tune the local work
size parameter".  :func:`tune` does what the authors did by hand: sweep
the benchmark's candidate (compile options × local size) space, discard
candidates that fail to build or launch, and keep the fastest.

The infeasible-candidate rule reproduces Figure 2(b)'s behaviour: in
double precision the aggressive vector+unroll points of ``nbody`` and
``2dcon`` exhaust the register file (``CL_OUT_OF_RESOURCES``), so the
best *feasible* configuration is close to the naive one and the
OpenCL-vs-Opt gap collapses — exactly what the paper reports.

:func:`sweep` prices every candidate, in canonical order, through one
:meth:`~repro.benchmarks.base.Benchmark.iteration_pricer` per options
point: its kernels compile once and every local size of the point
prices through the same tables.  Register exhaustion does not depend
on the local size, so a build failure condemns every local size of its
point at once; a launch failure condemns one trial.  Each trial's
seconds or error text is what
:meth:`~repro.benchmarks.base.Benchmark.estimate_iteration_seconds`
returns or raises for that candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..compiler.options import CompileOptions
from ..errors import CLError, CompilerError


@dataclass(frozen=True)
class TuneTrial:
    """One candidate of the sweep: its modeled time, or the build or
    launch error that makes it infeasible."""

    options: CompileOptions
    local_size: int | None
    seconds: float | None
    error: str | None = None

    @property
    def feasible(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class TuneResult:
    """Full sweep record, one trial per candidate in canonical order."""

    trials: tuple[TuneTrial, ...]

    @property
    def best(self) -> TuneTrial | None:
        """The first feasible trial with the fewest seconds."""
        feasible = [t for t in self.trials if t.feasible]
        if not feasible:
            return None
        return min(feasible, key=lambda t: t.seconds)

    @property
    def n_infeasible(self) -> int:
        """Candidates that failed to build or launch."""
        return sum(1 for t in self.trials if t.error is not None)

    @property
    def n_evaluated(self) -> int:
        """Candidates priced to a time."""
        return sum(1 for t in self.trials if t.seconds is not None)


def candidates(bench, include_naive: bool) -> list[tuple[CompileOptions, int | None]]:
    """The deduplicated candidate list, in canonical order.

    Some benchmarks put the naive point in their own ``tuning_space``;
    appending the ``include_naive`` baseline must not evaluate it twice
    (duplicates would also double-count infeasible candidates).  First
    occurrence wins, so the canonical order is stable.
    """
    listed = list(bench.tuning_space())
    if include_naive:
        from ..compiler.options import NAIVE

        listed.append((NAIVE, None))
    seen: set[tuple[CompileOptions, int | None]] = set()
    unique: list[tuple[CompileOptions, int | None]] = []
    for candidate in listed:
        if candidate in seen:
            continue
        seen.add(candidate)
        unique.append(candidate)
    return unique


def sweep(bench, include_naive: bool = True) -> TuneResult:
    """Price every candidate of the benchmark's tuning space.

    ``include_naive`` adds the naive port itself (scalar kernel, driver
    local size) as a baseline candidate: when no optimization point
    beats it — which the model can legitimately produce for gather-bound
    kernels — the "Opt" version ships the naive kernel, as the paper's
    authors would have done.
    """
    # per options point, its pricer or the build error of its kernels
    pricers: dict[CompileOptions, Callable[[int | None], float] | str] = {}
    trials: list[TuneTrial] = []
    for options, local_size in candidates(bench, include_naive):
        if options not in pricers:
            try:
                pricers[options] = bench.iteration_pricer(options)
            except (CompilerError, CLError) as exc:
                pricers[options] = str(exc)
        estimate = pricers[options]
        seconds = None
        error = estimate if isinstance(estimate, str) else None
        if error is None:
            try:
                seconds = estimate(local_size)
            except (CompilerError, CLError) as exc:
                error = str(exc)
        trials.append(TuneTrial(options, local_size, seconds, error))
    return TuneResult(tuple(trials))


def tune(bench) -> tuple[CompileOptions, int | None] | None:
    """Best feasible (options, local size), the first minimum of the
    sweep's trials, or None if nothing builds."""
    best = sweep(bench).best
    if best is None:
        return None
    return best.options, best.local_size
