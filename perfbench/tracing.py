"""Host-time spans around repro's layers, recorded from outside ``src/``.

A traced run installs a wrapper at every name a caller binds for each
function in :data:`TARGETS` (module attributes anywhere under
``repro``, and methods on their class and every subclass that overrides
them).  Each call records one :class:`Span` — name, start, end, parent
span and the cell or config chunk it belongs to — into a
:class:`Recorder` held in memory; the recorder is written out when the
run ends.  :meth:`Installation.remove` puts every original back, so an
untraced run executes exactly the code users run.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`); summing self time
by span name gives the per-layer split of a run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
import types
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable


@dataclass(frozen=True)
class Span:
    """One wrapped call: ``[start, end]`` host seconds on the monotonic clock."""

    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    tag: str | None = None


class Recorder:
    """In-memory span and counter store of one process.

    Each thread keeps its own span stack, so a span's parent is the
    innermost open span of the thread that made the call.  ``tag``
    (``cell=…``, ``config=…``, ``chunk=…``, ``family=…``) is inherited
    from the parent unless the wrapped call names its own.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        #: wrappers pass calls straight through while this is False
        self.active = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, tag: str | None = None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        parent, parent_tag = stack[-1] if stack else (None, None)
        sid = next(self._ids)
        if tag is None:
            tag = parent_tag
        stack.append((sid, tag))
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append(Span(sid, parent, name, start, end, tag))

    def dump(self, path: str | Path) -> None:
        """Write the spans and counters of this process as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"counters": self.counters}) + "\n")
            for s in self.spans:
                fh.write(json.dumps([s.sid, s.parent, s.name, s.start, s.end, s.tag]) + "\n")


def load(path: str | Path) -> tuple[list[Span], dict[str, float]]:
    """Read back what :meth:`Recorder.dump` wrote."""
    with open(path, encoding="utf-8") as fh:
        counters = json.loads(fh.readline())["counters"]
        spans = [Span(*json.loads(line)) for line in fh]
    return spans, counters


# ---------------------------------------------------------------------------
# self-time arithmetic
# ---------------------------------------------------------------------------


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    run_start = run_end = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id → duration minus the part its children cover.

    Children may nest, touch or overlap one another (spans of one
    parent opened from several threads); overlapping coverage counts
    once, and a child sticking out of its parent counts only inside it.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: (s.end - s.start) - covered(children.get(s.sid, ()), s.start, s.end)
        for s in spans
    }


def tag_totals(spans: Iterable[Span]) -> dict[str, float]:
    """Self time per cell or config chunk (spans without a tag skipped)."""
    spans = list(spans)
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        if s.tag is not None:
            out[s.tag] = out.get(s.tag, 0.0) + selfs[s.sid]
    return out


@dataclass
class LayerTotal:
    self_s: float = 0.0
    total_s: float = 0.0
    calls: int = 0


def layer_totals(spans: Iterable[Span], under: str | None = None) -> dict[str, LayerTotal]:
    """Self time, inclusive time and call count per span name.

    ``under`` keeps only spans whose root ancestor has that name (a
    phase: ``"setup"`` or ``"op"``); ``None`` keeps every span.
    """
    spans = list(spans)
    selfs = self_times(spans)
    keep = set(selfs)
    if under is not None:
        by_id = {s.sid: s for s in spans}
        keep = set()
        for s in spans:
            node = s
            while node.parent is not None and node.parent in by_id:
                node = by_id[node.parent]
            if node.name == under and node.parent is None:
                keep.add(s.sid)
    out: dict[str, LayerTotal] = {}
    for s in spans:
        if s.sid not in keep:
            continue
        total = out.setdefault(s.name, LayerTotal())
        total.self_s += selfs[s.sid]
        total.total_s += s.end - s.start
        total.calls += 1
    return out


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module`` + ``qualname`` (``f`` or ``Cls.m``).

    ``span=None`` records no span, only what ``after`` counts.
    ``tag(args, kwargs)`` names the cell or config chunk of the call;
    ``after(recorder, args, kwargs, result)`` updates counters.
    """

    module: str
    qualname: str
    span: str | None
    tag: Callable | None = None
    after: Callable | None = None


def _tag_setup(args, kwargs) -> str:
    precision = args[1] if len(args) > 1 else kwargs.get("precision")
    return f"cell={type(args[0]).name}/*/{getattr(precision, 'value', 'single')}"


def _tag_run(args, kwargs) -> str:
    bench = args[0]
    version = args[1] if len(args) > 1 else kwargs["version"]
    return f"cell={bench.name}/{version.value}/{bench.precision.value}"


def _tag_config(args, kwargs) -> str:
    return f"config={args[1].name}"


def _tag_self_config(args, kwargs) -> str:
    return f"config={args[0].name}"


def _tag_cell_args(args, kwargs) -> str:
    return f"cell={args[1]}/{args[2].value}/{args[3].value}"


def _tag_stored_run(args, kwargs) -> str:
    run = args[2]
    return f"cell={run.benchmark}/{run.version.value}/{run.precision.value}"


def _tag_chunk(args, kwargs) -> str:
    configs = args[1]
    if isinstance(configs, (list, tuple)) and configs:
        return f"chunk={configs[0].name}..{configs[-1].name}({len(configs)})"
    return "chunk=?"


def _tag_family(args, kwargs) -> str:
    return f"family={args[0][0][0].benchmark}"


def _count_digest(recorder, args, kwargs, result) -> None:
    recorder.count("perf.digest.bytes", sum(getattr(p, "nbytes", 0) for p in args))


def _count_tune(recorder, args, kwargs, result) -> None:
    recorder.count("optimizations.tune.evaluated", result.n_evaluated)
    recorder.count("optimizations.tune.candidates", len(result.trials))


def _count_cache_load(recorder, args, kwargs, result) -> None:
    recorder.count("experiments.cache.loads")
    recorder.count("experiments.cache.hits", result is not None)


def _count_cache_store(recorder, args, kwargs, result) -> None:
    try:
        size = args[0].path_for(args[1]).stat().st_size
    except OSError:
        size = 0  # a degraded cache writes nothing
    recorder.count("experiments.cache.bytes_written", size)


def _count_recv(recorder, args, kwargs, result) -> None:
    recorder.count("experiments.protocol.bytes", len(result))


TARGETS: tuple[Target, ...] = (
    Target("repro.benchmarks.base", "Benchmark.__init__", "benchmarks.setup", tag=_tag_setup),
    Target("repro.benchmarks.base", "run_version", "benchmarks.run", tag=_tag_run),
    Target("repro.benchmarks.base", "Benchmark.functional_result", "benchmarks.functional"),
    Target("repro.benchmarks.base", "Benchmark.reference", "benchmarks.functional"),
    Target("repro.benchmarks.base", "Benchmark.verify", "benchmarks.verify"),
    Target("repro.ocl.queue", "CommandQueue.enqueue_nd_range_kernel", "ocl.launch"),
    Target("repro.perf", "digest", "perf.digest", after=_count_digest),
    Target("repro.compiler.pipeline", "compile_kernel", "compiler.compile"),
    Target("repro.ir.analysis", "analyze", "ir.analyze"),
    # tune() is a thin shell over sweep(), which returns the trial record
    Target("repro.optimizations.autotune", "sweep", "optimizations.tune", after=_count_tune),
    Target("repro.pricing.grid", "PlatformPricing.price", "pricing"),
    Target("repro.pricing.grid", "PlatformPricing.price_one", "pricing"),
    Target("repro.pricing.grid", "seed_cpu_timing", "pricing"),
    Target("repro.mali.timing", "LaunchPricer.price", "pricing"),
    Target("repro.benchmarks.base", "cpu_region_timing", "pricing"),
    Target("repro.benchmarks.base", "measure_trace", "power.meter"),
    Target("repro.calibration.socspace", "SoCConfig.platform", "calibration.platform", tag=_tag_self_config),
    Target("repro.calibration.socspace", "SoCConfig.digest", "calibration.platform", tag=_tag_self_config),
    Target("repro.designspace", "DesignSpace.__init__", "designspace.build"),
    Target("repro.designspace", "DesignSpace.stacked_rows", "designspace.rows", tag=_tag_config),
    Target("repro.designspace", "DesignSpace.points", "designspace.points", tag=_tag_config),
    Target("repro.designspace", "DesignSpace.opt_bounds", "designspace.bounds", tag=_tag_chunk),
    Target("repro.designspace", "evaluate_space", "designspace.evaluate"),
    Target("repro.pareto", "skyline", "pareto"),
    Target("repro.pareto", "OnlineFrontier.add", "pareto"),
    Target("repro.pareto", "OnlineFrontier.update", "pareto"),
    Target("repro.experiments.cache", "RunCache.load", "experiments.cache.read", after=_count_cache_load),
    Target(
        "repro.experiments.cache", "RunCache.store", "experiments.cache.write",
        tag=_tag_stored_run, after=_count_cache_store,
    ),
    Target("repro.experiments.journal", "CampaignJournal.open", "experiments.journal.replay"),
    Target("repro.experiments.journal", "CampaignJournal.cell_started", "experiments.journal.write", tag=_tag_cell_args),
    Target("repro.experiments.journal", "CampaignJournal.cell_finished", "experiments.journal.write", tag=_tag_cell_args),
    Target("repro.experiments.journal", "CampaignJournal.campaign_finished", "experiments.journal.write"),
    Target("repro.experiments.engine", "Campaign.run", "experiments.engine"),
    Target("repro.experiments.engine", "CampaignReport.describe", "experiments.report"),
    Target("repro.experiments.figures", "all_figures", "experiments.report"),
    Target("repro.experiments.summary", "summarize", "experiments.report"),
    Target("repro.experiments.report", "format_figure", "experiments.report"),
    Target("repro.experiments.report", "format_summary", "experiments.report"),
    # the coordinator's dispatch loop: mostly waiting for chunk results,
    # which the link threads below receive as spans of their own
    Target("repro.experiments.engine", "Campaign._run_remote", "experiments.remote.wait"),
    Target("repro.experiments.remote", "RemoteWorkerPool.submit", "experiments.remote.submit"),
    # coordinator side of one chunk: frame out, heartbeats, result frame in
    Target("repro.experiments.remote", "_WorkerLink._run_job", "experiments.remote.link"),
    # worker side of one chunk (the remote worker's execution root)
    Target("repro.experiments.engine", "_execute_family", "experiments.remote.execute", tag=_tag_family),
    Target("repro.experiments.protocol", "_recv_exact", None, after=_count_recv),
)


def _wrap(recorder: Recorder, target: Target, fn: Callable) -> Callable:
    name, tag, after = target.span, target.tag, target.after

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        if name is None:
            result = fn(*args, **kwargs)
        else:
            label = tag(args, kwargs) if tag is not None else None
            result = recorder.call(name, fn, args, kwargs, label)
        if after is not None:
            after(recorder, args, kwargs, result)
        return result

    wrapper.perfbench_span = name
    return wrapper


def wrapper_cost(calls: int = 20000, batches: int = 5) -> float:
    """Host seconds one recorded call adds over a direct call.

    Times ``calls`` calls of a no-op through a tagged wrapper against as
    many direct calls, best of ``batches`` each, so that a slow phase of
    the host inflates neither side.  Times the number of spans a run
    recorded, it estimates what tracing added to that run.
    """

    def noop(*args, **kwargs):
        return None

    recorder = Recorder()
    wrapped = _wrap(recorder, Target(__name__, "noop", "noop", tag=_tag_self_config), noop)
    arg = types.SimpleNamespace(name="noop")

    def best(fn: Callable) -> float:
        times = []
        for _ in range(batches):
            recorder.spans.clear()
            start = time.perf_counter()
            for _ in range(calls):
                fn(arg, key=None)
            times.append(time.perf_counter() - start)
        return min(times)

    return (best(wrapped) - best(noop)) / calls


def _with_subclasses(cls: type) -> list[type]:
    out, todo = [], [cls]
    while todo:
        klass = todo.pop()
        if klass not in out:
            out.append(klass)
            todo.extend(klass.__subclasses__())
    return out


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class Installation:
    """The patches one :func:`install` made; :meth:`remove` undoes them."""

    def __init__(self) -> None:
        self.patches: list[tuple[object, str, object]] = []

    def patch(self, owner: object, attr: str, original: object, wrapped: object) -> None:
        self.patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def remove(self) -> None:
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)


def install(recorder: Recorder, targets: Iterable[Target] = TARGETS) -> Installation:
    """Wrap every target at every name a caller binds it under."""
    installation = Installation()
    functions: dict[int, tuple[object, object]] = {}
    try:
        for target in targets:
            module = importlib.import_module(target.module)
            owner_name, _, attr = target.qualname.rpartition(".")
            if owner_name:
                for klass in _with_subclasses(getattr(module, owner_name)):
                    original = klass.__dict__.get(attr)
                    if original is not None:
                        installation.patch(klass, attr, original, _wrap(recorder, target, original))
            else:
                original = getattr(module, attr)
                functions[id(original)] = (original, _wrap(recorder, target, original))
        # one pass over every repro module rebinds each wrapped function
        # under whatever name an importer gave it
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                hit = functions.get(id(value))
                if hit is not None and hit[0] is value:
                    installation.patch(module, attr, value, hit[1])
    except BaseException:
        installation.remove()
        raise
    return installation


def _is_wrapper(value: object) -> bool:
    return isinstance(value, types.FunctionType) and "perfbench_span" in value.__dict__


def installed_wrappers() -> list[str]:
    """Every perfbench wrapper still bound in a repro module or class."""
    found: list[str] = []
    for module in _repro_modules():
        for attr, value in list(vars(module).items()):
            if _is_wrapper(value):
                found.append(f"{module.__name__}.{attr}")
            elif isinstance(value, type):
                for klass in _with_subclasses(value):
                    found.extend(
                        f"{klass.__module__}.{klass.__qualname__}.{name}"
                        for name, member in vars(klass).items()
                        if _is_wrapper(member)
                    )
    return sorted(set(found))
