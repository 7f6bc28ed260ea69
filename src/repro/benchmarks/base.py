"""Benchmark framework: the four versions, runners and measurement.

Every benchmark provides (mirroring §IV-B of the paper):

* **Serial** — one Cortex-A15 core, scalar code;
* **OpenMP** — both A15 cores;
* **OpenCL** — the naive GPU port (scalar kernel, driver-chosen local
  size, no qualifiers);
* **OpenCL Opt** — the Section III optimizations (the autotuner in
  :mod:`repro.optimizations.autotune` picks the best feasible
  configuration, exactly like the paper's "experiment with different
  vector sizes" guidance).

A benchmark owns: real NumPy *functional* implementations (all versions
compute the same numbers, verified against a reference), honest kernel
IR describing per-work-item operation mixes, per-version workload
traits (footprints/reuse/imbalance measured from the actual data), and
the GPU host-code orchestration through the mini-OpenCL API.

Measurement follows §IV-D: the timed region excludes initialization and
finalization; the region is repeated until the run covers enough
Yokogawa samples; energy = mean measured power × time.
"""

from __future__ import annotations

import abc
import contextlib
import enum
import functools
import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, ClassVar, Iterable, NamedTuple

import numpy as np

from .. import perf
from ..calibration.exynos5250 import ExynosPlatform, default_platform
from ..compiler.options import NAIVE, CompileOptions
from ..errors import CLBuildProgramFailure, CLError, CLOutOfResources, CompilerError, ReproError
from ..ir.analysis import analyze
from ..ir.dtypes import DType, F32, F64
from ..ir.nodes import Kernel as IrKernel
from ..ir.validate import validate
from ..ocl.buffer import Buffer
from ..ocl.context import Context
from ..ocl.device import mali_t604
from ..ocl.enums import MapFlag
from ..ocl.queue import CommandQueue
from ..power import dvfs
from ..power.energy import EnergyReport
from ..power.model import PowerTrace
from ..power.rails import Activity, ActivityKind
from ..pricing.cells import MODE_OPENMP, MODE_SERIAL, CpuCell
from ..workload import WorkloadTraits


class Precision(enum.Enum):
    """Arithmetic precision of a benchmark instance (§V runs both)."""

    SINGLE = "single"
    DOUBLE = "double"

    @property
    def np_float(self) -> type:
        return np.float32 if self is Precision.SINGLE else np.float64

    @property
    def ir_float(self) -> DType:
        return F32 if self is Precision.SINGLE else F64

    @property
    def label(self) -> str:
        return "SP" if self is Precision.SINGLE else "DP"


class Version(enum.Enum):
    """The four benchmark implementations of §IV-B."""

    SERIAL = "Serial"
    OPENMP = "OpenMP"
    OPENCL = "OpenCL"
    OPENCL_OPT = "OpenCL Opt"


@dataclass(frozen=True)
class RunResult:
    """Outcome of one benchmark version run (one timed region)."""

    benchmark: str
    version: Version
    precision: Precision
    elapsed_s: float
    mean_power_w: float
    energy_j: float
    verified: bool
    options: CompileOptions | None = None
    local_size: int | None = None
    failure: str | None = None
    #: ``None`` for successful and *modeled* failures (compile/launch
    #: errors the simulation predicts, Fig. 2(b)'s missing bars);
    #: ``"crash"`` when the experiment harness captured an unexpected
    #: exception or a worker death, ``"timeout"`` when the campaign
    #: watchdog demoted a cell that overran its wall-clock budget —
    #: both are operational accidents, not content-addressable facts,
    #: so the run cache and the journal replay refuse them.
    failure_kind: str | None = None
    #: DVFS governor the run executed under; ``None`` for the paper's
    #: fixed-frequency path, so every fixed-frequency row serializes
    #: byte-identically to the pre-DVFS format.
    governor: str | None = None
    diagnostics: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return self.failure is None

    @property
    def crashed(self) -> bool:
        return self.failure_kind == "crash"

    @property
    def timed_out(self) -> bool:
        return self.failure_kind == "timeout"

    @property
    def operational_failure(self) -> bool:
        """Whether this failure is a harness accident (crash/timeout)
        rather than a modeled fact — accidents are never cached or
        replayed, so the next campaign re-executes the cell."""
        return self.failure_kind in ("crash", "timeout")

    def relative_to(self, baseline: "RunResult") -> tuple[float, float, float]:
        """(speedup, power ratio, energy ratio) against a baseline run."""
        if not (self.ok and baseline.ok):
            raise ReproError("cannot normalize a failed run")
        return (
            baseline.elapsed_s / self.elapsed_s,
            self.mean_power_w / baseline.mean_power_w,
            self.energy_j / baseline.energy_j,
        )

    @classmethod
    def failed(
        cls,
        benchmark: str,
        version: Version,
        precision: Precision,
        reason: str,
        *,
        governor: str | None = None,
    ) -> "RunResult":
        return cls(
            benchmark=benchmark,
            version=version,
            precision=precision,
            elapsed_s=float("nan"),
            mean_power_w=float("nan"),
            energy_j=float("nan"),
            verified=False,
            failure=reason,
            governor=governor,
        )

    @classmethod
    def crash(
        cls,
        benchmark: str,
        version: Version,
        precision: Precision,
        reason: str,
        traceback_text: str | None = None,
        governor: str | None = None,
    ) -> "RunResult":
        """A cell demoted to a result after an unexpected crash.

        The full traceback lives in ``diagnostics`` (process-local, not
        serialized) so the ``failure`` text stays deterministic across
        the in-process and pool execution paths.
        """
        return cls(
            benchmark=benchmark,
            version=version,
            precision=precision,
            elapsed_s=float("nan"),
            mean_power_w=float("nan"),
            energy_j=float("nan"),
            verified=False,
            failure=reason,
            failure_kind="crash",
            governor=governor,
            diagnostics={"traceback": traceback_text} if traceback_text else {},
        )

    @classmethod
    def timeout(
        cls,
        benchmark: str,
        version: Version,
        precision: Precision,
        budget_s: float,
        governor: str | None = None,
    ) -> "RunResult":
        """A cell demoted by the campaign watchdog for overrunning its
        wall-clock budget.

        The ``failure`` text carries only the budget (not the measured
        overrun), so it is byte-identical whether the hang was caught in
        a pool worker or on the in-process path.
        """
        return cls(
            benchmark=benchmark,
            version=version,
            precision=precision,
            elapsed_s=float("nan"),
            mean_power_w=float("nan"),
            energy_j=float("nan"),
            verified=False,
            failure=f"timeout: cell exceeded its {budget_s:g}s wall-clock budget",
            failure_kind="timeout",
            governor=governor,
        )


class Draws:
    """The input draws of one benchmark *family*.

    A family is one (benchmark, scale, seed) with all its precisions.
    Every input is drawn as a precision-independent float64 or integer
    array, which each instance then casts to its own dtype, so the
    family draws each input once, from one ``np.random.default_rng(seed)``,
    and hands the same read-only array to every precision.

    Arrays are recorded by name in draw order, and every reader must
    take them in that order: a precision-dependent draw sequence raises
    :class:`ReproError` instead of drawing SP and DP from different
    generator states.  ``readers`` is the number of instances that will
    take each array; after the last of them the record forgets it, so a
    one-reader record (a standalone instance) holds nothing of its own.
    """

    def __init__(self, seed: int, readers: int = 1):
        self.seed = seed
        self.readers = readers
        self.rng = np.random.default_rng(seed)
        self._names: list[str] = []
        self._held: dict[str, np.ndarray] = {}
        self._takes: dict[str, int] = {}

    def take(
        self, name: str, draw: Callable[[np.random.Generator], np.ndarray], at: int
    ) -> np.ndarray:
        """The family's array ``name``, as the ``at``-th take of one reader.

        The family's first take of a name calls ``draw(self.rng)`` and
        records the result read-only; later readers get that array.
        """
        if at < len(self._names):
            if self._names[at] != name:
                raise ReproError(
                    f"draw {name!r} asked for where the family drew "
                    f"{self._names[at]!r}: every precision must draw the same "
                    "inputs in the same order"
                )
            if name not in self._held:
                raise ReproError(
                    f"draw {name!r} taken more often than the family's "
                    f"{self.readers} reader(s)"
                )
            array = self._held[name]
        elif name in self._takes:
            raise ReproError(f"draw {name!r} asked for twice by one reader")
        else:
            state = self.rng.bit_generator.state
            try:
                array = draw(self.rng)
            except BaseException:
                # a retried draw must start where this one started
                self.rng.bit_generator.state = state
                raise
            array.flags.writeable = False
            self._names.append(name)
            self._held[name] = array
        self._takes[name] = self._takes.get(name, 0) + 1
        if self._takes[name] >= self.readers:
            del self._held[name]
        return array


def matches(
    result: np.ndarray,
    want: np.ndarray,
    *,
    rtol: float = 0.0,
    atol: float = 0.0,
    exact: bool = False,
) -> bool:
    """Whether ``result`` equals ``want`` (``exact``) or lies within
    ``allclose`` tolerance of it.

    A result bit-equal to ``want`` passes before any tolerance test
    runs: equal values lie within every tolerance and ``NaN`` never
    compares equal, so the verdict is the one ``allclose`` alone would
    give.
    """
    if np.array_equal(result, want):
        return True
    return not exact and bool(np.allclose(result, want, rtol=rtol, atol=atol))


class Launch(NamedTuple):
    """One kernel launch of a timed iteration.

    ``ir`` is the kernel as written in source (the program compiles it),
    ``traits`` what the launch is priced with, ``elements`` the problem
    elements it covers and ``local_size`` its work-group size (``None``:
    the driver's pick); :func:`~repro.ocl.driver.launch_geometry` turns
    the last two into the NDRange.
    """

    ir: IrKernel
    traits: WorkloadTraits
    elements: int
    local_size: int | None


class Fill(NamedTuple):
    """A device-side zeroing (``clEnqueueFillBuffer``) of one named buffer."""

    buffer: str
    nbytes: int


class Benchmark(abc.ABC):
    """Base class for the nine HPC benchmarks.

    An instance separates its *shape* from its *data*.  :meth:`setup`
    derives the problem sizes plus the few random draws that feed the
    IR or the traits (spmv's row lengths, amcd's chains); that is all
    pricing, tuning and the design space read.
    The remaining input arrays, named in :attr:`lazy_inputs`, are drawn
    by :meth:`draw_inputs` on the first access to any of them — only
    functional execution and verification pay for them.

    Every draw goes through :meth:`take` into the family record
    ``draws`` (:class:`Draws`), which the instances of one (benchmark,
    scale, seed) can share so each input is drawn once for all
    precisions; without one the instance is a family of one.  Arrays
    the record hands out are read-only, and float inputs are cast with
    ``astype(self.ftype, copy=False)``, so a double-precision instance
    holds the family's array itself.
    """

    #: short paper name ("spmv", "vecop", ...)
    name: ClassVar[str]
    #: one-line description from §IV-A
    description: ClassVar[str] = ""
    #: input arrays drawn on first use by :meth:`draw_inputs`
    lazy_inputs: ClassVar[tuple[str, ...]] = ()

    def __init__(
        self,
        precision: Precision = Precision.SINGLE,
        scale: float = 1.0,
        seed: int = 1234,
        platform: ExynosPlatform | None = None,
        *,
        draws: Draws | None = None,
    ):
        if scale <= 0:
            raise ValueError("scale must be positive")
        if draws is not None and draws.seed != seed:
            raise ValueError(f"draw record of seed {draws.seed} given to seed {seed}")
        self.precision = precision
        self.scale = scale
        self.seed = seed
        self.platform = platform or default_platform()
        self.draws = draws if draws is not None else Draws(seed)
        self._taken = 0
        self.setup()

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    @property
    def ftype(self) -> type:
        """NumPy float dtype of this instance."""
        return self.precision.np_float

    @property
    def fdt(self) -> DType:
        """IR float dtype of this instance."""
        return self.precision.ir_float

    def take(self, name: str, draw: Callable[[np.random.Generator], np.ndarray]) -> np.ndarray:
        """The family's read-only array ``name`` (see :meth:`Draws.take`).

        ``draw`` computes the precision-independent values from the
        family generator; the caller casts float arrays with
        ``astype(self.ftype, copy=False)``.
        """
        array = self.draws.take(name, draw, self._taken)
        self._taken += 1
        return array

    # ------------------------------------------------------------------
    # problem definition (abstract)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def setup(self) -> None:
        """Derive the problem shape and the trait-feeding draws (untimed)."""

    def draw_inputs(self) -> dict[str, np.ndarray]:
        """Take the :attr:`lazy_inputs` arrays from the family record.

        Called once, on the first access to any lazy input.  The takes
        continue the family's draw order right where :meth:`setup` left
        it, so every array is bit for bit what an eager ``setup()``
        drawing the same sequence would have produced, whichever
        precision of the family draws first.
        """
        return {}

    def __getattr__(self, attr: str) -> Any:
        # reached only when normal lookup fails: a lazy input not drawn yet
        if attr in type(self).lazy_inputs:
            self.__dict__.update(self.draw_inputs())
            return self.__dict__[attr]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {attr!r}")

    @abc.abstractmethod
    def elements(self) -> int:
        """Logical problem elements of one timed iteration."""

    @abc.abstractmethod
    def reference_result(self) -> np.ndarray:
        """Straightforward NumPy reference output for verification."""

    @abc.abstractmethod
    def run_numpy(self) -> np.ndarray:
        """Functional CPU execution (used by Serial/OpenMP versions)."""

    def reference(self) -> np.ndarray:
        """Memoized :meth:`reference_result` (callers must not mutate).

        A benchmark instance is immutable after :meth:`setup` (its lazy
        inputs are drawn once and never change), so the reference is
        computed once per instance no matter how many of the four
        versions verify against it.
        """
        return perf.instance_memo(self, "reference", self.reference_result)

    def functional_result(self) -> np.ndarray:
        """The functional CPU execution of Serial and OpenMP.

        Not memoized: the two versions are the same execution (only the
        timing model differs), so :func:`run_cpu_version` computes it
        once per instance, keeps its verdict and drops the array.
        """
        return self.run_numpy()

    def verify(self, result: np.ndarray) -> bool:
        """Compare a result against the reference with fp tolerance."""
        rtol = 1e-4 if self.precision is Precision.SINGLE else 1e-9
        return self._verify_against_reference(result, rtol=rtol, atol=rtol)

    def _verify_against_reference(
        self, result: np.ndarray, *, rtol: float = 0.0, atol: float = 0.0, exact: bool = False
    ) -> bool:
        """Shared verification against the memoized reference: a result
        of another shape fails (it is never broadcast), one of the
        reference's shape is judged by :func:`matches`."""
        ref = self.reference()
        return result.shape == ref.shape and matches(result, ref, rtol=rtol, atol=atol, exact=exact)

    # ------------------------------------------------------------------
    # models (abstract)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def kernel_ir(self, options: CompileOptions) -> IrKernel:
        """The (main) kernel's IR as *written in source* for ``options``.

        The naive port and the hand-optimized source can differ
        structurally (the paper rewrote kernels by hand); compiler-level
        transforms are applied by the pass pipeline afterwards.
        """

    def serial_ir(self) -> IrKernel:
        """Per-element IR of the Serial implementation.

        Defaults to the naive kernel body: the paper kept "a similar
        code base for all CPU and GPU implementations".
        """
        return self.kernel_ir(NAIVE)

    @abc.abstractmethod
    def cpu_traits(self) -> WorkloadTraits:
        """Workload traits of the CPU implementations."""

    def gpu_traits(self, options: CompileOptions) -> WorkloadTraits:
        """Workload traits of the GPU implementation (default: CPU's)."""
        return self.cpu_traits()

    # ------------------------------------------------------------------
    # the timed iteration: one declaration, read by every consumer
    # ------------------------------------------------------------------
    def iteration_cells(
        self, options: CompileOptions, local_size: int | None
    ) -> tuple[Launch | Fill, ...]:
        """The commands of one timed iteration, in enqueue order (§IV-D).

        The one description of what a GPU version runs per iteration:
        :meth:`gpu_setup` builds and binds its kernels,
        :meth:`gpu_iteration` enqueues it, :meth:`iteration_pricer`
        prices it for the tuner and DVFS, and the design space sums its
        lanes.  The default is one launch of the main kernel over
        :meth:`elements`; multi-kernel benchmarks (red's two stages,
        hist's fills and merge) override this and nothing else.
        """
        return (
            Launch(self.kernel_ir(options), self.gpu_traits(options), self.elements(), local_size),
        )

    def main_launch(self, options: CompileOptions) -> Launch:
        """The first declared launch: the kernel the tuner optimizes."""
        return next(c for c in self.iteration_cells(options, None) if isinstance(c, Launch))

    # ------------------------------------------------------------------
    # GPU orchestration
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def kernel_funcs(self) -> dict[str, Callable[..., None]]:
        """The functional NumPy implementation of every kernel, by IR name.

        A function takes the device views of its kernel's buffers in
        ``ir.params`` order and writes its outputs in place.
        """

    @abc.abstractmethod
    def gpu_buffers(
        self, ctx: Context, queue: CommandQueue, options: CompileOptions
    ) -> dict[str, Buffer]:
        """Allocate and stage the buffers the kernels of ``options`` bind
        (untimed), keyed by the IR parameter names that bind them."""

    def gpu_setup(self, ctx: Context, queue: CommandQueue, options: CompileOptions) -> dict:
        """Build the declared kernels, stage their buffers, bind them (untimed).

        Each kernel the launches of ``iteration_cells(options, None)``
        name is built from its first launch's IR and traits and its
        :meth:`kernel_funcs` entry, and takes the :meth:`gpu_buffers`
        its ``ir.params`` name.  The state holds the ``"kernels"`` by IR
        name, the ``"buffers"``, the ``"options"`` and the ``"result"``,
        the last launch's last parameter.
        """
        from ..ocl.program import KernelSpec, Program

        launches = [c for c in self.iteration_cells(options, None) if isinstance(c, Launch)]
        funcs = self.kernel_funcs()
        specs: dict[str, KernelSpec] = {}
        for cell in launches:
            if cell.ir.name not in specs:
                specs[cell.ir.name] = KernelSpec(cell.ir, funcs[cell.ir.name], cell.traits)
        program = Program(ctx, specs).build(options)
        buffers = self.gpu_buffers(ctx, queue, options)
        kernels = {}
        for name, spec in specs.items():
            kernel = kernels[name] = program.create_kernel(name)
            kernel.set_args(*(buffers[p.name] for p in spec.ir.params))
        result = buffers[launches[-1].ir.params[-1].name]
        return {"kernels": kernels, "buffers": buffers, "options": options, "result": result}

    def gpu_iteration(self, queue: CommandQueue, state: dict, local_size: int | None) -> None:
        """Enqueue one timed iteration: the :meth:`iteration_cells`."""
        from ..ocl.driver import launch_geometry

        kernels, buffers = state["kernels"], state["buffers"]
        max_wg = queue.device.max_work_group_size
        for cell in self.iteration_cells(state["options"], local_size):
            if isinstance(cell, Fill):
                queue.enqueue_fill_buffer(buffers[cell.buffer], 0)
                continue
            kernel = kernels[cell.ir.name]
            size = launch_geometry(cell.elements, kernel.elems_per_item, cell.local_size, max_wg)
            queue.enqueue_nd_range_kernel(kernel, *size, traits=cell.traits)

    def gpu_result(self, state: dict) -> Buffer:
        """The output buffer, the last declared launch's last parameter;
        after the timed region the runner maps it for reading, verifies
        the mapped view, then unmaps it."""
        return state["result"]

    # ------------------------------------------------------------------
    # tuning space for OpenCL Opt
    # ------------------------------------------------------------------
    def tuning_space(self) -> Iterable[tuple[CompileOptions, int | None]]:
        """Candidate (options, local size) points for the autotuner.

        Default space: vector widths {1, 4, 8, 16} × unroll {1, 2, 4} ×
        qualifiers on × SOA where applicable × local sizes
        {32, 64, 128, 256} — "we suggest, whenever the code allows it,
        to experiment with different vector sizes".  Benchmarks narrow
        this when the paper says an optimization does not apply.
        """
        for width in (1, 4, 8, 16):
            for unroll in (1, 2, 4):
                options = CompileOptions(
                    vector_width=width,
                    unroll=unroll,
                    qualifiers=True,
                    soa=True,
                    vector_loads=(width == 1),
                )
                for local in (32, 64, 128, 256):
                    yield options, local

    def iteration_pricer(self, options: CompileOptions) -> Callable[[int | None], float]:
        """One-options-point pricing handle for the autotuner.

        Compiles each declared kernel once and holds one
        :class:`~repro.mali.timing.LaunchPricer` per kernel; the returned
        callable prices one local size as the sum, from ``0.0`` in
        enqueue order, of its :meth:`iteration_cells` — launches through
        the pricers' shared tables, fills through
        :func:`~repro.ocl.driver.fill_activity`.  That is the chain the
        queue's clock runs, so the price is the run's ``elapsed_s`` bit
        for bit.  Raises the same compiler/CL errors as a real
        build+launch (register-file exhaustion and friends), which is
        how infeasible candidates are discarded — the mechanism behind
        the paper's double-precision Opt results.
        """
        from ..compiler.pipeline import compile_kernel
        from ..mali.timing import LaunchPricer
        from ..ocl.driver import fill_activity, launch_geometry, platform_quirks

        platform = self.platform
        quirks = platform_quirks(platform)
        pricing = platform.pricing_model()
        max_wg = platform.mali.max_work_group_size
        pricers: dict[str, tuple] = {}
        for cell in self.iteration_cells(options, None):
            if isinstance(cell, Launch) and cell.ir.name not in pricers:
                compiled = compile_kernel(cell.ir, options, quirks=quirks)
                pricer = LaunchPricer(
                    compiled, cell.traits, platform.mali, pricing.dram_model, pricing.gpu_caches
                )
                pricers[cell.ir.name] = (compiled.elems_per_item, pricer)

        def estimate(local_size: int | None) -> float:
            seconds = 0.0
            for cell in self.iteration_cells(options, local_size):
                if isinstance(cell, Fill):
                    seconds += fill_activity(cell.nbytes, platform.dram).duration_s
                    continue
                per_item, pricer = pricers[cell.ir.name]
                n_items, local = launch_geometry(cell.elements, per_item, cell.local_size, max_wg)
                seconds += pricer.price(n_items, local).seconds
            return seconds

        return estimate

    def estimate_iteration_seconds(self, options: CompileOptions, local_size: int | None) -> float:
        """Model-predicted time of one timed iteration (autotuner probe).

        Compiles and prices the kernel without executing any functional
        NumPy code.  One-shot convenience over :meth:`iteration_pricer`:
        the tuner's sweep holds one pricer per options point and prices
        every local size through it, so each of its trials is what this
        returns (or raises) for that candidate.
        """
        return self.iteration_pricer(options)(local_size)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(precision={self.precision.value}, scale={self.scale})"


# ---------------------------------------------------------------------------
# measurement helpers
# ---------------------------------------------------------------------------

#: minimum Yokogawa samples per measurement (paper: runs long enough for
#: an accurate figure; 20 repetitions with negligible deviation)
MIN_METER_SAMPLES = 30


def measure_trace(
    trace: PowerTrace, platform: ExynosPlatform, seed: int = 0
) -> EnergyReport:
    """Repeat a one-iteration trace to meter length and measure it."""
    meter = platform.meter(seed=seed)
    min_duration = meter.min_duration_s(MIN_METER_SAMPLES)
    reps = max(1, math.ceil(min_duration / trace.duration_s))
    measurement = meter.measure(trace.repeated(reps))
    return EnergyReport(
        elapsed_s=trace.duration_s,
        mean_power_w=measurement.mean_power_w,
        energy_j=measurement.mean_power_w * trace.duration_s,
        meter=measurement,
    )


# ---------------------------------------------------------------------------
# version runners
# ---------------------------------------------------------------------------


def cpu_pricing_inputs(bench: Benchmark) -> tuple:
    """(ir, mix, traits, n) of a benchmark's CPU versions (IR validated).

    Shared by a run's CPU cell (:func:`cpu_region_timing`) and the
    design space's CPU lanes, so both derive their cells from identical
    inputs.
    """
    ir = bench.serial_ir()
    validate(ir)
    mix = analyze(ir)
    return ir, mix, bench.cpu_traits(), bench.elements()


def cpu_region_timing(bench: Benchmark, version: Version):
    """CPU timing of one Serial/OpenMP cell on ``bench.platform``.

    Priced afresh on every call by
    :meth:`~repro.pricing.grid.PlatformPricing.price_one`, so a DVFS
    operating point pinned on the instance prices at its own clock.
    """
    _, mix, traits, n = cpu_pricing_inputs(bench)
    mode = MODE_SERIAL if version is Version.SERIAL else MODE_OPENMP
    cell = CpuCell(mix=mix, mode=mode, n_elements=n, traits=traits)
    return bench.platform.pricing_model().price_one(cell)


def run_cpu_version(
    bench: Benchmark, version: Version, *, idle_tail_s: float = 0.0
) -> RunResult:
    """Run the Serial or OpenMP version: model timing, execute NumPy.

    ``idle_tail_s`` appends an idle-floor segment after the timed region
    (the deadline policies' slack window): the reported ``elapsed_s``
    stays the *work* time while power/energy are metered over the whole
    window.  At the default ``0.0`` the path is exactly the paper's.
    """
    if version not in (Version.SERIAL, Version.OPENMP):
        raise ValueError(f"run_cpu_version cannot run {version}")
    platform = bench.platform
    timing = cpu_region_timing(bench, version)

    activity = Activity(
        kind=ActivityKind.CPU,
        duration_s=timing.seconds,
        active_cpu_cores=timing.active_cores,
        cpu_ipc=timing.ipc,
        dram_bandwidth=timing.dram_bandwidth,
    )
    activities: tuple[Activity, ...] = (activity,)
    if idle_tail_s > 0.0:
        activities += (Activity(kind=ActivityKind.IDLE, duration_s=idle_tail_s),)
    trace = platform.power_model().trace(activities)
    report = measure_trace(trace, platform, seed=bench.seed)

    # Serial and OpenMP are one functional execution: the first of them
    # computes it and keeps only the verdict, which the other reuses
    verified = perf.instance_memo(
        bench, "verify_functional", lambda: bench.verify(bench.functional_result())
    )
    return RunResult(
        benchmark=bench.name,
        version=version,
        precision=bench.precision,
        elapsed_s=timing.seconds if idle_tail_s > 0.0 else report.elapsed_s,
        mean_power_w=report.mean_power_w,
        energy_j=report.energy_j,
        verified=verified,
        diagnostics={"timing": timing, "trace_energy_j": trace.energy_j},
    )


def run_gpu_version(
    bench: Benchmark,
    options: CompileOptions,
    local_size: int | None,
    version: Version = Version.OPENCL,
    *,
    idle_tail_s: float = 0.0,
) -> RunResult:
    """Run a GPU version under given compile options and local size.

    Build failures and launch failures (`CL_OUT_OF_RESOURCES`) return a
    failed :class:`RunResult` rather than raising — the experiment
    harness reports them the way Figure 2(b) does (missing bars).

    ``idle_tail_s`` appends an idle-floor segment after the timed region
    (deadline-policy slack): ``elapsed_s`` stays the work time while
    power/energy cover the whole window.  ``0.0`` is the paper's path.
    """
    platform = bench.platform
    device = mali_t604(platform)
    ctx = Context(device)
    queue = CommandQueue(ctx, device)
    try:
        try:
            state = bench.gpu_setup(ctx, queue, options)
            queue.reset_timeline()
            bench.gpu_iteration(queue, state, local_size)
        except (CLBuildProgramFailure, CLOutOfResources) as exc:
            return RunResult.failed(bench.name, version, bench.precision, str(exc))

        activities = tuple(queue.timeline)
        # finalization: verify the result where the kernel left it, in
        # the output buffer's read mapping (§III-A: no copy out)
        out = bench.gpu_result(state)
        view, _ = queue.enqueue_map_buffer(out, MapFlag.READ)
        verified = bench.verify(view)
        queue.enqueue_unmap_mem_object(out)
    finally:
        # release frees the buffers now, not at the next garbage
        # collection (each buffer and its context reference each other)
        ctx.release()

    work_s = 0.0
    for a in activities:
        work_s += a.duration_s
    if idle_tail_s > 0.0:
        activities += (Activity(kind=ActivityKind.IDLE, duration_s=idle_tail_s),)
    trace = platform.power_model().trace(activities)
    report = measure_trace(trace, platform, seed=bench.seed)
    return RunResult(
        benchmark=bench.name,
        version=version,
        precision=bench.precision,
        elapsed_s=work_s if idle_tail_s > 0.0 else report.elapsed_s,
        mean_power_w=report.mean_power_w,
        energy_j=report.energy_j,
        verified=verified,
        options=options,
        local_size=local_size,
        diagnostics={"events": queue.events, "trace_energy_j": trace.energy_j},
    )


#: the failure text of an Opt cell whose every candidate fails
_NO_FEASIBLE_OPT = (
    "no feasible optimized configuration (all candidates failed to build or launch)"
)


def tuned_candidate(bench: Benchmark) -> tuple[CompileOptions, int | None] | None:
    """The OpenCL-Opt (options, local size) of ``bench`` on its platform.

    The autotuner's pick, or ``None`` when no candidate builds, swept
    once per instance and platform: the pick is held on the instance
    with the platform object it was tuned on, and reused only while
    ``bench.platform`` is that object (compared with ``is``, so a
    replaced platform re-tunes and a recycled ``id()`` cannot alias).
    A governed campaign runs one instance's Opt cell under every
    governor, and each settles from this one pick.
    :func:`repro.perf.disabled` bypasses the hold.
    """
    from ..optimizations.autotune import tune  # deferred: avoid cycle

    if not perf.is_enabled():
        return tune(bench)
    held = bench.__dict__.get("_tuned")
    if held is None or held[0] is not bench.platform:
        held = bench._tuned = (bench.platform, tune(bench))
    return held[1]


def run_version(
    bench: Benchmark,
    *,
    version: Version,
    governor: str = dvfs.GOVERNOR_DEFAULT,
    energy_deadline_s: float | None = None,
) -> RunResult:
    """Run any of the four versions with its canonical configuration.

    Keyword-only past the benchmark: ``run_version(bench,
    version=Version.OPENCL)``.

    ``governor`` selects the DVFS policy.  The default ``"fixed"`` is
    the paper's fixed-frequency path, bit for bit (``energy_deadline_s``
    is ignored there — fixed cells are the baseline other governors are
    compared against).  Frequency governors re-clock the busy rail;
    deadline policies (``race_to_idle`` / ``pace_to_deadline``)
    additionally account idle-floor energy over the remaining slack of
    ``energy_deadline_s``.
    """
    if governor != dvfs.GOVERNOR_DEFAULT:
        return _run_governed(bench, version, governor, energy_deadline_s)
    if version in (Version.SERIAL, Version.OPENMP):
        return run_cpu_version(bench, version)
    if version is Version.OPENCL:
        # the naive port: scalar kernel, driver-chosen local size
        return run_gpu_version(bench, NAIVE, None, version)
    best = tuned_candidate(bench)
    if best is None:
        return RunResult.failed(bench.name, Version.OPENCL_OPT, bench.precision, _NO_FEASIBLE_OPT)
    options, local_size = best
    return run_gpu_version(bench, options, local_size, Version.OPENCL_OPT)


@contextlib.contextmanager
def _pinned_platform(bench: Benchmark, platform: ExynosPlatform):
    """Temporarily swap a benchmark's platform (restored on exit).

    Functional results are platform-independent (their verdicts are
    memoized on the instance), while every pricing path re-derives its
    models from ``bench.platform`` — so pinning an OPP-derived platform
    reprices timing and power without rebuilding the problem instance.
    """
    original = bench.platform
    bench.platform = platform
    try:
        yield
    finally:
        bench.platform = original


def _run_governed(
    bench: Benchmark,
    version: Version,
    governor: str,
    energy_deadline_s: float | None,
) -> RunResult:
    """Run one version under a DVFS governor or deadline policy.

    Operating points come from the Exynos 5250 ladders rescaled so the
    top OPP is exactly the benchmark platform's clock (consistent with
    the ``SoCConfig`` clock axes).  :func:`repro.power.dvfs.settle`
    picks the OPP on the model's price of the timed region, which is
    the run's ``elapsed_s`` bit for bit; a region that fails to build
    or launch prices ``inf``.  The chosen OPP runs once, under a
    deadline policy with the rest of the window as an idle tail.  When
    no OPP fits, the top OPP runs once and the cell reports its own
    failure or "deadline infeasible".
    """
    if governor not in dvfs.GOVERNORS:
        raise ValueError(
            f"unknown governor {governor!r}; expected one of {dvfs.GOVERNORS}"
        )
    is_cpu = version in (Version.SERIAL, Version.OPENMP)
    base_platform = bench.platform
    if is_cpu:
        table = dvfs.A15_OPPS.rescaled(base_platform.cpu.clock_hz)
    else:
        table = dvfs.MALI_T604_OPPS.rescaled(base_platform.mali.clock_hz)

    # the tuned candidate is resolved once at the nominal clock; only
    # the chosen configuration is re-priced per operating point
    options: CompileOptions | None = None
    local_size: int | None = None
    if version is Version.OPENCL:
        options = NAIVE
    elif version is Version.OPENCL_OPT:
        best = tuned_candidate(bench)
        if best is None:
            return RunResult.failed(
                bench.name, version, bench.precision, _NO_FEASIBLE_OPT, governor=governor
            )
        options, local_size = best

    def opp_platform(opp: dvfs.OperatingPoint) -> ExynosPlatform:
        if is_cpu:
            return dvfs.platform_at(base_platform, cpu_table=table, cpu_opp=opp)
        return dvfs.platform_at(base_platform, gpu_table=table, gpu_opp=opp)

    @functools.cache
    def time_at(opp: dvfs.OperatingPoint) -> float:
        """Model-only seconds of the timed region at an OPP."""
        with _pinned_platform(bench, opp_platform(opp)):
            if is_cpu:
                return cpu_region_timing(bench, version).seconds
            try:
                return bench.iteration_pricer(options)(local_size)
            except (CompilerError, CLError):
                return math.inf

    def run_at(opp: dvfs.OperatingPoint, idle_tail_s: float = 0.0) -> RunResult:
        with _pinned_platform(bench, opp_platform(opp)):
            if is_cpu:
                return run_cpu_version(bench, version, idle_tail_s=idle_tail_s)
            return run_gpu_version(
                bench, options, local_size, version, idle_tail_s=idle_tail_s
            )

    deadline = energy_deadline_s if governor in dvfs.DEADLINE_POLICIES else None
    chosen = dvfs.settle(governor, table, time_at=time_at, deadline_s=deadline)
    if chosen is None:
        result = run_at(table.max)
        if result.ok:
            result = RunResult.failed(
                bench.name,
                version,
                bench.precision,
                f"deadline infeasible: even the max OPP "
                f"({table.max.frequency_hz / 1e6:g} MHz) misses the "
                f"{deadline:g} s budget",
            )
        return replace(result, governor=governor)
    result = run_at(chosen, 0.0 if deadline is None else deadline - time_at(chosen))
    if not result.ok:
        return replace(result, governor=governor)

    work_s = result.elapsed_s
    diagnostics = dict(result.diagnostics)
    diagnostics["dvfs"] = {
        "governor": governor,
        "opp_hz": chosen.frequency_hz,
        "opp_v": chosen.voltage_v,
        "work_s": work_s,
        "deadline_s": deadline,
        "slack_s": None if deadline is None else deadline - work_s,
        "table_hz": tuple(p.frequency_hz for p in table.points),
        # exact (meterless) window energy of the final trace: the
        # 10 Hz meter can quantize away a sub-sample work blip inside
        # a long deadline window, so model-level comparisons (the
        # race-vs-pace benchmark) read this instead of ``energy_j``
        "model_energy_j": result.diagnostics.get("trace_energy_j"),
    }
    return replace(result, governor=governor, diagnostics=diagnostics)
