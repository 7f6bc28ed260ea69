"""Structured kernel IR.

A :class:`Kernel` describes the work performed by **one work-item** of an
OpenCL NDRange (or one loop iteration of the serial/OpenMP CPU versions —
the CPU backends lower the same IR).  The tree is immutable; compiler
passes rewrite it functionally.

Semantics
---------

Every work-item processes ``Kernel.elems_per_item`` logical *elements* of
the problem (1 before vectorization; the vectorizer multiplies it).  Each
statement carries a ``count`` — how many times it executes per work-item
*per element* (``Scaling.PER_ELEMENT``) or per work-item regardless of
element count (``Scaling.PER_ITEM``).  Counts may be fractional: they are
*expected* counts for data-dependent control flow (e.g. the average
number of non-zeros per row in spmv).

The IR is deliberately an *operation-mix* representation rather than a
full dataflow program: the functional semantics of every benchmark are
implemented separately in NumPy (and validated by tests), while the IR is
what the architecture models price.  This mirrors how analytical GPU
models (roofline + occupancy) are built, and keeps every optimization's
effect mechanistic: vectorization changes widths and the NDRange, loop
unrolling changes loop-overhead counts and live registers, AOS→SOA
changes access patterns, and so on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Iterator, Union

from .dtypes import DType


class AccessPattern(enum.Enum):
    """Spatial pattern of a memory access stream, as seen by DRAM.

    The efficiency each pattern achieves on the Exynos 5250 memory
    controller is owned by :mod:`repro.memory.patterns`.
    """

    #: consecutive work-items touch consecutive addresses (coalesced)
    UNIT = "unit"
    #: constant stride > 1 element (e.g. AOS field access, matrix column)
    STRIDED = "strided"
    #: data-dependent scatter/gather (e.g. spmv column indices)
    GATHER = "gather"
    #: all work-items read the same address (broadcast-friendly)
    BROADCAST = "broadcast"
    #: atomic read-modify-write traffic
    ATOMIC = "atomic"


class MemSpace(enum.Enum):
    """OpenCL address spaces.

    On Mali, ``LOCAL`` and ``GLOBAL`` are the same physical memory — the
    timing model prices them identically, reproducing the paper's point
    that local-memory tiling buys nothing on this architecture.
    """

    GLOBAL = "global"
    CONSTANT = "constant"
    LOCAL = "local"
    PRIVATE = "private"


class Scaling(enum.Enum):
    """Whether a statement's count scales with elements per work-item."""

    PER_ELEMENT = "per_element"
    PER_ITEM = "per_item"


class OpKind(enum.Enum):
    """Arithmetic/logic operation classes with distinct hardware costs."""

    ADD = "add"
    MUL = "mul"
    FMA = "fma"          # fused multiply-add: 2 flops, 1 issue slot
    DIV = "div"
    SQRT = "sqrt"
    RSQRT = "rsqrt"
    EXP = "exp"
    LOG = "log"
    SIN = "sin"
    CMP = "cmp"
    BITOP = "bitop"
    MOV = "mov"
    CVT = "cvt"          # type conversion


#: flops contributed per scalar lane by each op kind (integer ops count 0)
FLOPS_PER_OP: dict[OpKind, int] = {
    OpKind.ADD: 1,
    OpKind.MUL: 1,
    OpKind.FMA: 2,
    OpKind.DIV: 1,
    OpKind.SQRT: 1,
    OpKind.RSQRT: 1,
    OpKind.EXP: 1,
    OpKind.LOG: 1,
    OpKind.SIN: 1,
    OpKind.CMP: 0,
    OpKind.BITOP: 0,
    OpKind.MOV: 0,
    OpKind.CVT: 0,
}


class MemKind(enum.Enum):
    """Direction of a memory access."""

    LOAD = "load"
    STORE = "store"


# ---------------------------------------------------------------------------
# statement nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Arith:
    """``count`` arithmetic operations of ``op`` on values of ``dtype``.

    ``vectorizable`` marks whether the vectorizer may widen this
    statement (index arithmetic and horizontal reductions are not).

    ``accumulates`` marks a loop-carried floating-point dependency (a
    running sum / dot product).  The paper compiled without
    ``-funsafe-math-optimizations``, so GCC may not reassociate FP
    reductions: on the in-order VFP these chains execute at the unit's
    *latency*, one per several cycles — a large, real handicap of the
    Serial baselines.  The GPU hides the same latency by interleaving
    other work-items, so the flag only affects the CPU model.
    """

    op: OpKind
    dtype: DType
    count: float = 1.0
    scaling: Scaling = Scaling.PER_ELEMENT
    vectorizable: bool = True
    accumulates: bool = False

    def widened(self, width: int) -> "Arith":
        return replace(self, dtype=self.dtype.with_width(width))


@dataclass(frozen=True, slots=True)
class MemAccess:
    """``count`` loads or stores of ``dtype`` values from ``space``."""

    kind: MemKind
    space: MemSpace
    dtype: DType
    pattern: AccessPattern = AccessPattern.UNIT
    count: float = 1.0
    scaling: Scaling = Scaling.PER_ELEMENT
    vectorizable: bool = True
    #: name of the kernel parameter this stream belongs to (aliasing info)
    param: str | None = None
    #: True when the *same work-item* walks consecutive addresses (a
    #: per-thread streaming loop): every cache line is fully consumed by
    #: one thread, so narrow accesses do not waste DRAM bursts — only
    #: LS-pipe issue slots.  False for one-shot accesses whose burst
    #: utilization depends on the access width (the Mali coalescing gap).
    sequential: bool = False
    #: False for sliding-window vector loads at arbitrary offsets: an
    #: unaligned vload crosses register/line boundaries and costs two
    #: LS issues on Midgard
    aligned: bool = True

    def widened(self, width: int) -> "MemAccess":
        return replace(self, dtype=self.dtype.with_width(width))


@dataclass(frozen=True, slots=True)
class Atomic:
    """An atomic read-modify-write.

    ``contention`` in [0, 1]: expected fraction of concurrently executing
    work-items hitting the *same* address (1.0 = full serialization, as
    in a single-bucket histogram; ~1/n_buckets for a uniform histogram).

    ``space`` matters on Mali even though local and global memory are
    the same DRAM: a *local* atomic only synchronizes within one shader
    core and resolves near the core, while a *global* atomic round-trips
    through the coherent L2 — several times more expensive.  This cost
    gap is why the paper's privatized histogram wins.
    """

    op: OpKind
    dtype: DType
    count: float = 1.0
    scaling: Scaling = Scaling.PER_ELEMENT
    contention: float = 0.01
    space: MemSpace = MemSpace.GLOBAL


@dataclass(frozen=True, slots=True)
class Barrier:
    """A work-group barrier."""

    count: float = 1.0
    scaling: Scaling = Scaling.PER_ITEM


@dataclass(frozen=True, slots=True)
class Branch:
    """A conditional with expected taken probability.

    Mali schedules single work-items so divergence is free (the paper's
    "Thread Divergence" point); the CPU model charges misprediction.
    """

    taken_prob: float
    body: "Block"
    orelse: "Block | None" = None
    count: float = 1.0
    scaling: Scaling = Scaling.PER_ELEMENT
    #: True when neighbouring work-items likely disagree on direction
    divergent: bool = False


@dataclass(frozen=True, slots=True)
class Loop:
    """A counted loop executing ``body`` ``trip`` times.

    ``trip`` may be fractional (expected trip count).  ``unroll`` > 1
    means the body shown executes ``trip/unroll`` times with the loop
    overhead charged once per unrolled iteration; the unroll pass also
    materializes a remainder epilogue when trips don't divide evenly.
    """

    trip: float
    body: "Block"
    unroll: int = 1
    count: float = 1.0
    scaling: Scaling = Scaling.PER_ELEMENT
    #: can the unroller/vectorizer touch this loop?
    vectorizable: bool = True
    #: True if trip count is known at compile time (no remainder guard cost)
    static_trip: bool = True


@dataclass(frozen=True, slots=True)
class Call:
    """A (possibly inlined) helper-function call."""

    name: str
    body: "Block"
    inlined: bool = False
    count: float = 1.0
    scaling: Scaling = Scaling.PER_ELEMENT


Stmt = Union[Arith, MemAccess, Atomic, Barrier, Branch, Loop, Call]


@dataclass(frozen=True, slots=True)
class Block:
    """An ordered sequence of statements."""

    stmts: tuple[Stmt, ...] = ()

    def __iter__(self) -> Iterator[Stmt]:
        return iter(self.stmts)

    def __len__(self) -> int:
        return len(self.stmts)

    def with_stmts(self, stmts: tuple[Stmt, ...]) -> "Block":
        return Block(stmts)


# ---------------------------------------------------------------------------
# kernel parameters & kernel
# ---------------------------------------------------------------------------


class Layout(enum.Enum):
    """Data layout of a buffer of records (the AOS→SOA optimization)."""

    AOS = "aos"
    SOA = "soa"
    FLAT = "flat"   # plain 1-D array of scalars; layout transform is a no-op


@dataclass(frozen=True, slots=True)
class BufferParam:
    """A ``__global``/``__constant`` pointer argument of the kernel."""

    name: str
    dtype: DType
    space: MemSpace = MemSpace.GLOBAL
    is_const: bool = False
    is_restrict: bool = False
    layout: Layout = Layout.FLAT
    #: number of scalar fields per record when layout is AOS/SOA
    record_fields: int = 1


@dataclass(frozen=True, slots=True)
class ScalarParam:
    """A by-value scalar argument."""

    name: str
    dtype: DType


Param = Union[BufferParam, ScalarParam]


@dataclass(frozen=True, slots=True)
class Kernel:
    """A complete kernel: parameters, body, and compile-relevant metadata.

    Attributes:
        elems_per_item: logical problem elements each work-item handles
            (the vectorizer multiplies this and the launcher divides the
            NDRange accordingly).
        base_live_values: estimated simultaneously-live virtual values in
            the scalar kernel; the register allocator scales this with
            vector width and unrolling.
        uses_fp64: any f64 arithmetic (drives driver quirk checks).
    """

    name: str
    params: tuple[Param, ...]
    body: Block
    elems_per_item: int = 1
    base_live_values: float = 8.0
    notes: tuple[str, ...] = ()

    def with_body(self, body: Block) -> "Kernel":
        return replace(self, body=body)

    def with_elems_per_item(self, n: int) -> "Kernel":
        return replace(self, elems_per_item=n)

    @property
    def uses_fp64(self) -> bool:
        from .analysis import any_stmt  # local import to avoid cycle

        return any_stmt(
            self.body,
            lambda s: isinstance(s, (Arith, MemAccess, Atomic))
            and s.dtype.is_float
            and s.dtype.scalar_bits == 64,
        )

    def buffer_params(self) -> tuple[BufferParam, ...]:
        return tuple(p for p in self.params if isinstance(p, BufferParam))

    def param(self, name: str) -> Param:
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(f"kernel {self.name!r} has no parameter {name!r}")
