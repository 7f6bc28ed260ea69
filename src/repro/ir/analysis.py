"""Instruction-mix analysis over the kernel IR.

:func:`analyze` flattens a kernel body into an :class:`InstructionMix`:
expected per-work-item counts of issued arithmetic operations (keyed by
op kind, base type and vector width), memory operations (keyed by kind,
space, pattern, base type and width), atomics, barriers, branches, loop
header executions and non-inlined calls.

All counts are *per work-item*.  The vector width of each operation
already encodes how many problem elements it covers, so the analysis
never multiplies by :attr:`Kernel.elems_per_item` — that field is launch
bookkeeping (it shrinks the NDRange).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field, fields
from typing import Callable, Iterator

from .dtypes import DType
from .nodes import (
    AccessPattern,
    Arith,
    Atomic,
    Barrier,
    Block,
    Branch,
    Call,
    FLOPS_PER_OP,
    Kernel,
    Loop,
    MemAccess,
    MemKind,
    MemSpace,
    OpKind,
    Stmt,
)

ArithKey = tuple[OpKind, str, int, bool]                 # (op, base, width, accumulates)
MemKey = tuple[MemKind, MemSpace, AccessPattern, str, int, bool, bool]  # (kind, space, pattern, base, width, sequential, aligned)
AtomicKey = tuple[OpKind, str, MemSpace]  # (op, base, space)


@dataclass
class InstructionMix:
    """Expected per-work-item operation counts of a kernel."""

    arith: dict[ArithKey, float] = field(default_factory=lambda: defaultdict(float))
    mem: dict[MemKey, float] = field(default_factory=lambda: defaultdict(float))
    atomics: dict[AtomicKey, float] = field(default_factory=lambda: defaultdict(float))
    #: contention-weighted atomic count (sum of count*contention), by scope
    atomic_contention_weight: float = 0.0
    atomic_contention_weight_local: float = 0.0
    barriers: float = 0.0
    branches: float = 0.0
    divergent_branches: float = 0.0
    loop_headers: float = 0.0
    calls: float = 0.0

    def __getstate__(self):
        # the CPU pricing layer attaches a derived column cache to the
        # instance dict (see ``cpu.pricing._cpu_tables_for``); it is
        # per-process and rebuildable, so only declared fields travel
        return {f.name: getattr(self, f.name) for f in fields(self)}

    # ------------------------------------------------------------------
    # aggregate views used by the device models
    # ------------------------------------------------------------------
    def flops(self, base: str | None = None) -> float:
        """Floating-point operations per work-item (lane-accurate)."""
        total = 0.0
        for (op, b, width, acc), count in self.arith.items():
            if base is not None and b != base:
                continue
            if b.startswith("f"):
                total += FLOPS_PER_OP[op] * width * count
        return total

    def arith_issues(self) -> float:
        """Issued arithmetic instructions (one vector op = one issue)."""
        return sum(self.arith.values())

    def mem_issues(self, space: MemSpace | None = None) -> float:
        total = 0.0
        for (kind, sp, pattern, base, width, seq, al), count in self.mem.items():
            if space is None or sp == space:
                total += count
        return total

    def bytes_moved(
        self,
        space: MemSpace | None = None,
        kind: MemKind | None = None,
        pattern: AccessPattern | None = None,
    ) -> float:
        """Bytes touched per work-item, optionally filtered."""
        total = 0.0
        for (k, sp, pat, base, width, seq, al), count in self.mem.items():
            if space is not None and sp != space:
                continue
            if kind is not None and k != kind:
                continue
            if pattern is not None and pat != pattern:
                continue
            total += count * DType(base, width).bytes
        return total

    def bytes_by_pattern(self, space: MemSpace = MemSpace.GLOBAL) -> dict[AccessPattern, float]:
        """Per-pattern byte totals for a space (the DRAM model's input)."""
        out: dict[AccessPattern, float] = defaultdict(float)
        for (k, sp, pat, base, width, seq, al), count in self.mem.items():
            if sp == space:
                out[pat] += count * DType(base, width).bytes
        # atomics move data too: count one RMW round trip per atomic
        for (op, base, atomic_space), count in self.atomics.items():
            out[AccessPattern.ATOMIC] += 2 * count * DType(base, 1).bytes
        return dict(out)

    def atomic_ops(self) -> float:
        return sum(self.atomics.values())

    def max_vector_width(self) -> int:
        widths = [w for (_, _, w, _) in self.arith] + [w for (_, _, _, _, w, _, _) in self.mem]
        return max(widths, default=1)

    def total_issues(self) -> float:
        """All issued instructions (arith + mem + atomics + overheads)."""
        return (
            self.arith_issues()
            + self.mem_issues()
            + self.atomic_ops()
            + self.branches
            + self.loop_headers
            + self.calls
        )

    def scaled(self, factor: float) -> "InstructionMix":
        """A copy with every count multiplied by ``factor``."""
        out = InstructionMix()
        for k, v in self.arith.items():
            out.arith[k] = v * factor
        for k, v in self.mem.items():
            out.mem[k] = v * factor
        for k, v in self.atomics.items():
            out.atomics[k] = v * factor
        out.atomic_contention_weight = self.atomic_contention_weight * factor
        out.atomic_contention_weight_local = self.atomic_contention_weight_local * factor
        out.barriers = self.barriers * factor
        out.branches = self.branches * factor
        out.divergent_branches = self.divergent_branches * factor
        out.loop_headers = self.loop_headers * factor
        out.calls = self.calls * factor
        return out

    def merged(self, other: "InstructionMix") -> "InstructionMix":
        out = self.scaled(1.0)
        for k, v in other.arith.items():
            out.arith[k] += v
        for k, v in other.mem.items():
            out.mem[k] += v
        for k, v in other.atomics.items():
            out.atomics[k] += v
        out.atomic_contention_weight += other.atomic_contention_weight
        out.atomic_contention_weight_local += other.atomic_contention_weight_local
        out.barriers += other.barriers
        out.branches += other.branches
        out.divergent_branches += other.divergent_branches
        out.loop_headers += other.loop_headers
        out.calls += other.calls
        return out


# ---------------------------------------------------------------------------
# traversal
# ---------------------------------------------------------------------------


def _walk(block: Block, mult: float, mix: InstructionMix) -> None:
    for stmt in block:
        m = mult * stmt.count
        if isinstance(stmt, Arith):
            mix.arith[(stmt.op, stmt.dtype.base, stmt.dtype.width, stmt.accumulates)] += m
        elif isinstance(stmt, MemAccess):
            mix.mem[(stmt.kind, stmt.space, stmt.pattern, stmt.dtype.base, stmt.dtype.width, stmt.sequential, stmt.aligned)] += m
        elif isinstance(stmt, Atomic):
            mix.atomics[(stmt.op, stmt.dtype.base, stmt.space)] += m
            if stmt.space == MemSpace.LOCAL:
                mix.atomic_contention_weight_local += m * stmt.contention
            else:
                mix.atomic_contention_weight += m * stmt.contention
        elif isinstance(stmt, Barrier):
            mix.barriers += m
        elif isinstance(stmt, Branch):
            mix.branches += m
            if stmt.divergent:
                mix.divergent_branches += m
            _walk(stmt.body, m * stmt.taken_prob, mix)
            if stmt.orelse is not None:
                _walk(stmt.orelse, m * (1.0 - stmt.taken_prob), mix)
        elif isinstance(stmt, Loop):
            headers = math.ceil(stmt.trip / stmt.unroll) if stmt.static_trip else stmt.trip / stmt.unroll
            mix.loop_headers += m * headers
            _walk(stmt.body, m * stmt.trip, mix)
        elif isinstance(stmt, Call):
            if not stmt.inlined:
                mix.calls += m
            _walk(stmt.body, m, mix)
        else:  # pragma: no cover - exhaustive over Stmt union
            raise TypeError(f"unknown IR statement {stmt!r}")


def analyze(kernel: Kernel) -> InstructionMix:
    """Compute the expected per-work-item instruction mix of a kernel.

    Each call walks the tree and returns a fresh mix that no other
    caller shares.  A memo keyed by IR content would hash the whole
    tree, which costs about as much as the walk.
    """
    mix = InstructionMix()
    _walk(kernel.body, 1.0, mix)
    return mix


def walk_stmts(block: Block) -> Iterator[Stmt]:
    """Yield every statement in the tree (pre-order)."""
    for stmt in block:
        yield stmt
        if isinstance(stmt, Branch):
            yield from walk_stmts(stmt.body)
            if stmt.orelse is not None:
                yield from walk_stmts(stmt.orelse)
        elif isinstance(stmt, (Loop, Call)):
            yield from walk_stmts(stmt.body)


def any_stmt(block: Block, pred: Callable[[Stmt], bool]) -> bool:
    """True if any statement in the tree satisfies ``pred``."""
    return any(pred(s) for s in walk_stmts(block))


def max_unroll(block: Block) -> int:
    """The largest unroll factor anywhere in the tree."""
    factor = 1
    for s in walk_stmts(block):
        if isinstance(s, Loop):
            factor = max(factor, s.unroll)
    return factor


def max_width(kernel: Kernel) -> int:
    """Largest vector width used by any statement of the kernel."""
    return analyze(kernel).max_vector_width()
