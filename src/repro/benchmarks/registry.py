"""Benchmark registry, in the paper's canonical order (Figures 2-4)."""

from __future__ import annotations

from typing import Type

from .amcd import Amcd
from .base import Benchmark, Draws, Precision
from .conv2d import Conv2D
from .dmmm import Dmmm
from .hist import Histogram
from .nbody import NBody
from .reduction import Reduction
from .spmv import SpMV
from .stencil3d import Stencil3D
from .vecop import VecOp

#: X-axis order of every figure in the paper
PAPER_ORDER: tuple[str, ...] = (
    "spmv",
    "vecop",
    "hist",
    "3dstc",
    "red",
    "amcd",
    "nbody",
    "2dcon",
    "dmmm",
)

BENCHMARKS: dict[str, Type[Benchmark]] = {
    cls.name: cls
    for cls in (SpMV, VecOp, Histogram, Stencil3D, Reduction, Amcd, NBody, Conv2D, Dmmm)
}

assert set(BENCHMARKS) == set(PAPER_ORDER)


def create(
    name: str,
    precision: Precision = Precision.SINGLE,
    scale: float = 1.0,
    seed: int = 1234,
    platform=None,
    *,
    draws: Draws | None = None,
) -> Benchmark:
    """Instantiate a benchmark by its paper name.

    ``draws`` is the family's shared draw record (one per benchmark,
    scale and seed); without it the instance draws for itself alone.
    """
    try:
        cls = BENCHMARKS[name]
    except KeyError:
        raise KeyError(f"unknown benchmark {name!r}; expected one of {PAPER_ORDER}") from None
    return cls(precision=precision, scale=scale, seed=seed, platform=platform, draws=draws)


def all_benchmarks(
    precision: Precision = Precision.SINGLE, scale: float = 1.0, seed: int = 1234, platform=None
) -> list[Benchmark]:
    """All nine, in paper order."""
    return [create(name, precision, scale, seed, platform) for name in PAPER_ORDER]
