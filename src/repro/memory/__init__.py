"""Exynos 5250 memory-system models: caches, DRAM, access patterns."""

from .cache import CacheConfig, CacheHierarchy, CacheModel, StreamSpec
from .dram import DramConfig, DramModel
from .patterns import PatternEfficiency, effective_bandwidth_fraction

__all__ = [
    "CacheConfig",
    "CacheHierarchy",
    "CacheModel",
    "DramConfig",
    "DramModel",
    "PatternEfficiency",
    "StreamSpec",
    "effective_bandwidth_fraction",
]
