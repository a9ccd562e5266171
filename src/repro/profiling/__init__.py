"""In-process observability for the transform hot paths.

:class:`Profiler` collects per-pattern, per-transform-op and per-pass
wall time plus worklist and invalidation counters, and renders them as
a ``-mlir-timing``-style text report. See README "Profiling & timing
reports".
"""

from .profiler import (
    InvalidationStats,
    PatternStat,
    Profiler,
    TimedStat,
    WorklistStats,
)

__all__ = [
    "InvalidationStats",
    "PatternStat",
    "Profiler",
    "TimedStat",
    "WorklistStats",
]
