"""The metrics registry: live instruments, one versioned snapshot.

The snapshot has three kinds of metric:

* *counters* — monotonically increasing numbers (jobs completed,
  retries granted, cache hits);
* *gauges* — point-in-time values (current queue depth, degraded
  flags, hit rates);
* *histograms* — :class:`Histogram`, a fixed-bucket distribution with
  estimated p50/p90/p99 (job wall time, queue depth at
  admission/dispatch).

A number is stored in one place. Each component keeps its own plain
counters (``EngineStats``, ``CacheStats``, ``ServerStats``, ...); the
registry holds only what no component does — the histograms, and the
``gauges`` that are set live (the frontier's current queue depth).
:meth:`MetricsRegistry.snapshot` folds the components' counters in at
read time: the single **versioned** JSON schema (``schema_version``)
under the ``"metrics"`` key of ``repro-batch --json`` and of the
``repro-serve`` ``stats`` frame, taken by
:meth:`~repro.service.engine.CompileEngine.metrics_snapshot`.
:func:`validate_metrics_snapshot` is the structural check the tests
and both CI smoke jobs run on it.

Fixed buckets keep ``observe`` O(log buckets) with zero allocation,
so instruments can sit on hot paths; percentiles are estimated by
linear interpolation inside the winning bucket (the standard
Prometheus-style estimation error: bounded by bucket width).
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: Version of the snapshot schema (bump on shape changes).
METRICS_SCHEMA_VERSION = 1

#: Default bucket bounds for duration histograms, in seconds:
#: 100us .. 60s, roughly x2.5 per step.
SECONDS_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Default bucket bounds for small-integer distributions (queue
#: depth, batch sizes): powers of two up to 1024.
DEPTH_BUCKETS: Tuple[float, ...] = (
    0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
    512.0, 1024.0,
)


class Histogram:
    """Fixed-bucket histogram with percentile estimation.

    ``bounds`` are the inclusive upper edges of each bucket; samples
    above the last bound land in the overflow bucket. Exact count,
    sum, min and max are tracked alongside, so means are exact and
    only the percentiles are bucket-estimates.
    """

    def __init__(self, name: str,
                 bounds: Sequence[float] = SECONDS_BUCKETS):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be sorted and "
                             "non-empty")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self._counts = [0] * (len(self.bounds) + 1)  # +1 = overflow
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """Estimated q-quantile (0 <= q <= 1) by linear interpolation
        inside the winning bucket, clamped to the observed min/max."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            if self._count == 0:
                return 0.0
            target = q * self._count
            seen = 0
            for index, bucket_count in enumerate(self._counts):
                if bucket_count == 0:
                    continue
                if seen + bucket_count >= target:
                    if index >= len(self.bounds):
                        # Overflow bucket: no upper edge; the observed
                        # max is the best estimate.
                        return float(self._max)  # type: ignore[arg-type]
                    hi = self.bounds[index]
                    lo = self.bounds[index - 1] if index > 0 else min(
                        0.0, self._min  # type: ignore[type-var]
                    )
                    fraction = (target - seen) / bucket_count
                    estimate = lo + (hi - lo) * fraction
                    return max(min(estimate, self._max),  # type: ignore[type-var]
                               self._min)  # type: ignore[type-var]
                seen += bucket_count
            return float(self._max)  # type: ignore[arg-type]

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            counts = list(self._counts)
            count = self._count
            total = self._sum
            lo, hi = self._min, self._max
        summary: Dict[str, object] = {
            "count": count,
            "sum": total,
            "min": lo if lo is not None else 0.0,
            "max": hi if hi is not None else 0.0,
            "mean": (total / count) if count else 0.0,
            "bounds": list(self.bounds),
            "bucket_counts": counts,
        }
        # Percentiles re-walk under their own lock acquisition; fine —
        # snapshot consistency is per-field, not transactional.
        summary["p50"] = self.quantile(0.50)
        summary["p90"] = self.quantile(0.90)
        summary["p99"] = self.quantile(0.99)
        return summary


class MetricsRegistry:
    """The live instruments of one engine, and the one versioned
    snapshot that folds in everyone else's counters."""

    def __init__(self) -> None:
        self._histograms: Dict[str, Histogram] = {}
        #: Gauges set live by their owner: name -> number.
        self.gauges: Dict[str, float] = {}
        self._lock = threading.Lock()

    def histogram(self, name: str,
                  bounds: Sequence[float] = SECONDS_BUCKETS) -> Histogram:
        """The histogram called ``name``, created on first use."""
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = Histogram(name, bounds)
            return self._histograms[name]

    def snapshot(self, **sections: Mapping[str, object]) -> Dict[str, object]:
        """The one versioned machine-readable dump. Each of
        ``sections`` (an ``as_dict()``-style stats shape) is folded in
        under ``<name>.``: ints become counters, floats and bools
        gauges, nested mappings recurse, anything else (strings,
        None) is not a metric."""
        counters: Dict[str, float] = {}
        gauges = {name: float(value) for name, value in self.gauges.items()}

        def fold(prefix: str, values: Mapping[str, object]) -> None:
            for key, value in values.items():
                name = f"{prefix}.{key}"
                if isinstance(value, bool):
                    gauges[name] = 1.0 if value else 0.0
                elif isinstance(value, int):
                    counters[name] = float(value)
                elif isinstance(value, float):
                    gauges[name] = value
                elif isinstance(value, Mapping):
                    fold(name, value)

        for prefix, values in sections.items():
            fold(prefix, values)
        with self._lock:
            histograms = dict(self._histograms)
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": {name: histograms[name].snapshot()
                           for name in sorted(histograms)},
        }


# ---------------------------------------------------------------------------
# Schema validation (run by the tests and by CI on the smoke artifacts)
# ---------------------------------------------------------------------------

_HISTOGRAM_FIELDS = ("count", "sum", "min", "max", "mean", "p50",
                     "p90", "p99", "bounds", "bucket_counts")


def validate_metrics_snapshot(snapshot: Dict[str, object]) -> List[str]:
    """Structural validation of a registry snapshot; empty = valid."""
    problems: List[str] = []
    if not isinstance(snapshot, dict):
        return ["snapshot is not a JSON object"]
    if snapshot.get("schema_version") != METRICS_SCHEMA_VERSION:
        problems.append(
            f"schema_version != {METRICS_SCHEMA_VERSION}"
        )
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(snapshot.get(section), dict):
            problems.append(f"{section} missing or not an object")
    for name, value in (snapshot.get("counters") or {}).items():
        if not isinstance(value, (int, float)) or value < 0:
            problems.append(f"counter {name}: not a non-negative number")
    for name, value in (snapshot.get("gauges") or {}).items():
        if not isinstance(value, (int, float)):
            problems.append(f"gauge {name}: not a number")
    for name, hist in (snapshot.get("histograms") or {}).items():
        if not isinstance(hist, dict):
            problems.append(f"histogram {name}: not an object")
            continue
        for required in _HISTOGRAM_FIELDS:
            if required not in hist:
                problems.append(f"histogram {name}: missing {required!r}")
        counts = hist.get("bucket_counts")
        bounds = hist.get("bounds")
        if isinstance(counts, list) and isinstance(bounds, list) \
                and len(counts) != len(bounds) + 1:
            problems.append(
                f"histogram {name}: bucket_counts must have "
                f"len(bounds)+1 entries"
            )
        if isinstance(counts, list) \
                and isinstance(hist.get("count"), int) \
                and sum(counts) != hist["count"]:
            problems.append(
                f"histogram {name}: bucket counts do not sum to count"
            )
    return problems
