"""The metrics registry: named instruments, one versioned snapshot.

* :class:`Counter` — a monotonically increasing number (jobs
  completed, retries granted, cache hits);
* :class:`Gauge` — a point-in-time value (current queue depth,
  degraded flags, hit rates);
* :class:`Histogram` — a fixed-bucket distribution with estimated
  p50/p90/p99 (job wall time, queue depth at admission/dispatch).

The compile service is the one user: each
:class:`~repro.service.engine.CompileEngine` owns a registry
(``engine.metrics``) that holds its *distributions* live, and
:meth:`~repro.service.engine.CompileEngine.metrics_snapshot` syncs
the components' plain counters (``EngineStats``, ``CacheStats``, ...)
next to them with :meth:`MetricsRegistry.set_section` before taking
``registry.snapshot()`` — the single **versioned** JSON schema
(``schema_version``) under the ``"metrics"`` key of ``repro-batch
--json`` and of the ``repro-serve`` ``stats`` frame.
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


class Counter:
    """A monotonically increasing value (float-valued, so second
    totals can ride on it too)."""

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Sync an externally accumulated total (a component's stats
        field) onto the registry."""
        with self._lock:
            self._value = value

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A point-in-time value."""

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


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
    """Process-wide named metrics with one versioned snapshot.

    ``counter``/``gauge``/``histogram`` get-or-create by name;
    requesting an existing name as a different kind raises, so two
    subsystems cannot silently alias one metric with different
    semantics.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, kind, *args):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = kind(name, *args)
                self._metrics[name] = metric
                return metric
        if not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str,
                  bounds: Sequence[float] = SECONDS_BUCKETS) -> Histogram:
        return self._get_or_create(name, Histogram, bounds)

    def set_section(self, prefix: str,
                    values: Mapping[str, object]) -> None:
        """Sync a scalar mapping (an ``as_dict()``-style stats shape)
        onto the registry under ``prefix.``: ints become counters
        (set), floats and bools become gauges, nested mappings
        recurse. This is how the components' own stores —
        ``EngineStats``, ``CacheStats``, ``ServerStats`` — are folded
        into the one snapshot without a second recording site."""
        for key, value in values.items():
            name = f"{prefix}.{key}"
            if isinstance(value, bool):
                self.gauge(name).set(1.0 if value else 0.0)
            elif isinstance(value, int):
                self.counter(name).set(float(value))
            elif isinstance(value, float):
                self.gauge(name).set(value)
            elif isinstance(value, Mapping):
                self.set_section(name, value)
            # Non-numeric values (strings, None) are not metrics.

    def snapshot(self) -> Dict[str, object]:
        """The one versioned machine-readable dump."""
        with self._lock:
            metrics = dict(self._metrics)
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, object]] = {}
        for name in sorted(metrics):
            metric = metrics[name]
            if isinstance(metric, Counter):
                counters[name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[name] = metric.value
            elif isinstance(metric, Histogram):
                histograms[name] = metric.snapshot()
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
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
