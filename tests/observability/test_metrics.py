"""Unit tests for the unified metrics registry."""

import json
import threading

import pytest

from repro.observability import (
    DEPTH_BUCKETS,
    METRICS_SCHEMA_VERSION,
    Histogram,
    MetricsRegistry,
    validate_metrics_snapshot,
)


class TestHistogram:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.histogram("h") is registry.histogram("h")

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("bad", bounds=[2.0, 1.0])

    def test_counts_and_exact_summary(self):
        hist = Histogram("h", bounds=[1.0, 2.0, 4.0])
        for value in (0.5, 1.5, 3.0, 10.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == 15.0
        assert snap["min"] == 0.5
        assert snap["max"] == 10.0
        assert snap["mean"] == pytest.approx(3.75)
        # 3 bounds -> 4 buckets (last = overflow), one sample each.
        assert snap["bucket_counts"] == [1, 1, 1, 1]

    def test_quantiles_are_clamped_estimates(self):
        hist = Histogram("h", bounds=list(DEPTH_BUCKETS))
        for depth in (1, 1, 2, 3, 5, 8):
            hist.observe(depth)
        assert hist.quantile(0.0) >= 1  # clamped to observed min
        assert hist.quantile(1.0) == 8  # clamped to observed max
        assert 1 <= hist.quantile(0.5) <= 5

    def test_empty_quantile_is_zero(self):
        assert Histogram("h").quantile(0.5) == 0.0

    def test_quantile_range_checked(self):
        with pytest.raises(ValueError):
            Histogram("h").quantile(1.5)

    def test_concurrent_observe_loses_nothing(self):
        hist = Histogram("h")
        threads = [
            threading.Thread(
                target=lambda: [hist.observe(0.01) for _ in range(1000)]
            )
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert hist.count == 4000
        snap = hist.snapshot()
        assert sum(snap["bucket_counts"]) == 4000


class TestSnapshot:
    def test_versioned_and_valid(self):
        registry = MetricsRegistry()
        registry.gauges["service.depth"] = 2
        registry.histogram("service.seconds").observe(0.05)
        snap = registry.snapshot(service={"jobs": 3})
        assert snap["schema_version"] == METRICS_SCHEMA_VERSION
        assert validate_metrics_snapshot(snap) == []
        assert snap["counters"]["service.jobs"] == 3
        assert snap["gauges"]["service.depth"] == 2.0
        assert isinstance(snap["gauges"]["service.depth"], float)
        assert snap["histograms"]["service.seconds"]["count"] == 1
        json.dumps(snap)

    def test_sections_fold_by_kind(self):
        registry = MetricsRegistry()
        snap = registry.snapshot(engine={
            "submitted": 4,            # int -> counter
            "hit_rate": 0.5,           # float -> gauge
            "degraded": True,          # bool -> gauge
            "diagnostic": "a string",  # ignored
            "nested": {"inner": 2},    # recursed
        })
        assert snap["counters"]["engine.submitted"] == 4
        assert snap["gauges"]["engine.hit_rate"] == 0.5
        assert snap["gauges"]["engine.degraded"] == 1.0
        assert snap["counters"]["engine.nested.inner"] == 2
        assert "engine.diagnostic" not in snap["counters"]
        assert "engine.diagnostic" not in snap["gauges"]
        # Folded at read time: the registry keeps none of it.
        assert registry.snapshot()["counters"] == {}

    def test_names_are_sorted_within_each_kind(self):
        registry = MetricsRegistry()
        registry.gauges["b.live"] = 1
        snap = registry.snapshot(b={"n": 1, "rate": 0.5},
                                 a={"n": 2, "on": False})
        assert list(snap["counters"]) == ["a.n", "b.n"]
        assert list(snap["gauges"]) == ["a.on", "b.live", "b.rate"]

    def test_validator_catches_drift(self):
        registry = MetricsRegistry()
        registry.histogram("h").observe(1.0)
        snap = registry.snapshot()
        snap["histograms"]["h"]["bucket_counts"] = [1]
        assert any("bucket_counts" in p
                   for p in validate_metrics_snapshot(snap))
        snap = registry.snapshot()
        del snap["histograms"]["h"]["p99"]
        assert any("p99" in p for p in validate_metrics_snapshot(snap))
        snap = registry.snapshot()
        snap["schema_version"] = 999
        assert any("schema_version" in p
                   for p in validate_metrics_snapshot(snap))
