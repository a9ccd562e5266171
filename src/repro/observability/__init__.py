"""``repro.observability``: tracing, metrics, and structured events.

The introspection substrate of the compile service (``repro-batch``
and the ``repro-serve`` daemon): span-based job tracing with
cross-process propagation and Chrome-trace export
(:mod:`~repro.observability.tracing`), a unified versioned metrics
registry (:mod:`~repro.observability.metrics`), and a JSONL event log
of job state transitions (:mod:`~repro.observability.events`).
"""

from .events import (
    EVENT_TYPES,
    EVENTS_SCHEMA_VERSION,
    EventLog,
    read_events,
    validate_events,
)
from .metrics import (
    DEPTH_BUCKETS,
    METRICS_SCHEMA_VERSION,
    SECONDS_BUCKETS,
    Histogram,
    MetricsRegistry,
    validate_metrics_snapshot,
)
from .tracing import (
    TRACE_SCHEMA_VERSION,
    Span,
    Tracer,
    validate_chrome_trace,
)

__all__ = [
    "EVENT_TYPES",
    "EVENTS_SCHEMA_VERSION",
    "EventLog",
    "read_events",
    "validate_events",
    "DEPTH_BUCKETS",
    "METRICS_SCHEMA_VERSION",
    "SECONDS_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "validate_metrics_snapshot",
    "TRACE_SCHEMA_VERSION",
    "Span",
    "Tracer",
    "validate_chrome_trace",
]
