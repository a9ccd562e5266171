"""Span-based tracing for the compile service.

A :class:`Span` is one timed unit of work — a job's admission wait, a
cache lookup, one pool dispatch attempt, one top-level transform op —
with a name, wall-clock start/end, a status, free-form attributes and
a parent link. A :class:`Tracer` collects finished spans; it is
thread-safe, so the asyncio frontier, the frontier slot threads the
engine runs on and (via :meth:`Tracer.record`) the pool workers all
feed one trace.

**Span ids.** An id is a per-process random prefix (6 bytes) plus a
counter: W3C Trace Context (https://www.w3.org/TR/trace-context/) asks
only that ids be unique, and a counter costs a fraction of a
``uuid4``. The prefix is drawn again in every forked child, so a pool
worker never repeats its parent's ids.

**Cross-process propagation.** Workers cannot share a tracer object
with the engine; instead the engine ships ``(trace id, parent span
id)`` with the job, the worker records spans into a local tracer of
that trace, and returns the finished :class:`Span` records as they
are — a span is a slotted plain record, so pickle carries the list
across the pool. ``Tracer.record`` absorbs them, so one job's trace is
complete across the process boundary. Timestamps are ``time.time()``
— the one clock all processes on the machine share — so engine-side
and worker-side spans interleave correctly in the exported timeline.

**Export.** :meth:`Tracer.export_chrome` renders the trace in the
Chrome trace-event JSON format (``ph: "X"`` complete events), directly
loadable in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``;
:func:`validate_chrome_trace` is the schema check CI runs against the
exporters so the format cannot drift.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Dict, List, Optional, Union

#: Version of the exported span/trace schema (bump on shape changes).
TRACE_SCHEMA_VERSION = 1

_COUNTER = itertools.count()


def _draw_prefix() -> None:
    # The pid is kept beside the prefix: both change only at a fork,
    # and ``os.getpid()`` is a system call per span otherwise.
    global _PREFIX, _PID
    _PREFIX = os.urandom(6).hex()
    _PID = os.getpid()


_draw_prefix()
os.register_at_fork(after_in_child=_draw_prefix)


def _new_id() -> str:
    return f"{_PREFIX}{next(_COUNTER):04x}"


class Span:
    """One timed unit of work inside a trace."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "start",
                 "end", "status", "attributes", "pid", "tid")

    def __init__(self, name: str, trace_id: str,
                 span_id: Optional[str] = None,
                 parent_id: Optional[str] = None, start: float = 0.0,
                 end: Optional[float] = None,
                 attributes: Optional[Dict[str, object]] = None):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id or _new_id()
        self.parent_id = parent_id
        self.start = start
        self.end = end
        #: "ok" | "error" | any domain string ("silenceable", "timeout"...).
        self.status = "ok"
        self.attributes = {} if attributes is None else attributes
        self.pid = _PID
        self.tid = threading.get_ident()

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0


ParentLike = Union[Span, str, None]


def _parent_id(parent: ParentLike) -> Optional[str]:
    if parent is None or isinstance(parent, str):
        return parent
    return parent.span_id


class Tracer:
    """Collects spans for one trace; thread-safe.

    Every span started through a tracer carries the tracer's trace id.
    A worker-side tracer is constructed with the engine's trace id so
    its spans join the same trace when shipped back.
    """

    def __init__(self, trace_id: Optional[str] = None):
        self.trace_id = trace_id or _new_id()
        self._spans: List[Span] = []
        self._lock = threading.Lock()

    # -- recording ----------------------------------------------------------

    def start_span(self, name: str, parent: ParentLike = None,
                   attributes: Optional[Dict[str, object]] = None) -> Span:
        return Span(name, self.trace_id, None, _parent_id(parent),
                    time.time(), None, dict(attributes or {}))

    def end_span(self, span: Span, status: Optional[str] = None) -> Span:
        if status is not None:
            span.status = status
        # time.time() is not monotonic under clock steps; a span must
        # still never end before it starts (the exporter emits an
        # unsigned duration and consumers assert end >= start).
        span.end = max(time.time(), span.start)
        with self._lock:
            self._spans.append(span)
        return span

    def span(self, name: str, parent: ParentLike = None,
             attributes: Optional[Dict[str, object]] = None):
        """Context-manager form: ends the span on exit, flagging the
        status "error" when the body raised."""
        return _SpanScope(self, name, parent, attributes)

    def record(self, spans: List[Span]) -> None:
        """Absorb spans recorded by another tracer (a pool worker's,
        returned in its result payload)."""
        if not spans:
            return
        with self._lock:
            self._spans.extend(spans)

    # -- introspection ------------------------------------------------------

    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def find(self, name: str) -> List[Span]:
        return [span for span in self.spans() if span.name == name]

    # -- export -------------------------------------------------------------

    def export_chrome(self) -> Dict[str, object]:
        """The trace as a Chrome trace-event JSON object.

        One ``ph: "X"`` (complete) event per span; ``ts``/``dur`` are
        microseconds relative to the earliest span start, so the
        timeline opens at t=0 in Perfetto. Span identity and parent
        links ride in ``args`` (the viewer nests same-thread spans by
        time containment; cross-process parent links stay inspectable
        per event).
        """
        spans = self.spans()
        base = min((span.start for span in spans), default=0.0)
        events: List[Dict[str, object]] = []
        for span in spans:
            events.append({
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": (span.start - base) * 1e6,
                "dur": max(span.duration, 0.0) * 1e6,
                "pid": span.pid,
                "tid": span.tid,
                "args": {
                    "trace_id": span.trace_id,
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "status": span.status,
                    **span.attributes,
                },
            })
        return {
            "displayTimeUnit": "ms",
            "otherData": {
                "schema_version": TRACE_SCHEMA_VERSION,
                "trace_id": self.trace_id,
                "epoch_base_seconds": base,
            },
            "traceEvents": events,
        }

    def write_chrome(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.export_chrome(), handle, indent=2)


class _SpanScope:
    """The object behind :meth:`Tracer.span`; yields the live span."""

    def __init__(self, tracer: Tracer, name: str, parent: ParentLike,
                 attributes: Optional[Dict[str, object]]):
        self._tracer = tracer
        self._name = name
        self._parent = parent
        self._attributes = attributes
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        self.span = self._tracer.start_span(
            self._name, self._parent, self._attributes
        )
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        assert self.span is not None
        status = None
        if exc_type is not None and self.span.status == "ok":
            status = "error"
            self.span.attributes.setdefault(
                "exception", f"{exc_type.__name__}: {exc}"
            )
        self._tracer.end_span(self.span, status)


# ---------------------------------------------------------------------------
# Schema validation (used by tests and CI so the exporter cannot drift)
# ---------------------------------------------------------------------------


def validate_chrome_trace(trace: Dict[str, object]) -> List[str]:
    """Structural validation of an exported Chrome trace.

    Returns a list of problems (empty = valid): required top-level
    keys, per-event required fields, unique span ids, no orphan parent
    links, non-negative timestamps and durations (end >= start), and a
    single trace id across all events.
    """
    problems: List[str] = []
    if not isinstance(trace, dict):
        return ["trace is not a JSON object"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    meta = trace.get("otherData")
    if (not isinstance(meta, dict)
            or meta.get("schema_version") != TRACE_SCHEMA_VERSION):
        problems.append(
            f"otherData.schema_version != {TRACE_SCHEMA_VERSION}"
        )
    span_ids = set()
    trace_ids = set()
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in ("name", "ph", "ts", "dur", "pid", "tid", "args"):
            if key not in event:
                problems.append(f"{where}: missing {key!r}")
        if event.get("ph") != "X":
            problems.append(f"{where}: ph is not 'X'")
        if not isinstance(event.get("ts"), (int, float)) \
                or event.get("ts", -1) < 0:
            problems.append(f"{where}: ts is not a non-negative number")
        if not isinstance(event.get("dur"), (int, float)) \
                or event.get("dur", -1) < 0:
            problems.append(f"{where}: dur is not a non-negative number")
        args = event.get("args")
        if not isinstance(args, dict):
            continue
        span_id = args.get("span_id")
        if not span_id:
            problems.append(f"{where}: args.span_id missing")
        elif span_id in span_ids:
            problems.append(f"{where}: duplicate span_id {span_id}")
        else:
            span_ids.add(span_id)
        trace_ids.add(args.get("trace_id"))
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            continue
        args = event.get("args")
        if not isinstance(args, dict):
            continue
        parent = args.get("parent_id")
        if parent is not None and parent not in span_ids:
            problems.append(
                f"traceEvents[{index}]: orphan parent_id {parent} "
                f"(span {args.get('span_id')})"
            )
    if len(trace_ids) > 1:
        problems.append(f"multiple trace ids in one trace: {trace_ids}")
    return problems
