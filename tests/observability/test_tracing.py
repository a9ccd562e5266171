"""Unit tests for the span tracer and the Chrome-trace exporter."""

import json
import pickle

import pytest

from repro.observability import (
    TRACE_SCHEMA_VERSION,
    Span,
    Tracer,
    validate_chrome_trace,
)


class TestSpan:
    def test_pickle_roundtrip_keeps_every_field(self):
        tracer = Tracer()
        span = tracer.start_span("work", attributes={"k": 1})
        tracer.end_span(span, "silenceable")
        restored = pickle.loads(pickle.dumps(span))
        for field in Span.__slots__:
            assert getattr(restored, field) == getattr(span, field), field

    def test_ids_are_distinct_and_share_the_process_prefix(self):
        tracer = Tracer()
        ids = [tracer.start_span("s").span_id for _ in range(1000)]
        assert len(set(ids)) == len(ids)
        assert len({span_id[:12] for span_id in ids}) == 1

    def test_end_never_before_start(self):
        tracer = Tracer()
        span = tracer.start_span("clock-step")
        span.start = span.start + 3600.0  # simulate a clock step back
        tracer.end_span(span)
        assert span.end >= span.start

    def test_parent_forms(self):
        tracer = Tracer()
        parent = tracer.start_span("parent")
        by_span = tracer.start_span("a", parent=parent)
        by_id = tracer.start_span("c", parent=parent.span_id)
        assert by_span.parent_id == parent.span_id
        assert by_id.parent_id == parent.span_id


class TestTracer:
    def test_context_manager_flags_errors(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        (span,) = tracer.spans()
        assert span.status == "error"
        assert "ValueError" in span.attributes["exception"]

    def test_record_absorbs_remote_spans(self):
        engine_side = Tracer()
        parent = engine_side.start_span("dispatch")
        # "Worker process": a tracer of the propagated trace whose
        # spans come back through pickle, as the pool returns them.
        worker_side = Tracer(trace_id=engine_side.trace_id)
        child = worker_side.start_span("compile", parent=parent.span_id)
        worker_side.end_span(child)
        engine_side.end_span(parent)

        engine_side.record(pickle.loads(pickle.dumps(worker_side.spans())))
        spans = {s.name: s for s in engine_side.spans()}
        assert spans["compile"].parent_id == parent.span_id
        assert spans["compile"].trace_id == engine_side.trace_id
        assert not validate_chrome_trace(engine_side.export_chrome())

    def test_find(self):
        tracer = Tracer()
        for _ in range(3):
            tracer.end_span(tracer.start_span("x"))
        tracer.end_span(tracer.start_span("y"))
        assert len(tracer.find("x")) == 3
        assert len(tracer.find("y")) == 1


class TestChromeExport:
    def _trace(self):
        tracer = Tracer()
        root = tracer.start_span("root")
        child = tracer.start_span("child", parent=root)
        tracer.end_span(child)
        tracer.end_span(root)
        return tracer.export_chrome()

    def test_valid_and_versioned(self):
        trace = self._trace()
        assert validate_chrome_trace(trace) == []
        assert trace["otherData"]["schema_version"] == TRACE_SCHEMA_VERSION
        assert all(e["ph"] == "X" for e in trace["traceEvents"])
        assert all(e["ts"] >= 0 and e["dur"] >= 0
                   for e in trace["traceEvents"])

    def test_json_serializable(self):
        json.dumps(self._trace())

    def test_validator_catches_orphans(self):
        trace = self._trace()
        trace["traceEvents"][0]["args"]["parent_id"] = "no-such-span"
        assert any("orphan" in p for p in validate_chrome_trace(trace))

    def test_validator_catches_duplicates(self):
        trace = self._trace()
        trace["traceEvents"][1]["args"]["span_id"] = \
            trace["traceEvents"][0]["args"]["span_id"]
        assert any("duplicate" in p for p in validate_chrome_trace(trace))

    def test_validator_catches_mixed_traces(self):
        trace = self._trace()
        trace["traceEvents"][0]["args"]["trace_id"] = "another"
        assert any("multiple trace ids" in p
                   for p in validate_chrome_trace(trace))

    def test_validator_catches_version_drift(self):
        trace = self._trace()
        trace["otherData"]["schema_version"] = TRACE_SCHEMA_VERSION + 1
        assert any("schema_version" in p
                   for p in validate_chrome_trace(trace))

    def test_write_chrome(self, tmp_path):
        tracer = Tracer()
        tracer.end_span(tracer.start_span("w"))
        out = tmp_path / "trace.json"
        tracer.write_chrome(str(out))
        assert validate_chrome_trace(json.loads(out.read_text())) == []
