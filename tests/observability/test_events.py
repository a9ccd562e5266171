"""Unit tests for the structured JSONL event log."""

import json

import pytest

from repro.observability import (
    EVENT_TYPES,
    EVENTS_SCHEMA_VERSION,
    EventLog,
    read_events,
    validate_events,
)


class TestEmit:
    def test_record_shape(self):
        log = EventLog()
        record = log.emit("STARTED", job_id="j1", extra=7)
        assert record["v"] == EVENTS_SCHEMA_VERSION
        assert record["event"] == "STARTED"
        assert record["job_id"] == "j1"
        assert record["extra"] == 7
        assert isinstance(record["ts"], float)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            EventLog().emit("EXPLODED", job_id="j1")

    def test_for_job_filters(self):
        log = EventLog()
        log.emit("STARTED", job_id="a")
        log.emit("STARTED", job_id="b")
        log.emit("COMPLETED", job_id="a", status="success")
        assert [r["event"] for r in log.for_job("a")] == \
            ["STARTED", "COMPLETED"]


class TestJsonl:
    def test_write_read_roundtrip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(str(path)) as log:
            log.emit("ADMITTED", job_id="j", depth=1)
            log.emit("COMPLETED", job_id="j", status="success")
        records = read_events(str(path))
        assert [r["event"] for r in records] == ["ADMITTED", "COMPLETED"]
        assert records == log.records()

    def test_lines_are_flushed_immediately(self, tmp_path):
        # A crashed process must still leave a usable prefix.
        path = tmp_path / "events.jsonl"
        log = EventLog(str(path))
        log.emit("STARTED", job_id="j")
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["event"] == "STARTED"
        log.close()


class TestTheInMemoryCopyIsAWindow:
    def test_the_newest_records_are_kept_the_rest_go_on(self, tmp_path):
        from repro.observability.events import RECORDS_KEPT

        path = tmp_path / "events.jsonl"
        heard = []
        with EventLog(str(path)) as log:
            log.subscribe(heard.append)
            for n in range(RECORDS_KEPT + 10):
                log.emit("STARTED", job_id=f"j{n}")
            kept = log.records()
        # A daemon emits for the life of the process: memory holds a
        # bounded window, the file and the subscribers saw everything.
        assert len(kept) == RECORDS_KEPT
        assert kept[0]["job_id"] == "j10"
        assert kept[-1]["job_id"] == f"j{RECORDS_KEPT + 9}"
        assert len(heard) == len(read_events(str(path))) \
            == RECORDS_KEPT + 10


class TestValidate:
    def _lifecycle(self):
        return [
            {"v": 1, "ts": 1.0, "event": "ADMITTED", "job_id": "j"},
            {"v": 1, "ts": 2.0, "event": "STARTED", "job_id": "j"},
            {"v": 1, "ts": 3.0, "event": "COMPLETED", "job_id": "j",
             "status": "success"},
        ]

    def test_clean_stream(self):
        assert validate_events(self._lifecycle()) == []

    def test_accepts_raw_jsonl_strings(self):
        lines = [json.dumps(r) for r in self._lifecycle()]
        assert validate_events(lines) == []

    def test_rejects_unknown_event(self):
        records = self._lifecycle()
        records[0]["event"] = "WAT"
        assert any("unknown event" in p for p in validate_events(records))

    def test_rejects_version_drift(self):
        records = self._lifecycle()
        records[0]["v"] = 99
        assert any("v !=" in p for p in validate_events(records))

    def test_rejects_completed_without_status(self):
        records = self._lifecycle()
        del records[2]["status"]
        assert any("COMPLETED without status" in p
                   for p in validate_events(records))

    def test_rejects_double_terminal(self):
        records = self._lifecycle() + [
            {"v": 1, "ts": 4.0, "event": "COMPLETED", "job_id": "j",
             "status": "success"},
        ]
        assert any("terminal" in p for p in validate_events(records))

    def test_event_vocabulary_is_closed(self):
        # The emitter and the validator share one vocabulary; growing
        # it is a deliberate act in events.py, not an emit-site typo.
        assert "COMPLETED" in EVENT_TYPES
        assert "ADMITTED" in EVENT_TYPES
        assert len(EVENT_TYPES) == 14
