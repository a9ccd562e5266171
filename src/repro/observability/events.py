"""The structured event log: one JSONL record per job state change.

Spans answer "where did the time go"; events answer "what happened,
in what order". Every transition in a job's lifecycle — admitted to
the frontier queue, dequeued, started in the engine, answered from
the cache, dispatched to a worker, retried, quarantined, completed —
emits one record carrying the job id as the correlation id, so a
chaos-driver failure or a fuzzer crash is replayable against an exact
timeline (join the event log with the fired fault schedule on time
and job id).

Records are plain dicts; with a ``path`` the log writes each record
as one JSON line immediately (line-buffered, so a crashed process
still leaves a usable prefix). An in-memory copy of the most recent
:data:`RECORDS_KEPT` records is always kept for tests and tools to
read; a long-lived daemon emits several records per job for the life
of the process, so the copy is a window, not a history — the file and
the subscribers (``repro-serve``'s streaming-status surface) see every
record.

:func:`validate_events` is the schema check CI runs against the
emitter so the format cannot drift.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Union

#: Version of the event record schema (the per-record ``v`` field).
EVENTS_SCHEMA_VERSION = 1

#: Every event type the service emits. ``emit`` rejects anything
#: else, so new lifecycle states must be added here (and to the
#: validator's expectations) deliberately.
EVENT_TYPES = frozenset({
    # frontier
    "ADMITTED",       # job entered the admission queue (depth)
    "DEQUEUED",       # the job got a dispatch slot (depth)
    # engine front-end
    "STARTED",        # engine began processing
    "REJECTED",       # static preflight / parse refusal
    "CACHE_HIT",      # answered from the content-addressed cache
    "ASSEMBLED",      # answered from the per-function cache tier
    "COALESCED",      # follower of an in-flight identical job
    "POISONED",       # refused by the quarantine circuit breaker
    # pool boundary
    "DISPATCHED",     # one execution attempt began (pool or in-process)
    "RETRIED",        # the retry policy granted another attempt
    "TIMEOUT",        # an attempt exceeded the deadline
    "CRASHED",        # an attempt died with the pool
    "DEGRADED",       # crash-loop detection demoted the engine
    # terminal
    "COMPLETED",      # job reached a terminal status
})

#: Event types that mark the end of a job's lifecycle.
TERMINAL_EVENTS = frozenset({"COMPLETED"})

#: Records :meth:`EventLog.records` can return: the newest ones.
RECORDS_KEPT = 4096


class EventLog:
    """Thread-safe JSONL event emitter with a bounded in-memory copy.

    Live consumers (the ``repro-serve`` streaming-status surface)
    register with :meth:`subscribe`; every subscriber sees every
    record, in emission order, as it is emitted.
    """

    def __init__(self, path: Optional[str] = None):
        self._records: Deque[Dict[str, object]] = deque(
            maxlen=RECORDS_KEPT)
        self._lock = threading.Lock()
        self._handle = open(path, "w") if path is not None else None
        self._subscribers: List[Callable[[Dict[str, object]], None]] = []

    def subscribe(
            self, callback: Callable[[Dict[str, object]], None],
    ) -> Callable[[], None]:
        """Invoke ``callback(record)`` on every future emit; returns
        an unsubscribe callable. Callbacks run on the emitting thread
        (the engine emits from frontier slot threads) and must be fast
        and non-blocking — hand records off to a queue, do not
        process them inline. A raising callback is dropped from the
        subscriber list rather than poisoning subsequent emits."""
        with self._lock:
            self._subscribers.append(callback)

        def unsubscribe() -> None:
            with self._lock:
                try:
                    self._subscribers.remove(callback)
                except ValueError:
                    pass

        return unsubscribe

    def emit(self, event: str, job_id: Optional[str] = None,
             **fields: object) -> Dict[str, object]:
        if event not in EVENT_TYPES:
            raise ValueError(f"unknown event type {event!r}")
        record: Dict[str, object] = {
            "v": EVENTS_SCHEMA_VERSION,
            "ts": time.time(),
            "event": event,
        }
        if job_id is not None:
            record["job_id"] = job_id
        record.update(fields)
        with self._lock:
            self._records.append(record)
            if self._handle is not None:
                self._handle.write(json.dumps(record) + "\n")
                self._handle.flush()
            subscribers = list(self._subscribers)
        for callback in subscribers:
            try:
                callback(record)
            except Exception:
                with self._lock:
                    try:
                        self._subscribers.remove(callback)
                    except ValueError:
                        pass
        return record

    def records(self) -> List[Dict[str, object]]:
        with self._lock:
            return list(self._records)

    def for_job(self, job_id: str) -> List[Dict[str, object]]:
        return [record for record in self.records()
                if record.get("job_id") == job_id]

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_events(path: str) -> List[Dict[str, object]]:
    """Load a JSONL event file back into records."""
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def validate_events(
        records: Union[List[Dict[str, object]], List[str]],
) -> List[str]:
    """Structural validation of an event stream; empty = valid.

    Checks each record's required fields (``v``, ``ts``, ``event``)
    and type membership, and the per-job lifecycle shape: any job with
    a terminal event has exactly one, preceded (in emission order) by
    at least one non-terminal event, and COMPLETED records carry a
    ``status``.
    """
    problems: List[str] = []
    decoded: List[Dict[str, object]] = []
    for index, record in enumerate(records):
        if isinstance(record, str):
            try:
                record = json.loads(record)
            except json.JSONDecodeError as error:
                problems.append(f"record[{index}]: not JSON ({error})")
                continue
        if not isinstance(record, dict):
            problems.append(f"record[{index}]: not an object")
            continue
        if record.get("v") != EVENTS_SCHEMA_VERSION:
            problems.append(
                f"record[{index}]: v != {EVENTS_SCHEMA_VERSION}"
            )
        if not isinstance(record.get("ts"), (int, float)):
            problems.append(f"record[{index}]: ts is not a number")
        event = record.get("event")
        if event not in EVENT_TYPES:
            problems.append(f"record[{index}]: unknown event {event!r}")
            continue
        if event == "COMPLETED" and "status" not in record:
            problems.append(f"record[{index}]: COMPLETED without status")
        decoded.append(record)
    by_job: Dict[str, List[Dict[str, object]]] = {}
    for record in decoded:
        job_id = record.get("job_id")
        if isinstance(job_id, str):
            by_job.setdefault(job_id, []).append(record)
    for job_id, stream in by_job.items():
        terminals = [r for r in stream if r["event"] in TERMINAL_EVENTS]
        if len(terminals) > 1:
            problems.append(
                f"job {job_id}: {len(terminals)} terminal events"
            )
        if terminals and stream.index(terminals[0]) == 0 \
                and len(stream) > 1:
            problems.append(
                f"job {job_id}: terminal event precedes lifecycle events"
            )
    return problems
