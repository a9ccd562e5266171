"""Admission answers what memory can answer — and is the same route,
shorter: a job the input memo and the cache's memory tier can answer
is answered by ``ServiceFrontier.submit`` on the event loop, with the
result, counters, events and spans of the queued route minus the queue.
"""

import asyncio
import json

import pytest

from repro.observability import (
    EventLog,
    Tracer,
    validate_chrome_trace,
    validate_events,
)
from repro.service import (
    AsyncServiceClient,
    CompilationCache,
    CompileEngine,
    CompileJob,
    CompileServer,
    JobStatus,
)
from repro.service.frontier import ServiceFrontier
from repro.service.server import result_to_frame
from repro.service.wire import read_frame_async

from .test_engine import PAYLOAD, UNROLL, USE_AFTER_CONSUME

OTHER = PAYLOAD.replace("8 : index", "12 : index")


class _QueuedOnly:
    """The same engine with the admission method hidden: the frontier
    finds no ``answer`` (like the ``run_job``-only engine doubles of
    ``test_server.py``) and queues every job — the reference route."""

    def __init__(self, engine):
        self._engine = engine

    def __getattr__(self, name):
        if name == "answer":
            raise AttributeError(name)
        return getattr(self._engine, name)


def _forget_results(engine):
    engine.cache.clear()


#: scenario -> (what happens between the warm-up job and the probe,
#: the probe's texts, whether admission answers the probe, its status).
SCENARIOS = {
    "memoized-and-cached": (
        None, (PAYLOAD, UNROLL), True, JobStatus.SUCCESS),
    "memoized-entry-evicted": (
        _forget_results, (PAYLOAD, UNROLL), False, JobStatus.SUCCESS),
    "never-seen-text": (
        None, (OTHER, UNROLL), False, JobStatus.SUCCESS),
    "memoized-lint-error": (
        None, (PAYLOAD, USE_AFTER_CONSUME), True, JobStatus.REJECTED),
}


def _drive(scenario, admission):
    """Warm an engine (one clean job, one statically rejected one), apply
    the scenario, then submit the probe through a frontier; returns what
    the probe alone moved."""
    between, (payload, script), _, _ = SCENARIOS[scenario]
    tracer, events = Tracer(), EventLog()

    async def go():
        with CompileEngine(workers=0, tracer=tracer, events=events,
                           cache=CompilationCache(capacity=8)) as engine:
            seen = engine if admission else _QueuedOnly(engine)
            async with ServiceFrontier(seen) as frontier:
                await frontier.submit(CompileJob(PAYLOAD, UNROLL))
                await frontier.submit(
                    CompileJob(PAYLOAD, USE_AFTER_CONSUME))
                if between is not None:
                    between(engine)
                before = _counters(engine)
                spans = len(tracer.spans())
                result = await frontier.submit(
                    CompileJob(payload, script, job_id="probe"))
                moved = {name: value - before[name]
                         for name, value in _counters(engine).items()}
                return result, moved, tracer.spans()[spans:]

    result, moved, spans = asyncio.run(go())
    assert validate_events(events.records()) == []
    assert validate_chrome_trace(tracer.export_chrome()) == []
    return result, moved, spans, events.for_job("probe")


def _counters(engine):
    histograms = engine.metrics.snapshot()["histograms"]
    return {
        "engine.submitted": engine.stats.submitted,
        "engine.completed": engine.stats.completed,
        "engine.cache_hits": engine.stats.cache_hits,
        "engine.rejected": engine.stats.rejected,
        "engine.executed": engine.stats.executed,
        "cache.hits": engine.cache.stats.hits,
        "cache.misses": engine.cache.stats.misses,
        "service.job_seconds": histograms["service.job_seconds"]["count"],
        "service.queue_depth": histograms["service.queue_depth"]["count"],
    }


def _frame(result):
    frame = result_to_frame(result)
    # The two clock readings (a compile's is nonzero on a miss).
    del frame["wall_seconds"], frame["worker_seconds"]
    return frame


class TestAdmissionIsTheSameRouteShorter:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_same_frame_counters_events_and_spans(self, scenario):
        _, _, answered, status = SCENARIOS[scenario]
        result, moved, spans, stream = _drive(scenario, admission=True)
        queued, queued_moved, queued_spans, queued_stream = _drive(
            scenario, admission=False)
        assert result.status is status
        # Field for field the queued route's frame.
        assert _frame(result) == _frame(queued)
        # The queue is the only thing an answered job does not touch:
        # two depth samples (enqueue, dequeue), two events, one span.
        depth = moved.pop("service.queue_depth")
        assert queued_moved.pop("service.queue_depth") == 2
        assert depth == (0 if answered else 2)
        assert moved == queued_moved
        queue = ("ADMITTED", "DEQUEUED")
        events = [record["event"] for record in stream]
        queued_events = [record["event"] for record in queued_stream]
        assert queued_events[:2] == list(queue)
        assert events == queued_events[2 if answered else 0:]
        names = sorted(span.name for span in spans)
        assert sorted(names + (["queue.wait"] if answered else [])) \
            == sorted(span.name for span in queued_spans)
        # One tree: every span of the probe hangs off its root.
        by_id = {span.span_id: span for span in spans}
        roots = [span for span in spans if span.parent_id not in by_id]
        assert [span.name for span in roots] == ["job:probe"]

    def test_an_answered_hit_is_the_cached_bytes(self):
        result, moved, _, stream = _drive("memoized-and-cached", True)
        assert result.cache_hit and result.output
        assert moved["engine.cache_hits"] == moved["cache.hits"] == 1
        assert moved["engine.executed"] == moved["cache.misses"] == 0
        assert [r["event"] for r in stream] == \
            ["STARTED", "CACHE_HIT", "COMPLETED"]

    def test_an_answered_rejection_is_the_memoized_verdict(self):
        result, moved, _, stream = _drive("memoized-lint-error", True)
        assert "invalidated handle" in result.diagnostics
        assert moved["engine.rejected"] == 1
        assert [r["event"] for r in stream] == \
            ["STARTED", "REJECTED", "COMPLETED"]


class TestAnUnanswerableAttemptLeavesNothing:
    @pytest.mark.parametrize("case", ["never-seen", "evicted", "no-verdict",
                                      "disk-only", "no-cache"])
    def test_no_counter_event_or_span(self, case, tmp_path):
        tracer, events = Tracer(), EventLog()
        cache = None if case == "no-cache" else CompilationCache(
            capacity=8, disk_path=str(tmp_path / "cache"))
        job = CompileJob(OTHER if case == "never-seen" else PAYLOAD, UNROLL,
                         entry_point="x" if case == "no-verdict" else None)
        with CompileEngine(workers=0, cache=cache, tracer=tracer,
                           events=events) as engine:
            assert engine.run_job(CompileJob(PAYLOAD, UNROLL)).ok
            if case in ("evicted", "disk-only"):
                # The memory tier forgets; with ``disk-only`` the file
                # stays — a disk hit is the queued route's to find.
                cache.clear(disk=case == "evicted")
            before = (engine.stats.as_dict(), engine.metrics.snapshot(),
                      cache and cache.stats.as_dict(),
                      events.records(), tracer.spans())
            assert engine.answer(job) is None
            assert before == (
                engine.stats.as_dict(), engine.metrics.snapshot(),
                cache and cache.stats.as_dict(),
                events.records(), tracer.spans())
            if case == "disk-only":
                found = engine.run_job(job)
                assert found.cache_hit and cache.stats.disk_hits == 1

    def test_the_job_then_queues_exactly_as_today(self):
        # Never seen: admission cannot answer, the queued route parses,
        # compiles and counts the miss once.
        result, moved, spans, stream = _drive("never-seen-text", True)
        assert result.ok and not result.cache_hit
        assert moved["cache.misses"] == 1 and moved["engine.executed"] == 1
        assert [r["event"] for r in stream] == [
            "ADMITTED", "DEQUEUED", "STARTED", "DISPATCHED", "COMPLETED"]
        assert [s.name for s in spans].count("engine.job") == 1


class TestThroughTheDaemon:
    def test_a_hit_never_queues_and_streams_its_events(self, tmp_path):
        async def go():
            engine = CompileEngine(workers=0,
                                   cache=CompilationCache(capacity=8))
            sock = str(tmp_path / "serve.sock")
            try:
                async with CompileServer(engine, socket_path=sock) as server:
                    client = await AsyncServiceClient.connect(sock)
                    first = await client.submit(PAYLOAD, UNROLL)
                    seen = []
                    again = await client.submit(
                        PAYLOAD, UNROLL, priority="interactive",
                        on_event=lambda frame: seen.append(frame["event"]))
                    quiet = await client.submit(PAYLOAD, UNROLL)
                    stats = await client.stats()
                    await client.close()
                    return first, again, quiet, seen, stats, server.stats
            finally:
                engine.shutdown()

        first, again, quiet, seen, stats, server = asyncio.run(go())
        assert not first.cache_hit and again.cache_hit and quiet.cache_hit
        assert again.output == quiet.output == first.output
        # The stream of an answered job: no queue events, nothing lost.
        assert seen == ["STARTED", "CACHE_HIT", "COMPLETED"]
        assert server.submitted == server.completed == 3
        assert server.by_priority == {"batch": 2, "interactive": 1}
        assert server.streamed == 1
        counters = stats["metrics"]["counters"]
        assert counters["engine.submitted"] == 3
        assert counters["engine.cache_hits"] == 2
        histograms = stats["metrics"]["histograms"]
        # Only the first job queued (one sample per queue edge).
        assert histograms["service.queue_depth"]["count"] == 2
        assert histograms["service.job_seconds"]["count"] == 3

    def test_drain_and_stop_racing_an_answered_job(self, tmp_path):
        # A submit and a stopping drain written back to back: the hit
        # is answered (never refused, never dropped), then the daemon
        # drains and stops — nothing hangs.
        async def go():
            engine = CompileEngine(workers=0,
                                   cache=CompilationCache(capacity=8))
            sock = str(tmp_path / "serve.sock")
            try:
                server = CompileServer(engine, socket_path=sock)
                await server.start()
                warm = await AsyncServiceClient.connect(sock)
                assert (await warm.submit(PAYLOAD, UNROLL)).ok
                await warm.close()
                reader, writer = await asyncio.open_unix_connection(sock)
                for request in (
                        {"op": "submit", "id": "s", "payload": PAYLOAD,
                         "script": UNROLL},
                        {"op": "drain", "id": "d", "stop": True}):
                    writer.write((json.dumps(request) + "\n").encode())
                await writer.drain()
                frames = [await read_frame_async(reader)
                          for _ in range(2)]
                await asyncio.wait_for(server.serve_forever(), timeout=10.0)
                writer.close()
                return frames, engine.stats.completed
            finally:
                engine.shutdown()

        frames, completed = asyncio.run(
            asyncio.wait_for(go(), timeout=30.0))
        by_id = {frame["id"]: frame for frame in frames}
        assert by_id["s"]["type"] == "result" and by_id["s"]["cache_hit"]
        assert by_id["d"] == {"type": "drained", "id": "d",
                              "completed": 2, "stopping": True}
        assert completed == 2
