"""End-to-end observability of the compile service.

The acceptance surface of the tracing pillar: a pooled batch produces
ONE well-formed trace — engine-side spans and worker-side spans (from
other processes) reassembled with correct parent links — plus a
lifecycle-complete event log and a metrics snapshot whose counters
balance against the engine's terminal states.
"""

import asyncio
import json
import re
import textwrap
from collections import Counter
from concurrent.futures import Future

import pytest

from repro.observability import (
    EventLog,
    Tracer,
    read_events,
    validate_chrome_trace,
    validate_events,
    validate_metrics_snapshot,
)
from repro.service.cache import CompilationCache
from repro.service.engine import (
    CompileEngine,
    CompileJob,
    JobResult,
    JobStatus,
)
from repro.service.frontier import ServiceFrontier
from repro.service.resilience import RetryPolicy
from repro.testing.faults import FaultPlan, FaultSite

from ..service.test_engine import USE_AFTER_CONSUME, _hostile_script
from ..service.test_sharding import _func, _module

CRASH = _hostile_script("transform.test.service_crash")

SCHEDULE = textwrap.dedent("""
    "transform.sequence"() ({
    ^bb0(%root: !transform.any_op):
      %loops = "transform.match_op"(%root) {names = ["scf.for"], position = "all"} : (!transform.any_op) -> !transform.any_op
      "transform.loop.unroll"(%loops) {factor = 2 : i64} : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) : () -> ()
""").strip()


def _payload(index):
    trip = 8 + 2 * index  # distinct trip count -> distinct cache key
    return textwrap.dedent(f"""
        "builtin.module"() ({{
          "func.func"() ({{
            %lb = "arith.constant"() {{value = 0 : index}} : () -> index
            %ub = "arith.constant"() {{value = {trip} : index}} : () -> index
            %st = "arith.constant"() {{value = 1 : index}} : () -> index
            "scf.for"(%lb, %ub, %st) ({{
            ^bb0(%i: index):
              %c = "arith.constant"() {{value = 1 : i64}} : () -> i64
              "scf.yield"() : () -> ()
            }}) : (index, index, index) -> ()
            "func.return"() : () -> ()
          }}) {{sym_name = "f{index}", function_type = () -> ()}} : () -> ()
        }}) : () -> ()
    """).strip()


def _jobs(distinct=6, repeats=2):
    payloads = [_payload(i) for i in range(distinct)]
    return [
        CompileJob(payload_text=payloads[i], script_text=SCHEDULE,
                   job_id=f"job-{rep}-{i}")
        for rep in range(repeats)
        for i in range(distinct)
    ]


def _run_pooled_batch(jobs, workers=4):
    tracer = Tracer()
    events = EventLog()
    engine = CompileEngine(workers=workers,
                           cache=CompilationCache(capacity=64),
                           tracer=tracer, events=events)

    async def go():
        async with ServiceFrontier(engine, max_queue=4) as frontier:
            return await frontier.run(jobs)

    try:
        results = asyncio.run(go())
    finally:
        engine.shutdown()
    return results, tracer, events, engine


class TestPooledTraceReassembly:
    """The 4-worker concurrency acceptance test."""

    def setup_method(self):
        self.jobs = _jobs()
        (self.results, self.tracer, self.events,
         self.engine) = _run_pooled_batch(self.jobs)
        assert all(r.ok for r in self.results)

    def test_one_well_formed_trace(self):
        trace = self.tracer.export_chrome()
        assert validate_chrome_trace(trace) == []
        # One trace id across spans recorded in 5 different processes.
        assert len({s.trace_id for s in self.tracer.spans()}) == 1

    def test_no_orphan_parents_and_monotonic_spans(self):
        spans = self.tracer.spans()
        ids = {s.span_id for s in spans}
        for span in spans:
            assert span.parent_id is None or span.parent_id in ids, \
                f"{span.name}: orphan parent {span.parent_id}"
            assert span.end is not None and span.end >= span.start, \
                f"{span.name}: end precedes start"

    def test_every_job_has_admission_and_cache_lookup_spans(self):
        by_name = {}
        for span in self.tracer.spans():
            by_name.setdefault(span.name, []).append(span)
        jobs = len(self.jobs)
        assert len(by_name["queue.wait"]) == jobs
        assert len(by_name["engine.job"]) == jobs
        assert len(by_name["cache.lookup"]) == jobs
        for job in self.jobs:
            assert f"job:{job.job_id}" in by_name

    def test_misses_carry_worker_side_transform_spans(self):
        spans = self.tracer.spans()
        by_id = {s.span_id: s for s in spans}
        workers = [s for s in spans if s.name == "worker.compile"]
        executed = self.engine.stats.executed
        assert len(workers) == executed
        # Worker spans were recorded in worker processes...
        engine_pid = next(s.pid for s in spans if s.name == "engine.job")
        assert any(s.pid != engine_pid for s in workers)
        # ...and are parented under this-side dispatch spans.
        for worker in workers:
            assert by_id[worker.parent_id].name == "engine.dispatch"
        # Each executed job interpreted the schedule: one span per
        # top-level transform op, recorded inside the worker.
        interprets = [s for s in spans if s.name == "worker.interpret"]
        assert len(interprets) == executed
        top_level = [s for s in spans if s.name == "transform.sequence"]
        assert len(top_level) == executed

    def test_registry_counters_balance_engine_terminal_states(self):
        _assert_accounting_agrees(self.engine, self.events, self.results)

    def test_event_log_lifecycle_per_job(self):
        records = self.events.records()
        assert validate_events(records) == []
        for job in self.jobs:
            stream = [r["event"] for r in self.events.for_job(job.job_id)]
            assert stream[0] == "ADMITTED"
            assert stream[-1] == "COMPLETED"
            assert "STARTED" in stream
            assert "DEQUEUED" in stream
        completed = [r for r in records if r["event"] == "COMPLETED"]
        assert len(completed) == len(self.jobs)
        # Terminal events agree with the results.
        statuses = {r["job_id"]: r["status"] for r in completed}
        for result in self.results:
            assert statuses[result.job_id] == result.status.value


class TestSpanIdsAcrossForkedWorkers:
    def test_two_forked_workers_repeat_no_span_id(self):
        # A forked worker inherits its parent's id counter: only the
        # prefix drawn again in the child keeps two workers' ids apart.
        results, tracer, _events, _engine = _run_pooled_batch(
            _jobs(distinct=8, repeats=1), workers=2)
        assert all(r.ok for r in results)
        trace = tracer.export_chrome()
        assert validate_chrome_trace(trace) == []
        events = trace["traceEvents"]
        ids = [event["args"]["span_id"] for event in events]
        assert len(ids) == len(set(ids))
        assert len({event["pid"] for event in events
                    if event["name"] == "worker.compile"}) == 2


#: Name prefixes that existed once per copy of a number, or were never
#: fed by the service at all.
_GONE = ("service.jobs", "service.cache_", "resilience.", "worklist.",
         "rewrite.", "passes.", "invalidation.", "interpreter.")


def _assert_accounting_agrees(engine, events, results):
    """The engine's stores (``EngineStats``, the job-seconds
    histogram), the event log and the folded metrics snapshot describe
    the same run."""
    snap = engine.metrics_snapshot()
    assert validate_metrics_snapshot(snap) == []
    counters, gauges = snap["counters"], snap["gauges"]
    stats = engine.stats
    records = events.records()
    assert validate_events(records) == []
    emitted = Counter(r["event"] for r in records)

    # Terminal states: results == COMPLETED events == by_status ==
    # the distribution's sample count.
    assert stats.submitted == stats.completed == len(results)
    terminal = Counter(r.status.value for r in results)
    assert Counter(r["status"] for r in records
                   if r["event"] == "COMPLETED") == terminal
    assert stats.by_status == terminal
    assert sum(terminal.values()) == stats.completed == \
        snap["histograms"]["service.job_seconds"]["count"]

    # Every transition: the EngineStats field equals its event count.
    assert emitted["STARTED"] == stats.submitted
    assert emitted["REJECTED"] == stats.rejected
    assert emitted["COALESCED"] == stats.coalesced
    assert emitted["ASSEMBLED"] == stats.function_tier_hits
    assert emitted["RETRIED"] == stats.retries
    assert emitted["TIMEOUT"] == stats.timeouts
    assert emitted["CRASHED"] == stats.crashes
    assert emitted["DEGRADED"] == stats.pool_degradations
    assert emitted["CACHE_HIT"] + sum(
        1 for r in records
        if r["event"] == "ASSEMBLED" and r["cache_hit"]
    ) == stats.cache_hits
    assert emitted["POISONED"] + sum(
        1 for r in records
        if r["event"] == "COALESCED" and r["leader_status"] == "poisoned"
    ) == stats.quarantined
    assert emitted["DISPATCHED"] == \
        stats.executed + stats.timeouts + stats.crashes
    assert stats.backoff_seconds == pytest.approx(sum(
        r["backoff"] for r in records if r["event"] == "RETRIED"))

    # The fold: each store's number appears once, under its owner's
    # name (ints as counters, floats as gauges) ...
    folded = stats.as_dict()
    assert {
        name.rpartition(".")[2]: value
        for name, value in counters.items()
        if name.startswith("engine.by_status.")
    } == folded.pop("by_status")
    for name, value in folded.items():
        kind = gauges if isinstance(value, float) else counters
        assert kind[f"engine.{name}"] == value, name
    # ... and under no other: the duplicate and never-fed names are
    # gone, and a cacheless engine reports no cache traffic.
    names = [*counters, *gauges, *snap["histograms"]]
    assert [name for name in names if name.startswith(_GONE)] == []
    if engine.cache is not None:
        assert counters["cache.hits"] == engine.cache.stats.hits
        assert counters["cache.misses"] == engine.cache.stats.misses
        assert gauges["cache.hit_rate"] == engine.cache.stats.hit_rate
    else:
        assert [name for name in names if name.startswith("cache.")] == []


def _planted_leader(status):
    """A follower of an already-resolved in-flight leader: learn the
    job's key from a first run, then plant the leader's future."""
    def route(engine, job):
        first = engine.run_job(job())
        flight = Future()
        flight.set_result(JobResult("leader", status, key=first.key))
        engine._inflight[first.key] = flight
        return [first, engine.run_job(job())]
    return route


def _double_check_hit(engine, job):
    # The first lookup misses, the leader's re-lookup after winning
    # the in-flight slot finds what a previous leader just stored.
    results = [engine.run_job(job())]
    lookup = engine.cache.get
    engine.cache.get = lambda key, count_miss=True: (
        None if count_miss else lookup(key, count_miss=False))
    return results + [engine.run_job(job())]


def _cancelled(engine, job):
    engine.shutdown()
    return [engine.run_job(job())]


#: route -> (engine options, script, driver(engine, job) -> results,
#: the last job's event sequence, the nonzero EngineStats counts).
ROUTES = {
    "success": (
        dict(workers=0), SCHEDULE,
        lambda engine, job: [engine.run_job(job())],
        ["STARTED", "DISPATCHED", "COMPLETED"],
        dict(submitted=1, completed=1, executed=1),
    ),
    "cache-hit": (
        dict(workers=0, cache=True), SCHEDULE,
        lambda engine, job: [engine.run_job(job()), engine.run_job(job())],
        ["STARTED", "CACHE_HIT", "COMPLETED"],
        dict(submitted=2, completed=2, executed=1, cache_hits=1),
    ),
    "leader-double-check-hit": (
        dict(workers=0, cache=True), SCHEDULE, _double_check_hit,
        ["STARTED", "CACHE_HIT", "COMPLETED"],
        dict(submitted=2, completed=2, executed=1, cache_hits=1),
    ),
    "coalesced-follower": (
        dict(workers=0), SCHEDULE, _planted_leader(JobStatus.SUCCESS),
        ["STARTED", "COALESCED", "COMPLETED"],
        dict(submitted=2, completed=2, executed=1, coalesced=1),
    ),
    "coalesced-follower-of-poisoned-leader": (
        dict(workers=0), SCHEDULE, _planted_leader(JobStatus.POISONED),
        ["STARTED", "COALESCED", "COMPLETED"],
        dict(submitted=2, completed=2, executed=1, coalesced=1,
             quarantined=1),
    ),
    "rejected": (
        dict(workers=0), USE_AFTER_CONSUME,
        lambda engine, job: [engine.run_job(job())],
        ["STARTED", "REJECTED", "COMPLETED"],
        dict(submitted=1, completed=1, rejected=1),
    ),
    "timeout-retry-success": (
        dict(workers=1, job_timeout=0.5,
             faults=FaultPlan(seed=3, max_fires=1,
                              rates={FaultSite.WORKER_HANG: 1.0}),
             retry_policy=RetryPolicy(
                 max_attempts=2, base_backoff=0.01, retry_timeouts=True)),
        SCHEDULE, lambda engine, job: [engine.run_job(job())],
        ["STARTED", "DISPATCHED", "TIMEOUT", "RETRIED", "DISPATCHED",
         "COMPLETED"],
        dict(submitted=1, completed=1, executed=1, timeouts=1,
             retries=1, worker_restarts=1),
    ),
    "crashed-poisoned": (
        dict(workers=1, preflight=False,
             retry_policy=RetryPolicy(max_attempts=1), quarantine_after=1),
        CRASH, lambda engine, job: [engine.run_job(job())],
        ["STARTED", "DISPATCHED", "CRASHED", "POISONED", "COMPLETED"],
        dict(submitted=1, completed=1, crashes=1, worker_restarts=1,
             quarantined=1),
    ),
    "degraded-in-process": (
        dict(workers=1, preflight=False,
             retry_policy=RetryPolicy(max_attempts=1), quarantine_after=0,
             crash_loop_limit=1),
        CRASH,
        lambda engine, job: [
            engine.run_job(job()),
            engine.run_job(job(script_text=SCHEDULE)),
        ],
        ["STARTED", "DISPATCHED", "COMPLETED"],
        dict(submitted=2, completed=2, executed=1, crashes=1,
             worker_restarts=1, pool_degradations=1),
    ),
    "cancelled": (
        dict(workers=0), SCHEDULE, _cancelled,
        ["STARTED", "COMPLETED"],
        dict(submitted=1, completed=1, cancelled=1),
    ),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_accounting_agrees_on_every_terminal_route(route):
    """Same checker as the pooled-batch balance test above, driven
    through each way a job can end."""
    options, script, drive, sequence, expected = ROUTES[route]
    options = dict(options)
    if options.pop("cache", False):
        options["cache"] = CompilationCache(capacity=8)
    events = EventLog()
    ids = iter(f"{route}-{n}" for n in range(8))

    def job(script_text=script):
        return CompileJob(payload_text=_payload(0),
                          script_text=script_text, job_id=next(ids))

    with CompileEngine(events=events, **options) as engine:
        results = drive(engine, job)
    _assert_accounting_agrees(engine, events, results)
    # (by_status and backoff_seconds were checked against the results
    # and the RETRIED events above.)
    counts = {name: value for name, value in engine.stats.as_dict().items()
              if isinstance(value, int)}
    assert counts == dict.fromkeys(counts, 0) | expected
    if "retries" in expected:
        assert engine.stats.backoff_seconds > 0
    last = results[-1].job_id
    assert [r["event"] for r in events.for_job(last)] == sequence


class TestDisabledModeUnchanged:
    def test_no_tracer_no_spans_key_consequences(self):
        # tracer=None / events=None must not change results.
        jobs = _jobs(distinct=2, repeats=1)
        with CompileEngine(workers=0) as engine:
            plain = [engine.run_job(job) for job in jobs]
        results, tracer, _, _ = _run_pooled_batch(jobs, workers=2)
        assert [r.output for r in results] == [r.output for r in plain]
        assert tracer.spans()  # and the traced run did record spans


class TestBatchCli:
    def test_trace_events_json_artifacts(self, tmp_path):
        from repro.service.cli import main

        payload_dir = tmp_path / "payloads"
        payload_dir.mkdir()
        for i in range(4):
            (payload_dir / f"p{i}.mlir").write_text(_payload(i))
        schedule = tmp_path / "unroll.mlir"
        schedule.write_text(SCHEDULE)
        trace_out = tmp_path / "trace.json"
        events_out = tmp_path / "events.jsonl"
        json_out = tmp_path / "metrics.json"

        code = main([
            str(payload_dir), "--schedule", str(schedule),
            "--jobs", "4",
            "--trace-out", str(trace_out),
            "--events-out", str(events_out),
            "--json", str(json_out),
        ])
        assert code == 0

        trace = json.loads(trace_out.read_text())
        assert validate_chrome_trace(trace) == []
        names = [e["name"] for e in trace["traceEvents"]]
        assert names.count("queue.wait") == 4
        assert names.count("worker.compile") == 4
        assert names.count("transform.loop.unroll") == 4

        records = read_events(str(events_out))
        assert validate_events(records) == []
        assert sum(1 for r in records if r["event"] == "COMPLETED") == 4

        metrics = json.loads(json_out.read_text())
        snap = metrics["metrics"]
        assert validate_metrics_snapshot(snap) == []
        # The one stats surface: no engine/cache dicts beside it.
        assert snap["counters"]["engine.completed"] == 4
        assert "cache.hits" in snap["counters"]
        assert not {"engine", "cache", "profiler"} & set(metrics)


_MS = r"\d+\.\d{3} ms"
_JOBS = rf"    jobs: 2  mean wall: {_MS}  max wall: {_MS}"
_DEPTH = r"    queue depth: mean \d+\.\d\d  max \d+  \(samples: 4\)"

#: case -> (extra flags, exit code, the report's lines after the
#: header, each a regular expression). Every case runs one
#: two-function payload against a statically rejected and a clean
#: schedule.
TIMING_CASES = {
    # A rejected job never reaches the cache, and the function tier's
    # lookups are not jobs: one whole-job lookup, one miss.
    "cache": ([], 1, [
        "  Compile service", _JOBS,
        "    by status: rejected: 1  success: 1",
        r"    cache hit rate: 0\.0%  \(hits: 0  misses: 1\)  "
        "worker restarts: 0",
        _DEPTH,
    ]),
    # No cache, no lookups: nothing to report as a miss.
    "no-cache": (["--no-cache"], 1, [
        "  Compile service", _JOBS,
        "    by status: rejected: 1  success: 1",
        "    worker restarts: 0",
        _DEPTH,
    ]),
    # Every pooled attempt crashes: one retry, then the breaker.
    "resilience": (
        ["--no-cache", "--jobs", "1", "--fault", "worker_crash=1.0",
         "--quarantine-after", "2"], 1, [
            "  Compile service", _JOBS,
            "    by status: poisoned: 1  rejected: 1",
            "    worker restarts: 2",
            _DEPTH, "",
            "  Resilience",
            rf"    retries: 1  \(backoff: {_MS}\)  quarantined: 1  "
            "pool degradations: 0",
        ]),
}


@pytest.mark.parametrize("case", sorted(TIMING_CASES))
def test_batch_timing_report_line_shapes(case, tmp_path, capsys):
    from repro.service.cli import main

    flags, expected_code, shapes = TIMING_CASES[case]
    (tmp_path / "p.mlir").write_text(
        _module(_func("f0", 8), _func("f1", 4)))
    schedules = tmp_path / "schedules"
    schedules.mkdir()
    (schedules / "ok.mlir").write_text(SCHEDULE)
    (schedules / "bad.mlir").write_text(USE_AFTER_CONSUME)
    json_out = tmp_path / "metrics.json"

    code = main([str(tmp_path / "p.mlir"), "--schedule", str(schedules),
                 "--jobs", "0", "--timing", "--json", str(json_out),
                 *flags])
    assert code == expected_code
    lines = capsys.readouterr().err.splitlines()
    bar = "===" + "-" * 70 + "==="
    assert lines[:3] == [
        bar, "  ... Transform execution timing report ...", bar]
    # (The jobs' diagnostics follow the report on stderr.)
    report = lines[3:3 + len(shapes)]
    for line, shape in zip(report, shapes, strict=True):
        assert re.fullmatch(shape, line), (line, shape)

    metrics = json.loads(json_out.read_text())["metrics"]
    names = [name for kind in ("counters", "gauges", "histograms")
             for name in metrics[kind]]
    assert not [name for name in names if name.endswith("cache_misses")]
    if "--no-cache" in flags:
        assert not [name for name in names if name.startswith("cache.")]
    else:
        assert metrics["counters"]["cache.misses"] == 3
        assert metrics["counters"]["cache.function_misses"] == 2


class TestOptCli:
    def test_trace_out(self, tmp_path):
        from repro.tools import main

        payload = tmp_path / "p.mlir"
        payload.write_text(_payload(0))
        schedule = tmp_path / "s.mlir"
        schedule.write_text(SCHEDULE)
        trace_out = tmp_path / "trace.json"
        out = tmp_path / "out.mlir"

        code = main([str(payload), "--script", str(schedule),
                     "--trace-out", str(trace_out), "-o", str(out)])
        assert code == 0
        trace = json.loads(trace_out.read_text())
        assert validate_chrome_trace(trace) == []
        names = {e["name"] for e in trace["traceEvents"]}
        assert {"transform.sequence", "transform.match_op",
                "transform.loop.unroll"} <= names
