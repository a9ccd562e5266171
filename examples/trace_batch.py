#!/usr/bin/env python
"""End-to-end observability of a pooled batch (``repro.observability``).

A 4-worker batch is opaque from the outside: five processes, a cache,
retries. This example turns the instruments on and shows what each one
answers:

1. **tracing** — every job becomes a span tree (admission, queue wait,
   cache lookup, per-attempt dispatch) whose *worker-side* spans
   (parse/interpret/print, one span per transform op) are recorded in
   the worker process and reassembled here into one trace, exported as
   Chrome trace-event JSON for Perfetto / chrome://tracing;
2. **metrics** — the unified registry snapshot: counters that balance
   against the engine's terminal states, queue-depth and latency
   histograms with p50/p90/p99;
3. **the event log** — one JSONL record per job state transition,
   correlated by job id.

Run:  python examples/trace_batch.py

The same instruments hang off the CLI::

    repro-batch payloads/ --schedule schedules/ --jobs 4 \\
        --trace-out trace.json --events-out events.jsonl \\
        --json metrics.json -o out/
"""

import asyncio
import json
import textwrap

from repro.observability import (
    EventLog,
    Tracer,
    validate_chrome_trace,
    validate_events,
    validate_metrics_snapshot,
)
from repro.service import (
    CompilationCache,
    CompileEngine,
    CompileJob,
    ServiceFrontier,
)

SCHEDULE = textwrap.dedent("""
    "transform.sequence"() ({
    ^bb0(%root: !transform.any_op):
      %loops = "transform.match_op"(%root) {names = ["scf.for"], position = "all"} : (!transform.any_op) -> !transform.any_op
      "transform.loop.unroll"(%loops) {factor = 2 : i64} : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) : () -> ()
""").strip()


def payload(trip_count):
    return textwrap.dedent(f"""
        "builtin.module"() ({{
          "func.func"() ({{
            %lb = "arith.constant"() {{value = 0 : index}} : () -> index
            %ub = "arith.constant"() {{value = {trip_count} : index}} : () -> index
            %st = "arith.constant"() {{value = 1 : index}} : () -> index
            "scf.for"(%lb, %ub, %st) ({{
            ^bb0(%i: index):
              %c = "arith.constant"() {{value = 1 : i64}} : () -> i64
              "scf.yield"() : () -> ()
            }}) : (index, index, index) -> ()
            "func.return"() : () -> ()
          }}) {{sym_name = "kernel", function_type = () -> ()}} : () -> ()
        }}) : () -> ()
    """).strip()


def main():
    tracer = Tracer()
    events = EventLog("events.jsonl")
    engine = CompileEngine(
        workers=4,
        cache=CompilationCache(capacity=64),
        tracer=tracer,
        events=events,
    )

    # 8 distinct payloads + 4 repeats: the repeats answer from the
    # cache, which the trace and the event log both make visible.
    jobs = [
        CompileJob(payload_text=payload(8 + 2 * i), script_text=SCHEDULE,
                   job_id=f"job-{i}")
        for i in range(8)
    ] + [
        CompileJob(payload_text=payload(8 + 2 * i), script_text=SCHEDULE,
                   job_id=f"repeat-{i}")
        for i in range(4)
    ]

    async def run():
        async with ServiceFrontier(engine, max_queue=4) as frontier:
            return await frontier.run(jobs)

    with engine:
        results = asyncio.run(run())
    events.close()
    assert all(r.ok for r in results)

    # -- 1. one trace, five processes ----------------------------------
    spans = tracer.spans()
    pids = {s.pid for s in spans}
    worker_spans = tracer.find("worker.compile")
    print(f"trace: {len(spans)} spans from {len(pids)} processes, "
          f"{len(worker_spans)} worker-side compiles")
    slowest = max(worker_spans, key=lambda s: s.end - s.start)
    # job identity lives on the engine-side dispatch parent span
    dispatch = next(s for s in spans if s.span_id == slowest.parent_id)
    print(f"slowest compile: "
          f"{1e3 * (slowest.end - slowest.start):.1f} ms "
          f"(job {dispatch.attributes['job_id']}, pid {slowest.pid})")

    trace = tracer.export_chrome()
    assert validate_chrome_trace(trace) == []
    tracer.write_chrome("trace.json")
    print("wrote trace.json -- open it at https://ui.perfetto.dev "
          "or chrome://tracing")

    # -- 2. the metrics snapshot ---------------------------------------
    snapshot = engine.metrics_snapshot()
    assert validate_metrics_snapshot(snapshot) == []
    counters = snapshot["counters"]
    latency = snapshot["histograms"]["service.job_seconds"]
    print(f"metrics: {counters['engine.completed']:.0f} jobs, "
          f"{counters['engine.cache_hits']:.0f} cache hits, "
          f"job p50/p99 = {1e3 * latency['p50']:.1f}/"
          f"{1e3 * latency['p99']:.1f} ms")
    with open("metrics.json", "w") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
    print("wrote metrics.json")

    # -- 3. the event log ----------------------------------------------
    records = events.records()
    assert validate_events(records) == []
    one_job = events.for_job(results[0].job_id)
    print(f"events: {len(records)} records in events.jsonl; "
          f"{results[0].job_id} lifecycle: "
          + " -> ".join(r["event"] for r in one_job))
    hits = sum(1 for r in records if r["event"] == "CACHE_HIT")
    print(f"the {hits} CACHE_HIT events are the repeats "
          "(plus any single-flight winners)")


if __name__ == "__main__":
    main()
