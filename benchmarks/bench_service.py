"""Compile-service throughput: workers, cache, and warm-path behavior.

A 64-job batch (16 distinct compilations, each submitted 4 times — the
shape of an autotuning sweep re-visiting its best candidates) runs

* strictly sequentially in process (``workers=0``, no cache) — the
  baseline;
* through the pooled engine at 1 / 2 / 4 workers with a cold cache,
  where single-flight deduplication and the content-addressed cache
  collapse the duplicates to 16 executions;
* once more against the already-warm cache, which must complete
  without invoking the interpreter at all;
* once more at 4 workers with tracing + the event log live, recording
  the observability overhead relative to the tracing-disabled run;
* twice through a live ``repro-serve`` daemon on a unix socket: the
  second batch against the warm server performs zero pool spawns and
  zero executions, and sequential warm submits yield the quoted
  warm-submit p50 round-trip latency.

Emits ``BENCH_service.json`` and asserts zero executions on the warm
run, zero pool spawns and zero executions for the warm server's second
batch, and pooled output byte-identical to sequential.
``speedup_4_workers`` is reported, not asserted: it divides an uncached
64-execution run by a cached 16-execution one and scales with the
host's cores; throughput bars live in ``perfbench/``.

Run standalone (``python benchmarks/bench_service.py``) or through
pytest (``pytest benchmarks/bench_service.py -s``).
"""

import asyncio
import json
import os
import sys
import textwrap
import time

import repro.core  # noqa: F401 — registers transform ops
import repro.dialects  # noqa: F401 — registers payload ops
from repro.service import (
    CompilationCache,
    CompileEngine,
    CompileJob,
    JobStatus,
    ServiceFrontier,
)

DISTINCT = 16
REPEATS = 4

SCHEDULE = textwrap.dedent("""
    "transform.sequence"() ({
    ^bb0(%root: !transform.any_op):
      %loops = "transform.match_op"(%root) {names = ["scf.for"], position = "all"} : (!transform.any_op) -> !transform.any_op
      "transform.loop.unroll"(%loops) {factor = 16 : i64} : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) : () -> ()
""").strip()


def _payload(index):
    """Four unrollable loops; the trip count (always divisible by the
    unroll factor) makes each payload a distinct compilation — a
    distinct cache key — doing real body-duplication work."""
    funcs = []
    for f in range(4):
        trip = 64 + 16 * index
        funcs.append(textwrap.dedent(f"""
          "func.func"() ({{
            %lb = "arith.constant"() {{value = 0 : index}} : () -> index
            %ub = "arith.constant"() {{value = {trip} : index}} : () -> index
            %st = "arith.constant"() {{value = 1 : index}} : () -> index
            "scf.for"(%lb, %ub, %st) ({{
            ^bb0(%iv: index):
              %a = "arith.constant"() {{value = 1.0 : f32}} : () -> f32
              %b = "arith.constant"() {{value = 2.0 : f32}} : () -> f32
              %c = "arith.addf"(%a, %b) : (f32, f32) -> f32
              %d = "arith.mulf"(%c, %b) : (f32, f32) -> f32
              %e = "arith.addf"(%d, %a) : (f32, f32) -> f32
              "scf.yield"() : () -> ()
            }}) : (index, index, index) -> ()
            "func.return"() : () -> ()
          }}) {{sym_name = "w{index}_f{f}", function_type = () -> ()}} : () -> ()
        """).strip())
    body = "\n".join(funcs)
    return f'"builtin.module"() ({{\n{body}\n}}) : () -> ()'


def _jobs():
    """16 distinct payloads x 4 submissions, interleaved the way a
    sweep would resubmit them (not back-to-back)."""
    payloads = [_payload(i) for i in range(DISTINCT)]
    return [
        CompileJob(payload_text=payloads[i], script_text=SCHEDULE,
                   job_id=f"job-{rep}-{i}")
        for rep in range(REPEATS)
        for i in range(DISTINCT)
    ]


def _run(engine, jobs):
    """The batch through a frontier over ``engine`` (the service's one
    scheduler); results in submission order."""
    async def go():
        async with ServiceFrontier(engine) as frontier:
            return await frontier.run(jobs)

    return asyncio.run(go())


def run_benchmark():
    jobs = _jobs()
    total = len(jobs)
    report = {"batch_jobs": total, "distinct_jobs": DISTINCT,
              "runs": {}}

    # Baseline: one in-process interpreter invocation per job.
    with CompileEngine(workers=0, cache=None, preflight=False) as engine:
        start = time.perf_counter()
        baseline = [engine.run_job(job) for job in jobs]
        elapsed = time.perf_counter() - start
        assert engine.stats.executed == total
    # Clean successes only: a silenceable skip would mean the jobs do
    # no real work and the benchmark measures nothing.
    assert all(r.status is JobStatus.SUCCESS for r in baseline)
    report["runs"]["sequential"] = {
        "seconds": elapsed,
        "jobs_per_second": total / elapsed,
        "executed": total,
    }
    reference = {job.job_id: result.output
                 for job, result in zip(jobs, baseline)}

    warm_cache = None
    for workers in (1, 2, 4):
        # Whole-job and function-tier entries share one LRU: each
        # distinct job stores 1 whole-job entry + 4 per-function
        # entries (the payloads have 4 uniquely named functions), so
        # the cache must hold 5 entries per distinct job or the
        # function-tier puts evict the whole-job entries before the
        # sweep revisits them.
        cache = CompilationCache(capacity=2 * 5 * DISTINCT)
        # Pool startup is engine construction, not steady-state
        # throughput: build the engine outside the timed region.
        with CompileEngine(workers=workers, cache=cache,
                           preflight=False) as engine:
            start = time.perf_counter()
            results = _run(engine, jobs)
            elapsed = time.perf_counter() - start
            stats = engine.stats.as_dict()
        assert all(r.ok for r in results)
        for job, result in zip(jobs, results):
            assert result.output == reference[job.job_id], (
                f"pooled output diverged from sequential ({job.job_id})"
            )
        assert stats["executed"] == DISTINCT
        report["runs"][f"pool_{workers}_cold"] = {
            "seconds": elapsed,
            "jobs_per_second": total / elapsed,
            "executed": stats["executed"],
            "cache_hits": stats["cache_hits"],
            "coalesced": stats["coalesced"],
            "speedup_vs_sequential":
                report["runs"]["sequential"]["seconds"] / elapsed,
        }
        if workers == 4:
            warm_cache = cache

    # Fully warm: every job answered from the cache, interpreter idle.
    with CompileEngine(workers=4, cache=warm_cache,
                       preflight=False) as engine:
        start = time.perf_counter()
        results = _run(engine, jobs)
        elapsed = time.perf_counter() - start
        stats = engine.stats.as_dict()
    assert all(r.ok and r.cache_hit for r in results)
    assert stats["executed"] == 0, "warm run must not invoke the interpreter"
    report["runs"]["pool_4_warm"] = {
        "seconds": elapsed,
        "jobs_per_second": total / elapsed,
        "executed": 0,
        "cache_hits": stats["cache_hits"],
        "speedup_vs_sequential":
            report["runs"]["sequential"]["seconds"] / elapsed,
    }

    # Tracing overhead: the cold 4-worker run above IS the
    # tracing-disabled measurement; repeat it with a live tracer +
    # event log and record the delta.
    from repro.observability import (
        EventLog,
        Tracer,
        validate_chrome_trace,
        validate_events,
    )

    tracer = Tracer()
    events = EventLog()
    cache = CompilationCache(capacity=2 * 5 * DISTINCT)
    with CompileEngine(workers=4, cache=cache, preflight=False,
                       tracer=tracer, events=events) as engine:
        start = time.perf_counter()
        results = _run(engine, jobs)
        traced_elapsed = time.perf_counter() - start
    assert all(r.ok for r in results)
    assert not validate_chrome_trace(tracer.export_chrome())
    assert not validate_events(events.records())
    disabled = report["runs"]["pool_4_cold"]["seconds"]
    report["runs"]["pool_4_traced"] = {
        "seconds": traced_elapsed,
        "jobs_per_second": total / traced_elapsed,
        "spans": len(tracer.spans()),
        "events": len(events.records()),
    }
    report["tracing"] = {
        "disabled_seconds": disabled,
        "enabled_seconds": traced_elapsed,
        "enabled_overhead_pct":
            100.0 * (traced_elapsed - disabled) / disabled,
    }

    # Warm-server run: what repro-serve exists for. One daemon keeps
    # the pool and cache alive across batches, so while the first
    # batch through it pays the usual cold cache, the second performs
    # ZERO pool spawns and zero interpreter executions — and a
    # round-trip submit against the warm daemon is cheap enough to
    # quote as a p50 latency.
    import statistics
    import tempfile

    from repro.service import AsyncServiceClient, CompileServer

    cache = CompilationCache(capacity=2 * 5 * DISTINCT)
    engine = CompileEngine(workers=4, cache=cache, preflight=False)

    async def serve_two_batches():
        with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
            sock = os.path.join(tmp, "bench.sock")
            async with CompileServer(engine, socket_path=sock,
                                     max_queue=64,
                                     client_quota=len(jobs)):
                client = await AsyncServiceClient.connect(sock)
                try:
                    start = time.perf_counter()
                    first = await asyncio.gather(*(
                        client.submit(job.payload_text,
                                      job.script_text,
                                      job_id=f"cold-{job.job_id}")
                        for job in jobs))
                    cold_elapsed = time.perf_counter() - start
                    after_cold = {
                        "spawns": engine._pool_generation,
                        "restarts": engine.stats.worker_restarts,
                        "executed": engine.stats.executed,
                    }
                    start = time.perf_counter()
                    second = await asyncio.gather(*(
                        client.submit(job.payload_text,
                                      job.script_text,
                                      job_id=f"warm-{job.job_id}")
                        for job in jobs))
                    warm_elapsed = time.perf_counter() - start
                    # Sequential warm submits: per-request round-trip
                    # latency through socket + scheduler + cache.
                    probe = jobs[0]
                    latencies = []
                    for index in range(32):
                        t0 = time.perf_counter()
                        result = await client.submit(
                            probe.payload_text, probe.script_text,
                            job_id=f"probe-{index}")
                        latencies.append(time.perf_counter() - t0)
                        assert result.ok and result.cache_hit
                    return (first, cold_elapsed, after_cold,
                            second, warm_elapsed, latencies)
                finally:
                    await client.close()

    try:
        (first, cold_elapsed, after_cold, second, warm_elapsed,
         latencies) = asyncio.run(serve_two_batches())
        spawns_delta = engine._pool_generation - after_cold["spawns"]
        restarts_delta = (engine.stats.worker_restarts
                          - after_cold["restarts"])
        executed_delta = engine.stats.executed - after_cold["executed"]
    finally:
        engine.shutdown()
    assert all(r.ok for r in first)
    assert all(r.ok and r.cache_hit for r in second)
    # The acceptance bar: the second batch against the live daemon
    # performs zero pool spawns (no new pool generation, no worker
    # restarts) and zero interpreter executions.
    assert spawns_delta == 0, "warm batch must not spawn a pool"
    assert restarts_delta == 0, "warm batch must not restart workers"
    assert executed_delta == 0, "warm batch must be answered warm"
    latencies.sort()
    report["runs"]["server_cold"] = {
        "seconds": cold_elapsed,
        "jobs_per_second": total / cold_elapsed,
        "pool_spawns": after_cold["spawns"],
        "executed": after_cold["executed"],
    }
    report["runs"]["server_warm"] = {
        "seconds": warm_elapsed,
        "jobs_per_second": total / warm_elapsed,
        "pool_spawns": 0,
        "executed": 0,
        "speedup_vs_sequential":
            report["runs"]["sequential"]["seconds"] / warm_elapsed,
    }
    report["warm_server"] = {
        "second_batch_pool_spawns": spawns_delta,
        "second_batch_executed": executed_delta,
        "warm_submit_p50_ms":
            1000.0 * statistics.median(latencies),
        "warm_submit_p90_ms":
            1000.0 * latencies[int(0.9 * (len(latencies) - 1))],
        "probes": len(latencies),
    }

    report["speedup_4_workers"] = \
        report["runs"]["pool_4_cold"]["speedup_vs_sequential"]
    report["output_byte_identical"] = True
    return report


def test_service_throughput():
    report = run_benchmark()
    print(json.dumps(report, indent=2))
    assert report["runs"]["pool_4_warm"]["executed"] == 0
    assert report["warm_server"]["second_batch_pool_spawns"] == 0
    assert report["warm_server"]["second_batch_executed"] == 0


def main():
    report = run_benchmark()
    out = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCH_service.json")
    with open(out, "w") as handle:
        json.dump(report, handle, indent=2)
    print(json.dumps(report, indent=2))
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
