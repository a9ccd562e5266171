#!/usr/bin/env python
"""Batch compilation through the compile service (``repro.service``).

A schedule library applied to a payload corpus is the paper's
autotuning loop at production scale: many (payload, schedule, params)
jobs, most of them near-duplicates. This example walks the service's
layers on such a sweep:

1. the **engine** — process-pool execution with static preflight,
   where a statically broken schedule is rejected before a worker is
   ever occupied;
2. the **content-addressed cache** — resubmitting a job answers from
   the cache without invoking the interpreter;
3. **parameter bindings** — one schedule text sweeps a tuning knob,
   each binding a distinct cache entry;
4. the **asyncio frontier** — the service's one scheduler: every batch
   goes through it, and its bounded queue makes producers wait
   (backpressure) instead of buffering unboundedly.

Run:  python examples/batch_compile.py

The same sweep is available from a shell via the ``repro-batch`` CLI::

    repro-batch payloads/ --schedule schedules/ --jobs 4 \\
        --cache-dir .repro-cache --timing --json metrics.json -o out/
"""

import asyncio
import textwrap

from repro.service import (
    CompilationCache,
    CompileEngine,
    CompileJob,
    ServiceFrontier,
)
from repro.service.cli import service_report

PAYLOAD = textwrap.dedent("""
    "builtin.module"() ({
      "func.func"() ({
        %lb = "arith.constant"() {value = 0 : index} : () -> index
        %ub = "arith.constant"() {value = 64 : index} : () -> index
        %st = "arith.constant"() {value = 1 : index} : () -> index
        "scf.for"(%lb, %ub, %st) ({
        ^bb0(%i: index):
          %c = "arith.constant"() {value = 1 : i64} : () -> i64
          "scf.yield"() : () -> ()
        }) : (index, index, index) -> ()
        "func.return"() : () -> ()
      }) {sym_name = "kernel", function_type = () -> ()} : () -> ()
    }) : () -> ()
""").strip()

#: The unroll factor is a *bound parameter*: the schedule text stays
#: fixed while jobs sweep the knob via ``params={"factor": ...}``.
SCHEDULE = textwrap.dedent("""
    "transform.sequence"() ({
    ^bb0(%root: !transform.any_op):
      %factor = "transform.param.constant"() {binding = "factor", value = 2 : i64} : () -> !transform.param<i64>
      %loops = "transform.match_op"(%root) {names = ["scf.for"], position = "all"} : (!transform.any_op) -> !transform.any_op
      "transform.loop.unroll"(%loops, %factor) : (!transform.any_op, !transform.param<i64>) -> ()
      "transform.yield"() : () -> ()
    }) : () -> ()
""").strip()

#: Statically broken: %loops is reused after loop.unroll consumed it.
#: Preflight (the repro-lint dataflow suite) rejects it for free.
BROKEN = textwrap.dedent("""
    "transform.sequence"() ({
    ^bb0(%root: !transform.any_op):
      %loops = "transform.match_op"(%root) {names = ["scf.for"], position = "all"} : (!transform.any_op) -> !transform.any_op
      "transform.loop.unroll"(%loops) {factor = 2 : i64} : (!transform.any_op) -> ()
      "transform.annotate"(%loops) {attr_name = "late", value = 1 : i64} : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) : () -> ()
""").strip()


def run(engine, jobs, max_queue=64):
    """The jobs through a frontier over ``engine``; results come back
    in submission order."""
    async def go():
        async with ServiceFrontier(engine, max_queue=max_queue) as frontier:
            return await frontier.run(jobs)

    return asyncio.run(go())


def main():
    cache = CompilationCache(capacity=64)
    engine = CompileEngine(workers=2, cache=cache)

    with engine:
        # -- 1. preflight rejection ------------------------------------
        bad = engine.run_job(
            CompileJob(payload_text=PAYLOAD, script_text=BROKEN)
        )
        print(f"broken schedule -> {bad.status.value} "
              "(never reached a worker)")

        # -- 2 + 3. a parameter sweep over one schedule text -----------
        sweep = [
            CompileJob(payload_text=PAYLOAD, script_text=SCHEDULE,
                       params={"factor": factor},
                       job_id=f"factor-{factor}")
            for factor in (2, 4, 8, 16)
        ]
        for result in run(engine, sweep):
            body_copies = (result.output or "").count("1 : i64")
            print(f"{result.job_id}: {result.status.value}, "
                  f"body duplicated x{body_copies}")

        # Resubmitting the sweep answers from the cache: no worker runs.
        executed_before = engine.stats.executed
        rerun = run(engine, sweep)
        assert all(r.cache_hit for r in rerun)
        assert engine.stats.executed == executed_before
        print(f"warm resubmission: {len(rerun)} jobs, all cache hits "
              f"(hit rate {cache.stats.hit_rate:.0%})")

        # -- 4. the asyncio frontier with backpressure ------------------
        # max_queue=2: at most two jobs wait for a dispatch slot;
        # further submit() calls wait their turn.
        results = run(engine, [
            CompileJob(payload_text=PAYLOAD, script_text=SCHEDULE,
                       params={"factor": factor}, job_id=f"async-{factor}")
            for factor in (2, 4, 8, 16, 32)
        ], max_queue=2)
        fresh = sum(1 for r in results if not r.cache_hit)
        print(f"frontier run: {len(results)} jobs, {fresh} fresh "
              f"(only factor-32 was new)")

    print()
    print(service_report(engine.metrics_snapshot()))


if __name__ == "__main__":
    main()
