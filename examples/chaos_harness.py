#!/usr/bin/env python
"""Fault injection and resilience mechanisms on the compile service.

The service's recovery machinery (``repro.service.resilience``) is
driven here by a deterministic fault schedule
(``repro.testing.faults.FaultPlan``) instead of waiting for real
infrastructure to die:

1. **retry with backoff** — an injected worker crash is retried and
   the job still produces the fault-free output, byte-identical;
2. **poison-job quarantine** — content that keeps killing workers
   trips a circuit breaker and reports ``POISONED`` instead of
   replacing workers forever;
3. **disk-cache degradation** — injected ENOSPC demotes the cache to
   memory-only with a counted warning; no job ever fails over it;
4. the **chaos driver** — one seeded case of the harness CI runs 100
   of on every push, through the direct frontier and through a
   ``repro-serve`` daemon.

Run:  python examples/chaos_harness.py

The full chaos fuzzer is a CLI::

    python -m repro.testing.faults --seed 0 --cases 50
    python -m repro.testing.faults --case-seed 12345   # replay one case
"""

import tempfile
import textwrap
import warnings

from repro.service import (
    CompilationCache,
    CompileEngine,
    CompileJob,
    JobStatus,
    RetryPolicy,
)
from repro.service.cli import service_report
from repro.testing.faults import FaultPlan, FaultSite, run_chaos_case

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

SCHEDULE = textwrap.dedent("""
    "transform.sequence"() ({
    ^bb0(%root: !transform.any_op):
      %loops = "transform.match_op"(%root) {names = ["scf.for"], position = "all"} : (!transform.any_op) -> !transform.any_op
      "transform.loop.unroll"(%loops) {factor = 2 : i64} : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) : () -> ()
""").strip()


def _job(**kwargs):
    return CompileJob(payload_text=PAYLOAD, script_text=SCHEDULE, **kwargs)


def main():
    # -- 1. crash -> retry -> byte-identical recovery -------------------
    # worker_crash at rate 1.0 but budgeted to a single fire: the first
    # pooled execution dies, the retry succeeds.
    plan = FaultPlan(seed=7, rates={FaultSite.WORKER_CRASH: 1.0},
                     max_fires=1)
    with CompileEngine(workers=1, faults=plan) as engine:
        survivor = engine.run_job(_job(job_id="survivor"))
        reference = engine.run_job(_job(job_id="reference"))
    recovery_metrics = engine.metrics_snapshot()
    assert survivor.status is JobStatus.SUCCESS
    assert survivor.output == reference.output
    print(f"crash recovery: {survivor.attempts} attempts, "
          f"{engine.stats.retries} retry, output byte-identical")

    # -- 2. a poison job trips the circuit breaker ----------------------
    # Unbudgeted crashes: every execution of this content dies. With
    # quarantine_after=2 the second failure quarantines the content;
    # the next submission never reaches a worker.
    poison_plan = FaultPlan(seed=7,
                            rates={FaultSite.WORKER_CRASH: 1.0})
    with CompileEngine(workers=1, faults=poison_plan,
                       retry_policy=RetryPolicy(max_attempts=1),
                       quarantine_after=2) as engine:
        first = engine.run_job(_job(job_id="poison-1"))
        second = engine.run_job(_job(job_id="poison-2"))
        third = engine.run_job(_job(job_id="poison-3"))
    print(f"poison job: {first.status.value} -> {second.status.value} "
          f"-> {third.status.value} (pool untouched after the breaker)")

    # -- 3. disk-cache degradation --------------------------------------
    disk_plan = FaultPlan(seed=0,
                          rates={FaultSite.DISK_WRITE_ERROR: 1.0})
    with tempfile.TemporaryDirectory() as tmp:
        cache = CompilationCache(disk_path=tmp, max_disk_errors=2,
                                 faults=disk_plan)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with CompileEngine(workers=0, cache=cache) as engine:
                for index in range(3):
                    result = engine.run_job(
                        _job(params={"n": index}, job_id=f"disk-{index}")
                    )
                    assert result.ok
        print(f"disk faults: {cache.stats.disk_errors} write errors, "
              f"degraded={cache.degraded}, all jobs still ok "
              f"({len(caught)} warning)")

    # -- 4. one chaos case, end to end ----------------------------------
    report, case_plans = run_chaos_case(12345, workers=1,
                                        job_timeout=0.5)
    print(report.render())
    for route, case_plan in case_plans.items():
        print(f"fired faults ({route}): {case_plan.injected}")

    print()
    print(service_report(recovery_metrics))


if __name__ == "__main__":
    main()
