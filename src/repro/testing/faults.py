"""Deterministic fault injection and the chaos-fuzz driver.

The resilience layer (:mod:`repro.service.resilience`) is only
trustworthy if its failure paths run on every CI pass, not just when a
worker happens to die. This module provides:

* :class:`FaultPlan` — a seeded fault schedule threaded through the
  engine, worker, cache and frontier via explicit injection points
  (worker crash, worker hang, pool break, disk-write error, disk-read
  corruption, queue stall). Decisions are a pure function of
  ``(seed, site, scope key, occurrence index)`` — SHA-256 based, never
  Python's salted ``hash()`` — so a schedule replays identically
  across runs and processes regardless of thread interleaving;
* the chaos-fuzz driver (``python -m repro.testing.faults``) — every
  case builds a batch of fuzzed-but-well-formed jobs, runs it
  fault-free for a reference, then under a randomized fault schedule
  through each of the two real routes — the frontier/engine/pool stack
  directly, and the same stack behind a ``repro-serve`` daemon on a
  temporary socket — and asserts the resilience invariants on each:

  1. **terminal status** — every submitted job comes back with a
     terminal :class:`~repro.service.engine.JobStatus`;
  2. **no deadlock** — the batch completes inside a watchdog deadline;
  3. **recovery byte-identity** — any job that ends OK under faults
     produces output byte-identical to the fault-free run;
  4. **accounting balance** — the engine's counters reconcile with
     the observed results (submitted == completed, status histograms
     match, every charged crash or timeout is retried or ends the job
     it was charged to, every injected fault is counted).

A CI failure prints the case seed and writes the fired fault schedule
(``--schedule-out``) so the exact run is replayable locally with
``python -m repro.testing.faults --case-seed K``.
"""

from __future__ import annotations

import enum
import hashlib
import json
import random
import struct
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple


class FaultSite(str, enum.Enum):
    """The explicit injection points wired into the service stack."""

    #: The worker process calls ``os._exit`` mid-job (engine sees
    #: ``BrokenProcessPool`` — the crash/retry/quarantine path).
    WORKER_CRASH = "worker_crash"
    #: The worker sleeps past any deadline (engine times the job out,
    #: then kills and replaces that one worker).
    WORKER_HANG = "worker_hang"
    #: Every worker process of the pool is killed right after
    #: dispatch, and the pool is left open — an externally induced
    #: collapse (OOM killer, cgroup kill). Each job finds its own
    #: worker dead: mid-call it is a crash, at checkout a free
    #: replacement.
    POOL_BREAK = "pool_break"
    #: The disk-cache write raises ``OSError`` (ENOSPC) mid-put.
    DISK_WRITE_ERROR = "disk_write_error"
    #: The disk-cache read returns corrupted bytes.
    DISK_READ_CORRUPT = "disk_read_corrupt"
    #: A job stalls briefly in its frontier dispatch slot before it runs.
    QUEUE_STALL = "queue_stall"


def _decision(seed: int, site: str, key: str, occurrence: int) -> float:
    hasher = hashlib.sha256()
    for item in (seed, site, key, occurrence):
        data = str(item).encode()
        hasher.update(struct.pack(">Q", len(data)))
        hasher.update(data)
    return int.from_bytes(hasher.digest()[:8], "big") / 2**64


class FaultPlan:
    """A seeded, deterministic schedule of faults.

    ``rates`` maps a :class:`FaultSite` (or its string value) to the
    probability that any given decision at that site fires. Each
    decision is keyed on ``(site, scope key, occurrence index)`` — the
    occurrence index counts how many times that (site, key) pair has
    been consulted, so "crash the first execution of job X but not its
    retry" is expressible and replayable. ``max_fires`` optionally
    bounds total injections per site (a chaos budget).

    The plan records every fired fault; :meth:`schedule` dumps the log
    for replay artifacts.
    """

    #: How long a fired stall holds a job.
    stall_seconds = 0.02

    def __init__(self, seed: int = 0,
                 rates: Optional[Mapping[object, float]] = None,
                 max_fires: Optional[int] = None):
        self.seed = seed
        self.max_fires = max_fires
        self._rates: Dict[str, float] = {}
        for site, rate in (rates or {}).items():
            name = site.value if isinstance(site, FaultSite) else str(site)
            if name not in FaultSite._value2member_map_:
                raise ValueError(f"unknown fault site {name!r}")
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"fault rate must be in [0, 1]: {rate}")
            self._rates[name] = rate
        self._occurrences: Dict[Tuple[str, str], int] = {}
        self._fired: Counter = Counter()
        self._log: List[Dict[str, object]] = []
        self._lock = threading.Lock()

    def fire(self, site: FaultSite, key: str = "") -> bool:
        """Consult the plan at ``site`` for scope ``key``; True means
        the caller must inject the fault now."""
        name = site.value
        rate = self._rates.get(name, 0.0)
        with self._lock:
            occurrence = self._occurrences.get((name, key), 0)
            self._occurrences[(name, key)] = occurrence + 1
            if rate <= 0.0:
                return False
            if (self.max_fires is not None
                    and sum(self._fired.values()) >= self.max_fires):
                return False
            hit = _decision(self.seed, name, key, occurrence) < rate
            if hit:
                self._fired[name] += 1
                self._log.append({
                    "site": name, "key": key, "occurrence": occurrence,
                })
            return hit

    def worker_fault(self, key: str, attempt: int) -> Optional[str]:
        """Worker-side fault for one pooled execution: ``"crash"``,
        ``"hang"`` or None. Keyed per attempt so a retry of a crashed
        execution draws a fresh decision."""
        scope = f"{key}#attempt{attempt}"
        if self.fire(FaultSite.WORKER_CRASH, scope):
            return "crash"
        if self.fire(FaultSite.WORKER_HANG, scope):
            return "hang"
        return None

    @property
    def injected(self) -> Dict[str, int]:
        """Total faults fired, by site value."""
        with self._lock:
            return dict(self._fired)

    def schedule(self) -> List[Dict[str, object]]:
        """The ordered log of fired faults (for replay artifacts)."""
        with self._lock:
            return list(self._log)


# ---------------------------------------------------------------------------
# Chaos-fuzz driver
# ---------------------------------------------------------------------------


#: Fault rates used by the chaos driver. Worker-level faults are kept
#: moderate so most cases exercise *recovery* (retry succeeds) rather
#: than exhausting every attempt; disk faults are aggressive because
#: cache degradation must never fail a job.
CHAOS_RATES: Dict[FaultSite, float] = {
    FaultSite.WORKER_CRASH: 0.12,
    FaultSite.WORKER_HANG: 0.08,
    FaultSite.POOL_BREAK: 0.05,
    FaultSite.DISK_WRITE_ERROR: 0.35,
    FaultSite.DISK_READ_CORRUPT: 0.35,
    FaultSite.QUEUE_STALL: 0.20,
}


#: The routes every chaos case sends its batch through: the direct
#: frontier, and a ``repro-serve`` daemon on a temporary unix socket
#: (the wire protocol and the server's scheduler under the same faults).
ROUTES = ("frontier", "daemon")


@dataclass
class FuzzFailure:
    """One violated invariant, with enough context to reproduce: the
    chaos driver's and the schedule fuzzer's (:mod:`repro.testing.fuzz`)
    failure reports alike."""

    case_seed: int
    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"[case-seed {self.case_seed}] {self.invariant}: {self.detail}"


def case_seeds(seed: int, cases: int) -> range:
    """The case seeds of a ``cases``-case run from ``seed``: each case
    replays alone by its seed (``--case-seed K``)."""
    return range(seed * 1_000_003, seed * 1_000_003 + cases)


@dataclass
class ChaosReport:
    """Aggregate over a chaos run."""

    cases: int = 0
    jobs: int = 0
    recovered: int = 0
    statuses: Counter = field(default_factory=Counter)
    faults: Counter = field(default_factory=Counter)
    failures: List[FuzzFailure] = field(default_factory=list)
    #: Fired fault schedules of failing cases, by route, for replay
    #: artifacts.
    failing_schedules: Dict[int, Dict[str, List[Dict[str, object]]]] = (
        field(default_factory=dict))

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [f"chaos: {self.cases} cases, {self.jobs} jobs "
                 f"(routes: {', '.join(ROUTES)})"]
        for label, counts in (("by status", self.statuses),
                              ("faults injected", self.faults)):
            if counts:
                lines.append(f"  {label}: " + "  ".join(
                    f"{name}: {count}"
                    for name, count in sorted(counts.items())))
        lines.append(f"  recovered jobs byte-identical: {self.recovered}")
        if self.failures:
            lines.append(f"  FAILURES: {len(self.failures)}")
            lines.extend(f"    {failure}" for failure in self.failures)
        else:
            lines.append("  all invariants held")
        return "\n".join(lines)


def _chaos_jobs(rng: random.Random) -> List[Tuple[str, str]]:
    """A small batch of (payload text, script text) pairs.

    Schedules come from the *safe* fuzzer (silenceable-only failure
    space) so the fault-free reference is deterministic and the only
    non-OK statuses under faults are ones the fault plan caused.
    Duplicates are appended to exercise single-flight coalescing under
    injected failure.
    """
    from ..core import dialect as transform
    from ..ir.printer import print_op
    from .fuzz import PayloadFuzzer, ScheduleFuzzer

    pairs: List[Tuple[str, str]] = []
    for _ in range(rng.randint(3, 5)):
        payload = PayloadFuzzer(rng).module()
        script, builder, root = transform.sequence()
        ScheduleFuzzer(rng, safe=True).fill_block(
            builder, root, rng.randint(1, 4)
        )
        transform.yield_(builder)
        pairs.append((print_op(payload), print_op(script)))
    for _ in range(rng.randint(1, 2)):
        pairs.append(rng.choice(pairs))
    return pairs


#: How long one route of a chaos case may run before it counts as a
#: deadlock.
_WATCHDOG_SECONDS = 120.0


def run_chaos_case(case_seed: int, workers: int = 1,
                   job_timeout: float = 0.25,
                   tracer=None, events=None,
                   ) -> Tuple[ChaosReport, Dict[str, FaultPlan]]:
    """Run one chaos case through every route; the report carries any
    violated invariants, and the fault plans are keyed by route.

    Each route gets its own engine, cache directory and
    ``FaultPlan(seed=case_seed, rates=CHAOS_RATES)``, so ``case_seed``
    alone replays either route. ``tracer``/``events`` (from
    :mod:`repro.observability`) are attached to every chaos engine when
    given, so a failing schedule leaves a replayable span + event
    timeline next to the report — the fired faults join against the
    event log on job id.
    """
    from ..service.engine import CompileEngine, CompileJob

    report = ChaosReport(cases=1)
    rng = random.Random(case_seed)
    pairs = _chaos_jobs(rng)

    def jobs() -> List[CompileJob]:
        return [
            CompileJob(payload_text=payload, script_text=script,
                       job_id=f"chaos-{case_seed}-{index}")
            for index, (payload, script) in enumerate(pairs)
        ]

    # Fault-free reference: in-process, no cache, no faults.
    with CompileEngine(workers=0, preflight=False) as engine:
        reference = [engine.run_job(job) for job in jobs()]

    plans: Dict[str, FaultPlan] = {}
    for route in ROUTES:
        plans[route] = plan = FaultPlan(seed=case_seed, rates=CHAOS_RATES)
        _run_route(route, report, case_seed, jobs, reference, plan,
                   workers, job_timeout, tracer, events)
        report.jobs += len(pairs)
        report.faults.update(plan.injected)
    if report.failures:
        report.failing_schedules[case_seed] = {
            route: plan.schedule() for route, plan in plans.items()}
    return report, plans


def _run_route(route: str, report: ChaosReport, case_seed: int, jobs,
               reference: List, plan: FaultPlan, workers: int,
               job_timeout: float, tracer, events) -> None:
    """One route of a chaos case: the batch ``jobs()`` under ``plan``,
    checked against the fault-free ``reference``; violations go to
    ``report``."""
    import asyncio
    import os
    import tempfile

    from ..service.cache import CompilationCache
    from ..service.engine import CompileEngine, JobStatus
    from ..service.frontier import ServiceFrontier
    from ..service.resilience import RetryPolicy

    def fail(invariant: str, detail: str) -> None:
        report.failures.append(
            FuzzFailure(case_seed, invariant, f"{route} route: {detail}"))

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        cache = CompilationCache(capacity=64, disk_path=tmp,
                                 max_disk_errors=4, faults=plan)
        engine = CompileEngine(
            workers=workers,
            cache=cache,
            preflight=False,
            job_timeout=job_timeout,
            function_tier=False,
            retry_policy=RetryPolicy(max_attempts=3, retry_timeouts=True,
                                     base_backoff=0.005),
            quarantine_after=5,
            crash_loop_limit=12,
            faults=plan,
            tracer=tracer,
            events=events,
        )

        async def drive():
            if route == "frontier":
                async with ServiceFrontier(engine, max_queue=4) as frontier:
                    return await frontier.run(jobs())
            from ..service.client import AsyncServiceClient
            from ..service.server import CompileServer

            sock = os.path.join(tmp, "chaos.sock")
            async with CompileServer(engine, socket_path=sock, max_queue=4):
                client = await AsyncServiceClient.connect(sock)
                try:
                    return list(await asyncio.gather(
                        *(client.submit(job.payload_text, job.script_text,
                                        job_id=job.job_id)
                          for job in jobs())))
                finally:
                    await client.close()

        try:
            try:
                results = asyncio.run(
                    asyncio.wait_for(drive(), timeout=_WATCHDOG_SECONDS)
                )
            except asyncio.TimeoutError:
                fail("no-deadlock",
                     f"batch did not complete within {_WATCHDOG_SECONDS}s "
                     f"under fault schedule {plan.injected}")
                return

            # 1. Every job reaches a terminal status, in order.
            if [r.job_id for r in results] != [j.job_id for j in jobs()]:
                fail("terminal-status",
                     "result set does not match the submitted batch")
            for result in results:
                report.statuses[result.status.value] += 1
                if not isinstance(result.status, JobStatus):
                    fail("terminal-status",
                         f"{result.job_id}: non-terminal {result.status!r}")

            # 2. Recovered jobs are byte-identical to the fault-free run.
            for result, ref in zip(results, reference):
                if result.ok:
                    if (result.status is not ref.status
                            or result.output != ref.output):
                        fail("recovery-byte-identity",
                             f"{result.job_id}: {result.status.value} "
                             f"output diverges from the fault-free "
                             f"{ref.status.value} run")
                    else:
                        report.recovered += 1
                elif ref.ok and result.status.value not in (
                        "crashed", "timeout", "poisoned", "cancelled"):
                    fail("terminal-status",
                         f"{result.job_id}: fault-free run was "
                         f"{ref.status.value} but chaos run reports "
                         f"{result.status.value} — faults must only "
                         f"produce pool-failure statuses")

            # 3. Stats balance, and the distribution saw every job.
            stats = engine.stats
            timed = engine.metrics.histogram("service.job_seconds").count
            if not stats.submitted == stats.completed == timed == len(results):
                fail("stats-balance", f"submitted={stats.submitted}, "
                     f"completed={stats.completed}, service.job_seconds "
                     f"count={timed}, results={len(results)}")
            poisoned = sum(r.status is JobStatus.POISONED for r in results)
            if stats.quarantined != poisoned:
                fail("stats-balance", f"quarantined={stats.quarantined} != "
                     f"poisoned results={poisoned}")
            # A job ends crashed or timed out only once such a failure
            # was charged to it, and each charged failure is retried or
            # ends its job (poisoned, at the latest). A follower adopts
            # its leader's result and is charged nothing.
            ended = Counter(r.status.value for r in results
                            if r.attempts and not r.coalesced)
            settled = stats.retries + ended["poisoned"]
            for status, charged in (("crashed", stats.crashes),
                                    ("timeout", stats.timeouts)):
                settled += ended[status]
                if ended[status] > charged:
                    fail("stats-balance", f"{ended[status]} jobs ended "
                         f"{status}, {charged} such failures charged")
            if stats.crashes + stats.timeouts != settled:
                fail("stats-balance", f"{stats.crashes + stats.timeouts} "
                     f"failures charged, {settled} retried or ended a job")
            injected = plan.injected
            if (injected.get("disk_write_error", 0)
                    or injected.get("disk_read_corrupt", 0)):
                disk_trouble = (cache.stats.disk_errors
                                + cache.stats.disk_corrupt)
                if disk_trouble == 0 and not cache.degraded:
                    fail("stats-balance",
                         "disk faults fired but neither disk_errors "
                         "nor disk_corrupt counted")
        finally:
            engine.shutdown()


def run_chaos(seed: int = 0, cases: int = 50, workers: int = 1,
              job_timeout: float = 0.25,
              tracer=None, events=None) -> ChaosReport:
    """Run ``cases`` chaos cases derived from ``seed``."""
    total = ChaosReport()
    for case_seed in case_seeds(seed, cases):
        report, _plans = run_chaos_case(case_seed, workers=workers,
                                        job_timeout=job_timeout,
                                        tracer=tracer, events=events)
        total.cases += 1
        total.jobs += report.jobs
        total.recovered += report.recovered
        total.statuses.update(report.statuses)
        total.faults.update(report.faults)
        total.failures.extend(report.failures)
        total.failing_schedules.update(report.failing_schedules)
    return total


# ---------------------------------------------------------------------------
# CLI: python -m repro.testing.faults
# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-chaos",
        description="deterministic fault-injection chaos fuzzing of "
        "the compile service",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed for the run (default 0)")
    parser.add_argument("--cases", type=int, default=50,
                        help="number of cases (default 50)")
    parser.add_argument("--workers", type=int, default=1,
                        help="pool workers per case (default 1)")
    parser.add_argument("--timeout", type=float, default=0.25,
                        help="per-job deadline inside each case")
    parser.add_argument("--case-seed", type=int, default=None,
                        help="re-run a single case by its case-seed "
                        "(as printed in a failure report)")
    parser.add_argument("--schedule-out", default=None, metavar="FILE",
                        help="on failure, write the fired fault "
                        "schedules of failing cases here (JSON) for "
                        "replay")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="write a Chrome trace-event JSON spanning "
                        "every chaos case here (ui.perfetto.dev)")
    parser.add_argument("--events-out", default=None, metavar="FILE",
                        help="write the JSONL job-lifecycle event log "
                        "of the whole run here")
    args = parser.parse_args(argv)

    tracer = events = None
    if args.trace_out is not None or args.events_out is not None:
        from ..observability import EventLog, Tracer

        tracer = Tracer() if args.trace_out is not None else None
        events = (EventLog(args.events_out)
                  if args.events_out is not None else None)

    def _flush_observability() -> None:
        if tracer is not None:
            tracer.write_chrome(args.trace_out)
        if events is not None:
            events.close()

    if args.case_seed is not None:
        report, plans = run_chaos_case(args.case_seed,
                                       workers=args.workers,
                                       job_timeout=args.timeout,
                                       tracer=tracer, events=events)
        _flush_observability()
        print(report.render())
        print("fault schedule: " + json.dumps(
            {route: plan.schedule() for route, plan in plans.items()}))
        return 0 if report.ok else 1

    report = run_chaos(args.seed, args.cases, workers=args.workers,
                       job_timeout=args.timeout,
                       tracer=tracer, events=events)
    _flush_observability()
    print(report.render())
    if not report.ok and args.schedule_out is not None:
        with open(args.schedule_out, "w") as handle:
            json.dump({
                "seed": args.seed,
                "cases": args.cases,
                "workers": args.workers,
                "failing_cases": {
                    str(case): schedule
                    for case, schedule in report.failing_schedules.items()
                },
                "failures": [str(f) for f in report.failures],
            }, handle, indent=2)
        print(f"fault schedules written to {args.schedule_out}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
