"""Command-line plumbing for the compile service, and ``repro-batch``.

Everything argparse in the service lives here: the engine flags and
the engine factory/teardown pair that ``repro-batch`` and
``repro-serve`` share, the per-job flags ``repro-batch`` and
``repro-submit`` share, and :func:`report_results` — the one place a
job outcome becomes a status line, an output file and an exit code.

``repro-batch`` compiles a directory of payload modules against a
schedule library::

    repro-batch payloads/ --schedule schedules/tile.mlir --jobs 4 \\
        --cache-dir .repro-cache --timing --json metrics.json -o out/

It is one driver over two transports. Locally each job goes through
``ServiceFrontier.submit`` on an engine built from the flags; with
``--connect ADDRESS`` it goes through ``AsyncServiceClient.submit`` to
a running ``repro-serve``, never more than the server's advertised
per-client quota in flight. Job list, status lines, ``-o`` files,
summary, exit code and the ``jobs``/``by_status`` keys of ``--json``
are the same code either way; only the local transport's parser has
the flags that describe a local engine.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import sys
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..observability import EventLog, Tracer
from ..testing.faults import FaultPlan, FaultSite
from .cache import CompilationCache
from .client import AsyncServiceClient, RemoteError
from .engine import CompileEngine, CompileJob, JobResult
from .frontier import PRIORITY_RANKS, ServiceFrontier
from .resilience import RetryPolicy


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _collect(path: str,
             suffixes: Sequence[str] = (".mlir", ".py")) -> List[str]:
    if os.path.isfile(path):
        return [path]
    if not os.path.isdir(path):
        raise FileNotFoundError(path)
    return sorted(
        os.path.join(path, name)
        for name in os.listdir(path)
        if name.endswith(tuple(suffixes))
    )


def _pairs(items: Optional[List[str]], flag: str, shape: str):
    """Split the values of a repeatable ``NAME=VALUE`` flag."""
    for item in items or ():
        name, sep, raw = item.partition("=")
        if not sep:
            raise ValueError(f"{flag} expects {shape}, got {item!r}")
        yield name, raw


def parse_params(items: Optional[List[str]]) -> Optional[dict]:
    params = {}
    for name, raw in _pairs(items, "--param", "name=value"):
        values = [int(v) for v in raw.split(",")]
        params[name] = values[0] if len(values) == 1 else values
    return params or None


def _parse_faults(items: Optional[List[str]]) -> Optional[dict]:
    """Parse repeated ``--fault SITE=RATE`` into a rates mapping for
    :class:`FaultPlan` (the seed arrives separately via
    ``--fault-seed``)."""
    valid = {site.value for site in FaultSite}
    rates = {}
    for name, raw in _pairs(items, "--fault", "SITE=RATE"):
        if name not in valid:
            raise ValueError(
                f"unknown fault site {name!r} "
                f"(choose from: {', '.join(sorted(valid))})"
            )
        rate = float(raw)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"--fault rate must be in [0, 1], got {raw!r}")
        rates[name] = rate
    return rates or None


def _stem(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def _unique_labels(paths: Sequence[str]) -> List[str]:
    """Human-readable, collision-free labels for a list of files.

    Basename stems alone can collide — ``--schedule`` is repeatable,
    so ``a/tile.mlir`` and ``b/tile.mlir`` may both be loaded, and
    with ``-o`` colliding job ids would silently overwrite each
    other's output files. Duplicated stems are qualified with their
    parent directory; if even that collides, a positional index."""
    labels = [_stem(path) for path in paths]
    if len(set(labels)) == len(labels):
        return labels
    labels = [
        "{}.{}".format(
            os.path.basename(os.path.dirname(os.path.abspath(path)))
            or "root",
            _stem(path),
        )
        for path in paths
    ]
    if len(set(labels)) == len(labels):
        return labels
    return [f"{label}.{index}" for index, label in enumerate(labels)]


def add_job_arguments(parser: argparse.ArgumentParser,
                      priority: str) -> None:
    """Per-job flags shared by ``repro-batch`` and ``repro-submit``."""
    parser.add_argument("--entry-point", default=None,
                        help="named sequence to run")
    parser.add_argument("--param", action="append", default=None,
                        metavar="NAME=VALUE",
                        help="parameter binding (repeatable; VALUE may "
                        "be a comma list)")
    parser.add_argument("--priority", default=priority,
                        choices=tuple(PRIORITY_RANKS),
                        help="priority class: queued jobs dispatch by "
                        f"class, then arrival (default {priority})")


def add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """Engine/cache/resilience/export flags shared by ``repro-batch``
    and ``repro-serve`` (one source of truth for defaults and help)."""
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (0 = in-process "
                        "sequential; default 1)")
    parser.add_argument("--queue-size", type=int, default=64,
                        help="admission queue bound (backpressure "
                        "threshold; default 64)")
    parser.add_argument("--cache-size", type=int, default=256,
                        help="in-memory cache entries (default 256)")
    parser.add_argument("--cache-dir", default=None,
                        help="on-disk cache directory (off by default)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the compilation cache")
    parser.add_argument("--no-function-cache", action="store_true",
                        help="disable the per-function digest cache "
                        "tier (whole-job caching still applies)")
    parser.add_argument("--no-preflight", action="store_true",
                        help="skip the static lint gate")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-job deadline in seconds")
    parser.add_argument("--max-attempts", type=int, default=2,
                        help="executions per job before its failure is "
                        "terminal (default 2 = retry once; 1 disables "
                        "retries)")
    parser.add_argument("--retry-timeouts", action="store_true",
                        help="also retry jobs that hit the --timeout "
                        "deadline (by default only crashes retry)")
    parser.add_argument("--backoff", type=float, default=0.0,
                        metavar="SECONDS",
                        help="base retry backoff; doubles per attempt "
                        "with deterministic jitter (default 0 = "
                        "immediate)")
    parser.add_argument("--quarantine-after", type=int, default=3,
                        metavar="N",
                        help="pool failures by one job digest before it "
                        "is poisoned (default 3; 0 disables quarantine)")
    parser.add_argument("--crash-loop-limit", type=int, default=6,
                        metavar="N",
                        help="pool restarts inside a 30s window before "
                        "the engine degrades to in-process execution "
                        "(default 6; 0 disables the monitor)")
    parser.add_argument("--fault", action="append", default=None,
                        metavar="SITE=RATE",
                        help="inject deterministic faults (repeatable), "
                        "e.g. --fault worker_crash=0.1; sites: "
                        + ", ".join(sorted(s.value for s in FaultSite)))
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="seed for the fault plan (default 0)")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="on exit, write a Chrome trace-event JSON "
                        "of every job here (open in ui.perfetto.dev)")
    parser.add_argument("--events-out", default=None, metavar="FILE",
                        help="write the JSONL job-lifecycle event log "
                        "here (one record per state transition)")


def build_engine(args) -> CompileEngine:
    """Construct the engine — with its cache, fault plan and the
    tracer/event log the export flags ask for — from parsed
    :func:`add_engine_arguments` flags. Raises ``ValueError`` on
    invalid combinations (callers map that to exit code 2)."""
    fault_rates = _parse_faults(args.fault)
    faults = (FaultPlan(seed=args.fault_seed, rates=fault_rates)
              if fault_rates else None)
    cache = None
    if not args.no_cache:
        cache = CompilationCache(capacity=args.cache_size,
                                 disk_path=args.cache_dir,
                                 faults=faults)
    return CompileEngine(
        workers=args.jobs,
        cache=cache,
        preflight=not args.no_preflight,
        job_timeout=args.timeout,
        function_tier=not args.no_function_cache,
        retry_policy=RetryPolicy(max_attempts=args.max_attempts,
                                 retry_timeouts=args.retry_timeouts,
                                 base_backoff=args.backoff),
        quarantine_after=args.quarantine_after,
        crash_loop_limit=args.crash_loop_limit,
        faults=faults,
        tracer=Tracer() if args.trace_out is not None else None,
        events=(EventLog(args.events_out)
                if args.events_out is not None else None),
    )


def shutdown_engine(engine: CompileEngine, args) -> None:
    """Stop the pool and flush the exports :func:`build_engine`
    opened."""
    engine.shutdown()
    if engine.tracer is not None:
        engine.tracer.write_chrome(args.trace_out)
    if engine.events is not None:
        engine.events.close()


def service_report(metrics: Dict[str, object]) -> str:
    """The ``--timing`` report of a compile service, rendered from its
    :meth:`CompileEngine.metrics_snapshot`."""
    counters, gauges = metrics["counters"], metrics["gauges"]
    jobs = metrics["histograms"]["service.job_seconds"]
    # Sampled by the frontier; an engine driven directly has none.
    depth = metrics["histograms"].get("service.queue_depth", {"count": 0})

    def count(name: str) -> int:
        return int(counters.get(name, 0))

    bar = "===" + "-" * 70 + "==="
    lines = [bar, "  ... Transform execution timing report ...", bar]
    if jobs["count"] or depth["count"]:
        lines += ["  Compile service",
                  f"    jobs: {jobs['count']}  "
                  f"mean wall: {jobs['mean'] * 1e3:.3f} ms  "
                  f"max wall: {jobs['max'] * 1e3:.3f} ms"]
        by_status = "  ".join(
            f"{name.rpartition('.')[2]}: {int(value)}"
            for name, value in sorted(counters.items())
            if name.startswith("engine.by_status."))
        if by_status:
            lines.append(f"    by status: {by_status}")
        # Whole-job lookups as the cache itself counted them (its
        # totals include the function tier): a job that never reached
        # a lookup is not a miss, and no cache means no figures.
        cache = ""
        if "cache.hits" in counters:
            hits, misses = (count(f"cache.{k}") - count(f"cache.function_{k}")
                            for k in ("hits", "misses"))
            rate = hits / (hits + misses) if hits + misses else 0.0
            cache = (f"cache hit rate: {rate:.1%}  "
                     f"(hits: {hits}  misses: {misses})  ")
        lines.append(f"    {cache}worker restarts: "
                     f"{count('engine.worker_restarts')}")
        if depth["count"]:
            lines.append(f"    queue depth: mean {depth['mean']:.2f}  max "
                         f"{int(depth['max'])}  (samples: {depth['count']})")
        lines.append("")
    retries, quarantined = count("engine.retries"), count("engine.quarantined")
    degradations = count("engine.pool_degradations")
    if retries or quarantined or degradations:
        lines += ["  Resilience",
                  f"    retries: {retries}  (backoff: "
                  f"{gauges['engine.backoff_seconds'] * 1e3:.3f} ms)  "
                  f"quarantined: {quarantined}  "
                  f"pool degradations: {degradations}", ""]
    return "\n".join(lines).rstrip()


def report_results(
        results: Iterable[Tuple[str, object]],
        output_path: Optional[Callable[[str], str]] = None,
        status_out=None) -> Tuple[int, Dict[str, int]]:
    """Report ``(job id, JobResult-or-exception)`` pairs the way every
    service CLI does: one ``<id>: <status>[ (cached)]`` line per job
    on ``status_out`` (default stdout), diagnostics and refusals on
    stderr, each successful output written to ``output_path(job id)``
    (``"-"`` = stdout; no callable = not written). Returns the exit
    code (1 if any job failed or was refused) and the per-status
    counts."""
    counts: Dict[str, int] = {}
    failed = False
    for job_id, result in results:
        if isinstance(result, BaseException):
            failed = True
            counts["refused"] = counts.get("refused", 0) + 1
            print(f"{job_id}: refused ({result})", file=sys.stderr)
            continue
        status = result.status.value
        counts[status] = counts.get(status, 0) + 1
        print(f"{job_id}: {status}"
              + (" (cached)" if result.cache_hit else ""),
              file=status_out or sys.stdout)
        if not result.ok:
            failed = True
            if result.diagnostics:
                print(result.diagnostics, file=sys.stderr)
        elif output_path is not None:
            text = (result.output or "") + "\n"
            path = output_path(job_id)
            if path == "-":
                sys.stdout.write(text)
            else:
                with open(path, "w") as handle:
                    handle.write(text)
    return int(failed), counts


# ---------------------------------------------------------------------------
# repro-batch
# ---------------------------------------------------------------------------


def _build_jobs(args) -> List[CompileJob]:
    """The payload x schedule product named on the command line."""
    from ..frontend.loader import read_payload_source, read_schedule_source

    payload_files = _collect(args.payloads)
    schedule_files = [
        path for entry in args.schedule for path in _collect(entry)
    ]
    if not payload_files or not schedule_files:
        raise ValueError("no payloads or no schedules found")
    params = parse_params(args.param)
    try:
        payloads = [read_payload_source(path) for path in payload_files]
        schedules = [read_schedule_source(path) for path in schedule_files]
    except Exception as error:  # a frontend .py module may raise anything
        raise ValueError(str(error)) from error
    schedule_labels = _unique_labels(schedule_files)
    return [
        CompileJob(
            payload_text=payload,
            script_text=schedule,
            params=params,
            entry_point=args.entry_point,
            job_id=f"{payload_label}.{schedule_label}",
        )
        for payload, payload_label in zip(payloads,
                                          _unique_labels(payload_files))
        for schedule, schedule_label in zip(schedules, schedule_labels)
    ]


@contextlib.asynccontextmanager
async def _local_transport(args, engine: CompileEngine):
    """Jobs go through an in-process frontier over ``engine``, which
    this transport owns: it shuts the engine down, flushes its
    exports and prints the ``--timing`` report on the way out.
    Yields the submit coroutine and the route's ``--json`` keys (a
    dict, complete once the transport has exited)."""
    report: Dict[str, object] = {}
    try:
        async with ServiceFrontier(
                engine, max_queue=args.queue_size) as frontier:
            yield (lambda job: frontier.submit(job, args.priority),
                   report)
    finally:
        shutdown_engine(engine, args)
        report["metrics"] = engine.metrics_snapshot()
        if args.timing:
            print(service_report(report["metrics"]), file=sys.stderr)
    faults = engine.faults
    if faults is not None:
        report["faults"] = {
            "seed": faults.seed,
            "injected": faults.injected,
            "schedule": faults.schedule(),
        }
    if engine.degraded:
        report["degraded"] = engine.degraded_diagnostic


@contextlib.asynccontextmanager
async def _remote_transport(args, total: int):
    """Jobs go to the ``repro-serve`` daemon at ``args.connect`` over
    one multiplexed connection. The server refuses, rather than
    queues, submits beyond its per-client quota, so the window below
    keeps at most the advertised quota in flight — the backpressure a
    local frontier gets from its bounded queue."""
    client = await AsyncServiceClient.connect(args.connect)
    report: Dict[str, object] = {"connect": args.connect, "server": None}
    try:
        pong = await client.ping()
        window = asyncio.Semaphore(int(pong.get("client_quota", total)))

        async def submit(job: CompileJob) -> JobResult:
            async with window:
                return await client.submit(
                    job.payload_text, job.script_text,
                    params=job.params, entry_point=job.entry_point,
                    job_id=job.job_id, priority=args.priority,
                )

        yield submit, report
        try:
            report["server"] = await client.stats()
        except RemoteError:
            pass  # the results are in hand; report them regardless
    finally:
        await client.close()


async def _drive(transport, jobs: Sequence[CompileJob]):
    """Run ``jobs`` over ``transport``; per-job exceptions (server
    refusals) come back in place of the result."""
    async with transport as (submit, report):
        results = await asyncio.gather(
            *(submit(job) for job in jobs), return_exceptions=True
        )
    return results, report


def _batch_parser(connect: bool) -> argparse.ArgumentParser:
    """``repro-batch``'s flags for one transport: the engine/export
    flags and ``--timing`` describe a local engine, so with
    ``--connect`` they do not exist and argparse rejects them."""
    parser = argparse.ArgumentParser(
        prog="repro-batch",
        description="compile a directory of payload modules against a "
        "schedule library on a cached worker pool",
    )
    parser.add_argument("payloads",
                        help="payload IR file, frontend .py module, or "
                        "directory of .mlir/.py files")
    parser.add_argument("--schedule", action="append", required=True,
                        metavar="FILE_OR_DIR",
                        help="transform script file or frontend .py "
                        "module, or a directory of them (repeatable; "
                        "every payload is compiled against every "
                        "schedule)")
    parser.add_argument("--connect", default=None, metavar="ADDRESS",
                        help="route the batch through a running "
                        "repro-serve daemon (unix socket path or "
                        "HOST:PORT) instead of spawning a local pool; "
                        "the engine/cache/resilience/export flags and "
                        "--timing then do not exist (the server has "
                        "its own: repro-serve flags, repro-submit "
                        "--stats)")
    if not connect:
        add_engine_arguments(parser)
    add_job_arguments(parser, priority="batch")
    parser.add_argument("-o", "--output-dir", default=None,
                        help="write each result module here "
                        "(<payload>.<schedule>.mlir)")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="write machine-readable metrics here")
    if not connect:
        parser.add_argument("--timing", action="store_true",
                            help="print the -mlir-timing-style service "
                            "report to stderr")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    # Find the transport first so --help, too, describes only its flags.
    probe = argparse.ArgumentParser(prog="repro-batch", add_help=False)
    probe.add_argument("--connect", default=None)
    remote = probe.parse_known_args(argv)[0].connect is not None
    args = _batch_parser(connect=remote).parse_args(argv)
    try:
        jobs = _build_jobs(args)
        transport = (_local_transport(args, build_engine(args))
                     if args.connect is None
                     else _remote_transport(args, len(jobs)))
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        results, report = asyncio.run(_drive(transport, jobs))
    except (OSError, RemoteError) as error:  # the socket, not the jobs
        print(f"error: cannot reach server at {args.connect}: {error}",
              file=sys.stderr)
        return 2

    output_path = None
    if args.output_dir is not None:
        os.makedirs(args.output_dir, exist_ok=True)

        def output_path(job_id: str) -> str:
            return os.path.join(args.output_dir, f"{job_id}.mlir")

    code, counts = report_results(
        zip((job.job_id for job in jobs), results), output_path)
    summary = "  ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
    via = f"  [via {args.connect}]" if args.connect is not None else ""
    print(f"{len(results)} job(s)  {summary}{via}")

    if args.json is not None:
        with open(args.json, "w") as handle:
            json.dump({"jobs": len(results), "by_status": counts,
                       **report}, handle, indent=2)
    return code


if __name__ == "__main__":
    sys.exit(main())
