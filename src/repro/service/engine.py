"""Job execution over the worker pool.

The engine takes one :class:`CompileJob` per call and produces its
:class:`JobResult`; which jobs run when, and how many at once, is the
frontier's decision (:class:`~repro.service.frontier.ServiceFrontier`,
the service's one scheduler). Every job walks one linear pipeline — the body
of :meth:`CompileEngine.run_job` — whose steps either return a
terminal result or fall through, cheapest first:

1. **inputs** — each input text is parsed once for as long as the
   input memo remembers it, into its digest (plus the
   function-tier facts and, for scripts, the lint verdict per entry
   point); text that does not parse is REJECTED. The job whose memo
   miss parsed a payload owns that module until a later step consumes
   it — step 6 does: the in-process execution compiles that very
   object (its *only* parse), a partial function-tier hit cuts its
   sub-jobs' payloads off it — and whatever nobody consumed is freed
   when the job ends; the script is cloned from the memo (see
   :class:`_PayloadInfo` and :class:`_ScriptInfo` for who owns what);
2. **preflight** — scripts with definite static errors (the
   ``repro-lint`` analysis suite) are REJECTED before a worker is
   ever occupied;
3. **cache** — content-addressed lookup, see
   :mod:`repro.service.cache`; a hit also refreshes the function
   entries the job is made of, so a near-repeat of a hot job finds
   them in step 6;
4. **quarantine gate** — content that crashed or hung its worker
   ``quarantine_after`` times is POISONED instead of replacing
   workers forever (:class:`~repro.service.resilience.JobQuarantine`);
5. **single-flight** — concurrent jobs with the same content key
   share one execution: followers wait on the leader's result
   instead of occupying a second worker;
6. **function tier | dispatch** — the leader assembles the output
   from per-function cache entries when it can — a text splice
   (:func:`~repro.service.sharding.assemble_functions`: entries keep
   the names they were printed with, only the ones that moved are
   renumbered) and a digest composed from the entries'
   (:func:`~repro.ir.hashing.module_digest`): nothing is parsed,
   printed or re-hashed on a full hit, and on a partial one the
   missing functions are printed off the module step 1 parsed and run
   as sub-jobs (below) — the daemon parses a partial hit once — else
   runs the job on one of the engine's forked workers: the job's own
   thread sends the call down the worker's pipe and waits for the reply
   (IR crosses the *process* boundary as text: the worker parses its
   own copy). A per-job timeout kills the hung worker and forks its
   successor in its place (TIMEOUT); a worker crash
   (``BrokenProcessPool``) does the same (CRASHED). Either is charged
   to the one job whose call was sent to that worker, never to a job
   that waited for a worker or ran on another; one found dead before
   a call reaches it is replaced at checkout, at no job's cost. The
   :class:`~repro.service.resilience.RetryPolicy` decides whether the
   attempt is repeated, and a
   :class:`~repro.service.resilience.PoolHealthMonitor` degrades an
   engine that keeps replacing workers to in-process execution —
   reduced throughput, preserved liveness;
7. **publish** — OK results go to the cache and to the followers;
   the function-tier entries of a clean whole-module success are the
   ``(text, function digest, names)`` triples the worker printed off
   its live IR (the engine asked for them in step 6 and parses no
   output).

Steps 1-3 are one method, :meth:`CompileEngine._front`, with one
switch — whether a memo miss may parse — and two callers.
:meth:`~CompileEngine.run_job` lets it parse. **Admission**
(:meth:`CompileEngine.answer`, called by the frontier on the event
loop before a job is given a queue slot) does not: when both texts
are in the input memo, the verdict is memoized and the result is in
the cache's *memory* tier, the job is answered there and then — same
accounting, same spans — and when memory cannot answer, the attempt
leaves no counter, event or span and the job queues. A **sub-job** —
one missing function of a partial hit, ``<parent id>/fnN`` — is a
function-tier write and nothing else: its parent hands ``run_job``
the input facts it composed for the shard (step 1 derives nothing),
step 3 and the whole-job half of step 7 are skipped (nobody will ever
ask for a whole-job copy of one function), and steps 4-6 — quarantine,
single-flight against other parents missing the same function,
dispatch, retry — and the function-tier half of step 7 run as for any
job. DESIGN.md §14 prices the three cached routes.

Every counter, event and job-seconds sample is recorded by one method,
:meth:`CompileEngine._account`, into :class:`EngineStats` — the store
of every engine scalar — and ``engine.metrics``, the registry holding
the distributions; :meth:`CompileEngine.metrics_snapshot` folds the
stores of all components into the one versioned snapshot.

A :class:`~repro.testing.faults.FaultPlan` can be attached to inject
deterministic faults at the pool boundary (worker crash, worker hang,
pool break) — the chaos harness uses this to exercise every one of the
recovery paths above on every CI run.

``workers=0`` runs jobs in-process, strictly sequentially, through the
*same* worker function the pool runs
(:func:`repro.service.worker.compile_job`, handed the parsed inputs
instead of their text) — the reference semantics pooled execution
must reproduce byte-identically.
"""

from __future__ import annotations

import enum
import itertools
import multiprocessing
import queue
import threading
import time
from collections import Counter, OrderedDict
from concurrent.futures import Future, TimeoutError
from contextlib import nullcontext
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..ir import parser as ir_parser
from ..ir.core import Operation
from ..ir.hashing import attributes_digest, module_digest, op_digest
from ..observability.metrics import MetricsRegistry
from ..observability.tracing import Tracer
from ..testing.faults import FaultPlan, FaultSite
from .cache import (CachedResult, CompilationCache, ParamBindings, cache_key,
                    function_key)
from .resilience import JobQuarantine, PoolHealthMonitor, RetryPolicy
from .sharding import (assemble_functions, function_text,
                       function_text_digests, is_func_shardable,
                       shardable_functions)
from .worker import _ensure_registered, compile_job, serve

_job_ids = itertools.count()

#: Input-memo bound of an engine without a cache (with one, the memo
#: holds as many texts of each kind as the cache holds results).
_MEMO_CAPACITY = 256


def check_timeout(name: str, seconds: Optional[float]) -> Optional[float]:
    """``seconds`` when it is None or a positive number of seconds;
    otherwise ``ValueError`` — a deadline of zero or less would time
    out every job it governs and replace a worker each time."""
    if seconds is not None and not (
            isinstance(seconds, (int, float)) and seconds > 0):
        raise ValueError(f"{name} must be a positive number of seconds, "
                         f"got {seconds!r}")
    return seconds


@dataclass(frozen=True)
class _PayloadInfo:
    """Derived facts about one payload text, memoized per raw text.

    Only *derived* data (digest strings, attribute snapshot) is kept —
    never the parsed module: a compilation transforms its payload in
    place, so a retained module would have to be cloned per job, and
    up to ``capacity`` retained modules are resident memory the
    digests are not. The module belongs to the job whose memo miss
    parsed it (:meth:`CompileEngine._derive_payload`): an engine
    without a pool compiles that very object, a partial function-tier
    hit prints its missing functions off it, and any later job with
    the same text parses it again. The facts of a function-tier
    sub-job's payload are never derived: its parent composes them
    (:func:`repro.service.sharding.function_text_digests`).

    ``func_digests``/``module_attrs`` are populated only for an engine
    with a function tier to key (a cache) and a payload that is a
    cleanly splittable all-function module (see
    :func:`repro.service.sharding.shardable_functions`); the attribute
    values themselves are immutable attribute objects.
    """

    digest: str
    attrs_digest: str
    module_attrs: Optional[Dict] = None
    func_digests: Optional[Tuple[str, ...]] = None


@dataclass
class _ScriptInfo:
    """Derived facts about one script text, memoized per raw text.

    The parsed script is kept and owned by the memo entry — read-only:
    a job naming an entry point this text has not been linted for
    re-lints it without re-parsing, and an in-process execution
    interprets a ``clone()`` of it (binding parameters mutates the
    script, and cloning is several times cheaper than parsing). Pool
    workers parse their own copy from the text.
    """

    digest: str
    func_shardable: bool
    op: Operation
    #: entry point -> rendered lint errors ("" = statically clean).
    verdicts: Dict[Optional[str], str] = field(default_factory=dict)


class JobStatus(enum.Enum):
    """Terminal classification of one job, ordered roughly by severity."""

    SUCCESS = "success"
    #: Compiled, but the script reported a silenceable failure.
    SILENCEABLE = "silenceable"
    #: The interpreter aborted with a definite error.
    DEFINITE = "definite"
    #: Refused by static preflight before reaching a worker.
    REJECTED = "rejected"
    #: The worker process died on every attempt the retry policy allowed.
    CRASHED = "crashed"
    #: The per-job deadline elapsed; the hung worker was killed and
    #: replaced, so its slot is reclaimed.
    TIMEOUT = "timeout"
    #: Cancelled before a worker picked it up.
    CANCELLED = "cancelled"
    #: Quarantined by the circuit breaker: this content crashed or
    #: hung its worker often enough that it is no longer allowed near a
    #: worker (see :class:`repro.service.resilience.JobQuarantine`).
    POISONED = "poisoned"


@dataclass(frozen=True)
class CompileJob:
    """One (payload module, transform script, parameter bindings) job.

    Both IR inputs are *text*; ``params`` override
    ``transform.param.constant`` ops carrying a matching ``binding``
    attribute (see :func:`repro.service.worker.bind_parameters`).
    Every route builds one, so a field from outside input that would
    misbehave deep in the engine is refused here (``ValueError``).
    """

    payload_text: str
    script_text: str
    params: Optional[ParamBindings] = None
    entry_point: Optional[str] = None
    #: Per-job deadline in seconds (None = engine default).
    timeout: Optional[float] = None
    job_id: str = field(
        default_factory=lambda: f"job-{next(_job_ids)}"
    )

    def __post_init__(self) -> None:
        check_timeout("timeout", self.timeout)
        if not isinstance(self.entry_point, (str, type(None))):
            raise ValueError(
                f"entry_point must be a string, got {self.entry_point!r}")


@dataclass
class JobResult:
    """Outcome of one job, with enough telemetry for the metrics layer."""

    job_id: str
    status: JobStatus
    #: Printed transformed payload (None unless SUCCESS/SILENCEABLE).
    output: Optional[str] = None
    #: Rendered diagnostics (warnings, error chains, crash report).
    diagnostics: str = ""
    #: Content address of the job (shared by coalesced duplicates).
    key: str = ""
    cache_hit: bool = False
    #: Structural digest of the output module (when known).
    output_digest: Optional[str] = None
    #: The job waited on another in-flight execution of the same key.
    coalesced: bool = False
    #: The output was assembled from per-function cache entries.
    function_tier: bool = False
    #: Worker-side parse+interpret+print seconds (0.0 for cache hits).
    worker_seconds: float = 0.0
    #: End-to-end seconds inside the engine (queueing included).
    wall_seconds: float = 0.0
    #: Pool executions attempted (2 = retried after a worker crash).
    attempts: int = 0
    #: Interpreter counters from the worker (empty for cache hits).
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status in (JobStatus.SUCCESS, JobStatus.SILENCEABLE)


@dataclass
class EngineStats:
    """Aggregate engine accounting (monotonic; thread-safe under the
    engine's bookkeeping lock)."""

    submitted: int = 0
    completed: int = 0
    executed: int = 0
    cache_hits: int = 0
    #: Jobs whose output was assembled from per-function digest
    #: cache entries (fully or after compiling only the misses).
    function_tier_hits: int = 0
    coalesced: int = 0
    rejected: int = 0
    crashes: int = 0
    worker_restarts: int = 0
    timeouts: int = 0
    cancelled: int = 0
    #: Extra executions granted by the retry policy (beyond the first).
    retries: int = 0
    #: Jobs that finished POISONED (quarantined by the circuit breaker).
    quarantined: int = 0
    #: Times the engine degraded to in-process execution after
    #: crash-loop detection (0 or 1 per engine lifetime).
    pool_degradations: int = 0
    #: Seconds of backoff the retry policy imposed, summed.
    backoff_seconds: float = 0.0
    #: Terminal :class:`JobStatus` value -> completed jobs.
    by_status: Dict[str, int] = field(default_factory=Counter)

    def as_dict(self) -> Dict[str, object]:
        return dict(self.__dict__, by_status=dict(self.by_status))


#: Event transition -> the :class:`EngineStats` field it bumps
#: (DISPATCHED only marks time). Transitions that are not events are
#: named after the field itself: ``cancelled``, ``executed``,
#: ``worker_restarts``.
_EVENT_FIELD = {
    "STARTED": "submitted", "COMPLETED": "completed",
    "REJECTED": "rejected", "CACHE_HIT": "cache_hits",
    "ASSEMBLED": "function_tier_hits", "COALESCED": "coalesced",
    "POISONED": "quarantined", "RETRIED": "retries",
    "TIMEOUT": "timeouts", "CRASHED": "crashes",
    "DEGRADED": "pool_degradations", "DISPATCHED": None,
}


def _mark(span, status: Optional[str] = None, **attributes) -> None:
    """Set a live span's status/attributes; no-op without tracing."""
    if span is not None:
        if status is not None:
            span.status = status
        span.attributes.update(attributes)


class _Worker:
    """One forked worker process (:func:`repro.service.worker.serve`)
    and the engine's end of its duplex pipe. Checked out, it is the
    handle of the one call it was sent: :meth:`result` reads the reply
    on the thread that sent the call."""

    def __init__(self, pool: "_Pool"):
        self.pool = pool
        self.conn, theirs = pool.context.Pipe()
        self.process = pool.context.Process(target=serve, args=(theirs,),
                                            daemon=True)
        self.process.start()
        theirs.close()
        pool.idle.put(self)

    def result(self, timeout: Optional[float] = None):
        """The call's value, or its exception raised here; then the
        worker is idle again. ``TimeoutError`` at the deadline, and
        ``BrokenProcessPool`` when the process died first: either way
        the worker stays checked out, for the caller to replace."""
        ready = wait([self.conn, self.process.sentinel], timeout)
        if not ready:
            raise TimeoutError()
        try:
            if self.conn not in ready:  # dead, and nothing was sent
                raise EOFError
            ok, value = self.conn.recv()
        except (EOFError, OSError):
            raise BrokenProcessPool("a worker died mid-job") from None
        self.pool.idle.put(self)
        if not ok:
            raise value
        return value

    def kill(self) -> None:
        """Kill the process — a hung worker notices nothing gentler —
        and reap it."""
        self.process.kill()
        self.process.join()


class _Pool:
    """``workers`` processes forked at once, each behind one pipe; no
    thread of its own. :meth:`submit` checks out an idle worker, waiting
    for one, and sends it the call. A worker that failed is replaced in
    its own place (:meth:`replace`); the others are never touched.
    ``replaced`` is called once per worker replaced."""

    def __init__(self, workers: int, replaced):
        # Children inherit the op registries (and any test-local
        # transform ops) instead of re-importing under spawn.
        self.context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else None)
        self.replaced = replaced
        self.lock = threading.Lock()  # orders replace() against close()
        self.closed = False
        self.idle = queue.SimpleQueue()  # of _Worker, or None: closed
        self.workers = [_Worker(self) for _ in range(workers)]

    def submit(self, fn, *args) -> Optional[_Worker]:
        """Send ``fn(*args)`` to an idle worker, which is returned; None
        once the pool is closed. A worker found dead is replaced and the
        checkout repeated, as many times as there are workers; one found
        dead after that is returned, and its call fails as a crash. An
        argument that does not pickle raises its own error and leaves
        the worker idle."""
        for repeats in range(len(self.workers), -1, -1):
            worker = self.idle.get()
            if worker is None or self.closed:
                self.idle.put(None)  # wakes the next waiter in turn
                return None
            try:
                # Pickled whole before a byte is written.
                worker.conn.send((fn, args))
            except OSError:  # the worker died while idle
                if repeats:
                    self.replace(worker)
                    continue
            except Exception:
                self.idle.put(worker)
                raise
            return worker

    def replace(self, worker: _Worker) -> None:
        """Kill and reap a checked-out ``worker`` and fork its successor
        into its place — unless the pool is closed: nothing is forked
        into a closed pool."""
        worker.kill()
        with self.lock:
            if self.closed:
                return
            self.workers[self.workers.index(worker)] = _Worker(self)
        self.replaced()  # unlocked: a crash loop closes this pool

    def close(self) -> None:
        """Fail every checkout from now on, and kill and reap every
        worker; a job in flight on one fails with ``BrokenProcessPool``.
        Idempotent."""
        with self.lock:
            self.closed = True
        self.idle.put(None)
        for worker in self.workers:
            worker.kill()


class CompileEngine:
    """Runs compile jobs over a process pool with caching.

    Thread-safe: :meth:`run_job` may be called concurrently from many
    threads (the asyncio frontier runs one per dispatch slot,
    :class:`~repro.service.frontier.ServiceFrontier`).
    """

    def __init__(self, workers: int = 1,
                 cache: Optional[CompilationCache] = None,
                 preflight: bool = True,
                 job_timeout: Optional[float] = None,
                 function_tier: bool = True,
                 retry_policy: RetryPolicy = RetryPolicy(),
                 quarantine_after: int = 3,
                 crash_loop_limit: int = 6,
                 faults: Optional[FaultPlan] = None,
                 tracer=None,
                 events=None):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.workers = workers
        self.cache = cache
        self.preflight = preflight
        self.job_timeout = check_timeout("job_timeout", job_timeout)
        #: How failed pool executions are re-attempted (default:
        #: retry once on crash, no backoff).
        self.retry_policy = retry_policy
        #: Circuit breaker: content that failed the pool
        #: ``quarantine_after`` times is POISONED (0 disables).
        self._quarantine = JobQuarantine(quarantine_after)
        #: Crash-loop detector: ``crash_loop_limit`` worker
        #: replacements inside the window degrade the engine (0
        #: disables).
        self._pool_health = PoolHealthMonitor(crash_loop_limit)
        #: Deterministic fault schedule (testing only; None in prod).
        self.faults = faults
        #: Set once crash-loop detection has demoted the engine to
        #: in-process execution (:attr:`degraded`): the one-line reason.
        self.degraded_diagnostic: Optional[str] = None
        #: Consult/populate the per-function digest cache tier for
        #: multi-function payloads under provably function-local
        #: schedules (requires ``cache``).
        self.function_tier = function_tier
        #: Optional :class:`repro.observability.Tracer`: per-job spans
        #: (preflight, cache lookup, single-flight wait, per-attempt
        #: dispatch) plus the worker-side spans shipped back across
        #: the pool boundary. None = tracing disabled.
        self.tracer = tracer
        #: Optional :class:`repro.observability.EventLog`: one record
        #: per job state transition, correlated by job id.
        self.events = events
        # Before the first parse (type and op names resolve through
        # the registries) and before the pool forks, so children
        # inherit the registries instead of importing them per worker.
        _ensure_registered()
        #: The worker pool: None for ``workers=0``, once degraded and
        #: once shut down. Forked now, before any frontier thread
        #: exists — fork-after-thread is where pools get fragile.
        self._pool = _Pool(workers, self._replaced) if workers else None
        self._book_lock = threading.Lock()
        self._inflight: Dict[str, Future] = {}
        #: raw text -> derived facts, LRU: one parse per input text
        #: for as long as the cache could still answer a job with it.
        self._payloads: "OrderedDict[str, _PayloadInfo]" = OrderedDict()
        self._scripts: "OrderedDict[str, _ScriptInfo]" = OrderedDict()
        self._cancelled = threading.Event()
        self.stats = EngineStats()
        #: What plain counters cannot hold, the distributions: job wall
        #: seconds here, queue depth from the frontier.
        self.metrics = MetricsRegistry()
        self._job_seconds = self.metrics.histogram("service.job_seconds")

    # -- lifecycle -----------------------------------------------------------

    def _replaced(self) -> None:
        """One worker replaced: count it, and degrade a crash-looping
        engine."""
        self._account("worker_restarts")
        if self._pool_health.record_restart():
            self._degrade_pool()

    def _degrade_pool(self) -> None:
        """Crash-loop detected (once per engine): give up on the pool
        and fall back to in-process execution. Liveness over throughput
        — jobs keep completing (slowly, one at a time) instead of
        feeding an endless fork/crash cycle."""
        self.degraded_diagnostic = self._pool_health.diagnose()
        pool, self._pool = self._pool, None
        if pool is not None:  # not shut down meanwhile
            pool.close()
        # Engine-wide, not job-scoped: no correlation id.
        self._account("DEGRADED", diagnostic=self.degraded_diagnostic)

    @property
    def degraded(self) -> bool:
        """True once crash-loop detection disabled the pool."""
        return self.degraded_diagnostic is not None

    def shutdown(self) -> None:
        """Kill and reap the workers. Call it once nothing runs: a job
        still in flight fails as a crash."""
        self._cancelled.set()
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def __enter__(self) -> "CompileEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- accounting and spans ------------------------------------------------

    def _account(self, transition: str, job: Optional[CompileJob] = None,
                 also: Sequence[str] = (), **fields) -> None:
        """The one accounting point: every engine state transition is
        recorded here and nowhere else.

        ``transition`` is an event type (upper case; see
        ``_EVENT_FIELD``) or, for the transitions that are not events,
        the :class:`EngineStats` field itself; ``also`` names further
        fields the same transition bumps (an all-hit ASSEMBLED is also
        a ``cache_hits``). The fields are bumped under the bookkeeping
        lock (a RETRIED also adds its backoff, a COMPLETED its
        terminal status), a COMPLETED's wall time is observed into the
        ``service.job_seconds`` histogram, and the event — with
        ``fields`` as its payload — goes to the attached log."""
        is_event = transition.isupper()
        first = _EVENT_FIELD[transition] if is_event else transition
        bumped = (first, *also) if first is not None else also
        if bumped:
            with self._book_lock:
                for name in bumped:
                    setattr(self.stats, name,
                            getattr(self.stats, name) + 1)
                if transition == "RETRIED":
                    self.stats.backoff_seconds += fields["backoff"]
                elif transition == "COMPLETED":
                    self.stats.by_status[fields["status"]] += 1
        if transition == "COMPLETED":
            self._job_seconds.observe(fields["wall_seconds"])
        if is_event and self.events is not None:
            self.events.emit(
                transition, job_id=job.job_id if job is not None else None,
                **fields)

    def metrics_snapshot(self, **sections) -> Dict[str, object]:
        """The one fold: every component's scalars — ``engine.*``,
        ``cache.*`` and whatever ``sections`` the caller owns (the
        daemon's ``server=``) — folded in next to the distributions,
        as one versioned registry snapshot."""
        sections["engine"] = self.stats.as_dict()
        if self.cache is not None:
            sections["cache"] = self.cache.stats.as_dict()
        return self.metrics.snapshot(**sections)

    def _span(self, name: str, parent=None, tracer=None, **attributes):
        """One span as a context manager (flags "error" when the body
        raises), recorded by ``tracer`` (default: the engine's); yields
        None when tracing is disabled."""
        tracer = tracer or self.tracer
        if tracer is None:
            return nullcontext()
        return tracer.span(name, parent, attributes)

    # -- input memo ----------------------------------------------------------

    def _memoized(self, memo: OrderedDict, text: str, derive, *args):
        """The facts ``derive(text, *args)`` computes, once per text
        while it stays among the most recently used ones; with no
        ``derive`` (a caller that may not parse), None on a miss."""
        with self._book_lock:
            info = memo.get(text)
            if info is not None:
                memo.move_to_end(text)
        if info is not None or not derive:
            return info
        info = derive(text, *args)
        capacity = (self.cache.capacity if self.cache is not None
                    else _MEMO_CAPACITY)
        with self._book_lock:
            memo[text] = info
            while len(memo) > capacity:
                memo.popitem(last=False)
        return info

    def _derive_payload(self, text: str,
                        parsed: List[Operation]) -> _PayloadInfo:
        """The payload's facts; the module parsed for them goes into
        ``parsed``, given up to the one job that caused the parse."""
        payload = ir_parser.parse(text, "<payload>")
        parsed.append(payload)
        func_digests = module_attrs = None
        # The per-function facts are tier keys: no cache, no tier.
        tiered = self.function_tier and self.cache is not None
        functions = shardable_functions(payload) if tiered else None
        if functions is not None:
            func_digests = tuple(op_digest(f) for f in functions)
            module_attrs = dict(payload.attributes)
        return _PayloadInfo(op_digest(payload, func_digests),
                            attributes_digest(payload), module_attrs,
                            func_digests)

    def _derive_script(self, text: str) -> _ScriptInfo:
        script = ir_parser.parse(text, "<script>")
        return _ScriptInfo(
            op_digest(script),
            self.function_tier and is_func_shardable(script), script)

    def _lint(self, script: _ScriptInfo, entry_point: Optional[str],
              may_parse: bool = True) -> Optional[str]:
        """Static gate, memoized per (script text, entry point): the
        rendered errors, "" when clean (or not asked for) — None when
        the verdict is not memoized and the caller may not derive it."""
        verdict = script.verdicts.get(entry_point) if self.preflight else ""
        if verdict is None and may_parse:
            from ..analysis.lint import lint_script

            diagnostics = lint_script(script.op, entry_point=entry_point)
            verdict = diagnostics.render() if diagnostics.has_errors() else ""
            script.verdicts[entry_point] = verdict
        return verdict

    # -- the job pipeline ----------------------------------------------------

    def run_job(self, job: CompileJob, parent_span=None,
                payload: Optional[_PayloadInfo] = None,
                may_parse: bool = True) -> Optional[JobResult]:
        """Run one job through the pipeline; blocking.

        ``parent_span`` parents this job's trace under an existing
        span (the frontier's admission span, or a parent job's span
        for function-tier sub-jobs); with no parent the job span is a
        trace root. ``payload`` is given by a parent job for its
        function-tier sub-jobs: the input facts it composed for the
        shard (see :meth:`_assemble`). ``may_parse=False`` is
        :meth:`answer`.
        """
        start = time.perf_counter()
        # The payload module, if this job's memo miss parsed one: the
        # step that consumes it pops it, what is left is freed here.
        parsed: List[Operation] = []
        tracer = self.tracer
        if tracer is not None and not may_parse:
            # An attempt that cannot answer must leave no span behind:
            # record into a scratch tracer of the same trace (what a
            # pool worker does), absorbed below once there is a result.
            tracer = Tracer(tracer.trace_id)
        with self._span("engine.job", parent_span, tracer,
                        job_id=job.job_id) as span:
            result = self._front(job, span, parsed, payload, may_parse,
                                 tracer)
            if result is None:
                return None
            for module in parsed:
                module.destroy()
            result.wall_seconds = time.perf_counter() - start
            _mark(span, "ok" if result.ok else result.status.value,
                  cache_hit=result.cache_hit)
        if tracer is not self.tracer:
            self.tracer.record(tracer.spans())
        self._account(
            "COMPLETED", job, status=result.status.value,
            cache_hit=result.cache_hit, coalesced=result.coalesced,
            attempts=result.attempts, wall_seconds=result.wall_seconds,
        )
        return result

    def answer(self, job: CompileJob,
               parent_span=None) -> Optional[JobResult]:
        """:meth:`run_job` for a caller that must not block — the
        frontier at admission, on the event loop: the job's result when
        memory alone can answer it (both input texts in the memo, the
        lint verdict memoized, the whole-job entry in the cache's
        memory tier), accounted and traced exactly like any other; else
        None, and no counter, event or span says there was an attempt —
        the job queues."""
        return self.run_job(job, parent_span, may_parse=False)

    def _front(self, job: CompileJob, span, parsed: List[Operation],
               payload: Optional[_PayloadInfo], may_parse: bool, tracer):
        """Steps 1-3 — inputs, preflight verdict, cache — then, for a
        job they do not settle, on to :meth:`_run_steps`. A sub-job
        (``payload`` given) derives nothing and stays out of the
        whole-job tier: its one function entry is all anybody will
        ever ask for.

        Without ``may_parse`` only memory is consulted — the input
        memo, the memoized verdict, the cache's memory tier — and
        nothing is accounted (``tracer`` is then a scratch one) before
        the outcome is known to be terminal: None means it is not, and
        nothing was.
        """
        if may_parse:
            self._account("STARTED", job)
        # 1-2. inputs, preflight. Pool workers receive the *raw* text
        # — they parse and reprint themselves — so keying on digests
        # cannot change the output.
        cached = self.cache is not None and payload is None
        hit = None
        with self._span("engine.preflight", span, tracer):
            try:
                payload = payload or self._memoized(
                    self._payloads, job.payload_text,
                    may_parse and self._derive_payload, parsed)
                script = self._memoized(
                    self._scripts, job.script_text,
                    may_parse and self._derive_script)
            except Exception as error:
                errors = f"error: input does not parse: {error}"
            else:
                errors = payload and script and self._lint(
                    script, job.entry_point, may_parse)
        if errors is None:
            return None  # an input, or its verdict, memory does not hold
        if not errors:
            key = cache_key(payload.digest, script.digest, job.params,
                            job.entry_point)
            # 3. cache.
            if cached:
                with self._span("cache.lookup", span, tracer) as lookup_span:
                    hit = (self.cache.get(key) if may_parse
                           else self.cache.get(key, False, disk=False))
                    _mark(lookup_span, hit=hit is not None)
        if not may_parse:
            if not errors and hit is None:
                return None
            self._account("STARTED", job)
        if errors:
            self._account("REJECTED", job)
            return JobResult(job.job_id, JobStatus.REJECTED,
                             diagnostics=errors)
        if hit is not None:
            return self._cache_hit(job, key, hit)
        return self._run_steps(job, span, parsed, payload, script, key,
                               cached)

    def _run_steps(self, job: CompileJob, span, parsed: List[Operation],
                   payload: _PayloadInfo, script: _ScriptInfo, key: str,
                   cached: bool) -> JobResult:
        """Steps 4-7: each returns a terminal result or falls through
        to the next. ``cached``: the job reads and writes the whole-job
        tier (there is a cache and this is no sub-job)."""
        if self._cancelled.is_set():
            self._account("cancelled")
            return JobResult(job.job_id, JobStatus.CANCELLED)

        # 4. quarantine gate: content that repeatedly crashed or hung
        # its worker is refused before it can occupy (and kill) a worker.
        if self._quarantine.is_poisoned(key):
            return self._poisoned(job, key)

        # 5. single-flight: concurrent identical jobs share one
        # execution.
        with self._book_lock:
            flight = self._inflight.get(key)
            leader = flight is None
            if leader:
                flight = self._inflight[key] = Future()
        if not leader:
            return self._follow(job, key, flight, span)
        try:
            # Double-check after winning the in-flight slot: a previous
            # leader for this key may have populated the cache between
            # our (missed) lookup above and its in-flight pop. Without
            # this the duplicate recompiles; stats-neutral on a miss
            # (the first lookup already counted it).
            hit = self.cache.get(key, count_miss=False) if cached else None
            if hit is not None:
                result = self._cache_hit(job, key, hit)
            else:
                # 6. function tier | dispatch, then 7. publish.
                tier_keys = self._function_keys(job, payload, script)
                result = self._assemble(job, key, payload, tier_keys, span,
                                        parsed)
                if result is None:
                    result = self._execute(job, key, span, payload,
                                           tier_keys, script, parsed)
                if cached and result.ok:
                    self.cache.put(key, CachedResult(
                        result.status.value, result.output or "",
                        result.diagnostics, result.output_digest,
                        uses=tuple(tier_keys or ()),
                    ))
            flight.set_result(result)
            return result
        except BaseException as error:
            flight.set_exception(error)
            raise
        finally:
            with self._book_lock:
                self._inflight.pop(key, None)

    # -- terminal results of the front-end steps -----------------------------

    def _cache_hit(self, job: CompileJob, key: str,
                   cached: CachedResult) -> JobResult:
        """The cached result of ``key`` as this job's result."""
        self._account("CACHE_HIT", job, key=key)
        return JobResult(
            job.job_id, JobStatus(cached.status), output=cached.output,
            diagnostics=cached.diagnostics, key=key, cache_hit=True,
            output_digest=cached.output_digest,
        )

    def _poisoned(self, job: CompileJob, key: str,
                  attempts: int = 0) -> JobResult:
        self._account("POISONED", job, key=key)
        return JobResult(
            job.job_id, JobStatus.POISONED, key=key,
            diagnostics=self._quarantine.diagnose(key), attempts=attempts,
        )

    def _follow(self, job: CompileJob, key: str, flight: Future,
                span) -> JobResult:
        """Wait for the leader of ``key`` and adopt its outcome (a
        follower is neither a cache hit nor an execution of its own)."""
        with self._span("singleflight.wait", span):
            led: JobResult = flight.result()
        self._account(
            "COALESCED", job, key=key, leader_status=led.status.value,
            also=(("quarantined",) if led.status is JobStatus.POISONED
                  else ()),
        )
        return replace(led, job_id=job.job_id, key=key, coalesced=True,
                       cache_hit=False, wall_seconds=0.0,
                       stats=dict(led.stats))

    # -- function tier -------------------------------------------------------

    def _function_keys(self, job: CompileJob, payload: _PayloadInfo,
                       script: _ScriptInfo) -> Optional[List[str]]:
        """The job's per-function cache keys, in function order; None
        when the function tier must stay out of this job."""
        # No cache, no ``func_digests`` (see :meth:`_derive_payload`).
        if (not script.func_shardable or not payload.func_digests
                or job.entry_point is not None):
            return None
        return [function_key(digest, script.digest, job.params)
                for digest in payload.func_digests]

    def _assemble(self, job: CompileJob, key: str, payload: _PayloadInfo,
                  tier_keys: Optional[List[str]], span,
                  parsed: List[Operation]) -> Optional[JobResult]:
        """Serve a multi-function job from per-function cache entries.

        Functions whose entry is present are reused; the rest are
        compiled as single-function sub-jobs through :meth:`run_job` —
        which gives them the whole pipeline for free (single-flight
        dedup against other parents missing the same function, crash
        containment, retry) and lets their own populate pass fill the
        tier, where this job then reads them. A sub-job's payload is
        its function printed off the module in hand — ``parsed``, or
        one parse of the text when the memo already knew it — and its
        input facts are composed from the parent's, so the daemon
        parses a partial hit once. The entries are spliced as text
        and their digests composed; no output IR exists here, so
        nothing is verified here — an entry is the print of IR that
        passed ``verify()`` in the worker that made it, and
        :meth:`_populate` stores clean successes only. Returns None
        whenever anything is less than a clean success — the caller
        falls back to the whole-module execution path, keeping
        silenceable-skip semantics whole-module.
        """
        # A single-function payload's shard is itself: tier lookup
        # would recurse onto this very job.
        if tier_keys is None or len(tier_keys) < 2:
            return None
        entries: List[Optional[CachedResult]] = [
            entry if entry is not None and entry.splices else None
            for entry in map(self.cache.get_function, tier_keys)]
        missing = [i for i, entry in enumerate(entries) if entry is None]
        if len(missing) == len(entries):
            # Nothing to reuse: the whole-module path is strictly
            # better (one execution instead of N).
            return None
        if missing:
            module = (parsed.pop() if parsed
                      else ir_parser.parse(job.payload_text, "<payload>"))
            functions = module.regions[0].entry_block.ops
            shards = [function_text(functions[index]) for index in missing]
            module.destroy()  # before a worker is waited for
            for index, shard in zip(missing, shards):
                digest = payload.func_digests[index]
                # The sub-job's input facts — everything the input step
                # would derive by parsing the shard — are composed from
                # what the parent knows, and handed over.
                self.run_job(
                    replace(job, payload_text=shard,
                            job_id=f"{job.job_id}/fn{index}"), span,
                    _PayloadInfo(*function_text_digests(digest), {},
                                 (digest,)))
                # All a sub-job leaves is the entry its execution
                # published — text, names, digest of the function
                # itself — and only a clean success publishes one
                # (:meth:`_populate`): that is what gets spliced.
                entry = self.cache.get_function(tier_keys[index],
                                                count=False)
                if entry is None or not entry.splices:
                    return None
                entries[index] = entry
        attrs = payload.module_attrs or {}
        try:
            output = assemble_functions(
                attrs, [entry.output for entry in entries],
                names=[entry.names for entry in entries])[0]
        except ValueError:
            # Text that is not an entry (a decodable but damaged disk
            # file): compile the module whole instead.
            return None
        output_digest = module_digest(
            attrs, [entry.output_digest for entry in entries])
        self._account("ASSEMBLED", job, key=key, cache_hit=not missing,
                      also=() if missing else ("cache_hits",))
        return JobResult(
            job.job_id, JobStatus.SUCCESS, output=output, key=key,
            cache_hit=not missing, function_tier=True,
            output_digest=output_digest,
        )

    def _populate(self, raw: Mapping[str, object], payload: _PayloadInfo,
                  tier_keys: Optional[List[str]]) -> None:
        """After a clean whole-module success, store each output
        function under its *input* function's key.

        The entries are ``raw["functions"]``: the worker printed and
        digested each function off the transformed module while it was
        still IR (see :func:`repro.service.worker.compile_job`), so
        nothing is parsed here, and each is stored under the names it
        was printed with. Guarded by backstops behind the gate: the
        output must still be an all-function module (else the worker
        sent None) with unchanged
        module attributes (its digest equals the *input's*) and an
        unchanged function count — anything else means the schedule
        escaped the function-local contract, and nothing is stored."""
        functions = raw["functions"]
        if (tier_keys is None or functions is None
                or raw["status"] != "success" or raw["diagnostics"]
                or raw["attrs_digest"] != payload.attrs_digest
                or len(functions) != len(tier_keys)):
            return
        for tier_key, (text, digest, names) in zip(tier_keys, functions):
            self.cache.put_function(
                tier_key, CachedResult("success", text, "", digest, names))

    # -- dispatch ------------------------------------------------------------

    def _handle_pool_failure(self, job: CompileJob, key: str,
                             worker: _Worker, status: str,
                             error: BaseException, attempts: int,
                             timeout: Optional[float]) -> Optional[JobResult]:
        """One failed pool attempt (``"timeout"`` or ``"crashed"``) of
        the job whose call was sent to ``worker``: replace that worker,
        charge the job, then apply policy.

        Returns the terminal result — TIMEOUT/CRASHED as observed, or
        POISONED when this failure tripped the circuit breaker — or
        None when the retry policy granted another attempt (the
        deterministic backoff has already been slept here)."""
        # A hung worker would keep executing the job and starve the
        # pool: killing it reclaims the slot.
        worker.pool.replace(worker)
        if status == "timeout":
            event, fields = "TIMEOUT", {"deadline": timeout}
            diagnostics = (f"error: job exceeded its {timeout:g}s deadline; "
                           "hung worker killed and replaced")
        else:
            event, fields = "CRASHED", {}
            diagnostics = ("error: worker process died while compiling "
                           f"this job (x{attempts}): {error}")
        self._account(event, job, key=key, attempt=attempts, **fields)
        self._quarantine.record_failure(key, status)
        if self._quarantine.is_poisoned(key):
            return self._poisoned(job, key, attempts)
        if self.retry_policy.should_retry(status, attempts):
            backoff = self.retry_policy.backoff_seconds(key, attempts)
            self._account("RETRIED", job, key=key, failure=status,
                          attempt=attempts, backoff=backoff)
            if backoff > 0:
                time.sleep(backoff)
            return None
        return JobResult(job.job_id, JobStatus(status), key=key,
                         diagnostics=diagnostics, attempts=attempts)

    def _execute(self, job: CompileJob, key: str, span,
                 payload: _PayloadInfo, tier_keys: Optional[List[str]],
                 script: _ScriptInfo,
                 parsed: List[Operation]) -> JobResult:
        """Actually run the job on a worker (or inline), with timeout
        handling and policy-driven crash/timeout containment. With
        ``tier_keys`` the worker also splits its output into
        function-tier entries, published here (:meth:`_populate`)
        while the raw result is in hand. ``parsed`` holds the payload
        module this thread parsed for this job, if it did: the inline
        execution consumes it instead of parsing the text again.

        Each attempt gets its own ``engine.dispatch`` child span; the
        worker receives that span's ids (``trace=``) so the spans
        it records in its own process — parse, interpret with one
        child per top-level transform op, print — come back in the
        result payload already parented under this attempt, and
        :meth:`Tracer.record` stitches them into the engine-side trace.
        """
        timeout = job.timeout if job.timeout is not None else self.job_timeout
        for attempts in itertools.count(1):
            with self._span("engine.dispatch", span, job_id=job.job_id,
                            attempt=attempts) as attempt_span:
                trace = attempt_span and (attempt_span.trace_id,
                                         attempt_span.span_id)
                pool = self._pool
                self._account("DISPATCHED", job, key=key, attempt=attempts,
                              pooled=pool is not None)
                failure: Optional[Tuple[str, BaseException]] = None
                try:
                    # No worker without a pool, nor when the pool closed
                    # while this waited for one: that is not an attempt.
                    worker = pool and pool.submit(
                        compile_job, job.payload_text, job.script_text,
                        job.params, job.entry_point,
                        self.faults and self.faults.worker_fault(
                            key, attempts),
                        trace, tier_keys is not None)
                    if worker is not None:
                        if self.faults is not None and self.faults.fire(
                                FaultSite.POOL_BREAK,
                                f"{key}#attempt{attempts}"):
                            # Externally induced pool collapse (OOM
                            # killer): every worker dies, and each job
                            # finds its own worker dead.
                            for each in pool.workers:
                                each.process.kill()
                        raw = worker.result(timeout=timeout)
                except TimeoutError as error:
                    failure = ("timeout", error)
                except BrokenProcessPool as error:
                    failure = ("crashed", error)
                except Exception as error:
                    # An infrastructure failure outside the worker
                    # barrier (e.g. unpicklable input; compile_job
                    # encodes everything else itself): classify, don't
                    # crash the service.
                    _mark(attempt_span, "error")
                    return JobResult(
                        job.job_id, JobStatus.DEFINITE, key=key,
                        diagnostics=f"error: {type(error).__name__}: {error}",
                        attempts=attempts,
                    )
                if worker is None:
                    # workers=0 reference mode, or the engine degraded
                    # after crash-loop detection. Worker faults are never
                    # injected here: an in-process os._exit would take the
                    # whole service down, which is exactly what the pool
                    # boundary exists to prevent. The inline attempt is
                    # always the job's last (nothing in it can fail into
                    # a retry), so ``parsed`` is consumed at most once.
                    raw = compile_job(
                        parsed.pop() if parsed else job.payload_text,
                        script.op.clone(), job.params, job.entry_point,
                        trace=trace, function_tier=tier_keys is not None)
                if failure is None:
                    self._account("executed")
                    if attempt_span is not None:
                        # Absorb the worker-side spans (already parented
                        # under this attempt via the propagated ids).
                        self.tracer.record(raw.get("spans"))
                    _mark(attempt_span, "ok" if raw["status"] == "success"
                          else str(raw["status"]))
                    self._populate(raw, payload, tier_keys)
                    return JobResult(
                        job.job_id, JobStatus(raw["status"]),
                        output=raw["output"],
                        diagnostics=raw["diagnostics"], key=key,
                        worker_seconds=raw["wall_seconds"],
                        attempts=attempts, stats=dict(raw["stats"]),
                        output_digest=raw.get("output_digest"),
                    )
                _mark(attempt_span, failure[0])
            # The attempt's span is closed: policy time (worker
            # replacement, backoff sleep) is not dispatch time.
            result = self._handle_pool_failure(
                job, key, worker, *failure, attempts, timeout)
            if result is not None:
                return result
