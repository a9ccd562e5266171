"""The service's one admission queue.

:class:`ServiceFrontier` is the single place that decides in what
order, and how many, undispatched jobs wait: a bounded
``asyncio.PriorityQueue`` in front of the engine, ordered by priority
class (:data:`PRIORITY_RANKS`) and then by arrival. Producers
``await submit(...)`` — when the queue is full they block (in arrival
order), which *is* the backpressure mechanism: admission slows to the
rate workers drain the queue instead of buffering unboundedly. A job
the engine can answer from memory (:meth:`CompileEngine.answer`: inputs
memoized, result cached) is answered at admission and never queues. A
small set of dispatcher tasks pops the others and runs
:meth:`CompileEngine.run_job` on a private thread pool (the engine
call blocks on the process pool; threads keep the event loop free).
Nothing already dispatched is ever preempted.

Both front doors share this queue: ``repro-batch`` (local mode) and
the ``repro-serve`` daemon; their CLIs live in
:mod:`repro.service.cli` and :mod:`repro.service.server`.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence

from dataclasses import dataclass, field

from ..observability.metrics import DEPTH_BUCKETS
from ..testing.faults import FaultPlan, FaultSite
from .engine import CompileEngine, CompileJob, JobResult

#: Priority classes in rank order (lower rank dispatches first).
PRIORITY_RANKS: Dict[str, int] = {
    "interactive": 0,
    "batch": 1,
    "background": 2,
}

#: Shutdown sentinels rank behind every class, so ``close()`` drains
#: all admitted work before the dispatchers see them. Queue entries
#: are ``(rank, arrival seq, item-or-None)``; the unique ``seq`` keeps
#: the comparison from ever reaching the third field.
_SENTINEL_RANK = len(PRIORITY_RANKS)


@dataclass
class _QueueItem:
    """One admitted job in flight between ``submit`` and a dispatcher.

    ``taken`` is the single-ownership flag between the three parties
    that may finish an item — a dispatcher popping it, a racing
    ``submit`` refusing it after losing the close race, and ``close``
    draining leftovers stranded behind the shutdown sentinels. All
    three run on the event loop, so flipping the flag is atomic; the
    first to flip it owns the item's future, spans, and depth count.
    """

    job: CompileJob
    future: asyncio.Future
    root: object = None
    wait: object = None
    taken: bool = field(default=False)


class ServiceClosedError(RuntimeError):
    """Raised by :meth:`ServiceFrontier.submit` once the frontier has
    begun (or finished) closing: the dispatchers are draining toward
    their shutdown sentinels, so a newly enqueued job would sit behind
    them forever and its submitter would hang. Subclasses
    ``RuntimeError`` so pre-existing broad handlers keep working."""


class ServiceFrontier:
    """Bounded-queue asyncio admission layer over a
    :class:`~repro.service.engine.CompileEngine`.

    Use as an async context manager::

        async with ServiceFrontier(engine, max_queue=32) as frontier:
            results = await asyncio.gather(
                *(frontier.submit(job) for job in jobs)
            )
    """

    def __init__(self, engine: CompileEngine, max_queue: int = 64,
                 dispatchers: Optional[int] = None):
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.engine = engine
        self.max_queue = max_queue
        self.dispatchers = dispatchers or max(engine.workers, 1)
        self._queue: Optional[asyncio.PriorityQueue] = None
        self._seq = itertools.count()
        self._tasks: List[asyncio.Task] = []
        self._threads: Optional[ThreadPoolExecutor] = None
        self._depth = 0
        self._depth_lock = threading.Lock()
        self._depth_samples = engine.metrics.histogram(
            "service.queue_depth", DEPTH_BUCKETS)
        self._depth_now = engine.metrics.gauge("service.queue_depth_current")
        self._closing = False

    # -- lifecycle -----------------------------------------------------------

    async def __aenter__(self) -> "ServiceFrontier":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def start(self) -> None:
        if self._queue is not None:
            return
        self._closing = False
        self._queue = asyncio.PriorityQueue(maxsize=self.max_queue)
        self._threads = ThreadPoolExecutor(
            max_workers=self.dispatchers,
            thread_name_prefix="repro-dispatch",
        )
        self._tasks = [
            asyncio.create_task(self._dispatch(), name=f"dispatch-{i}")
            for i in range(self.dispatchers)
        ]

    async def close(self) -> None:
        """Drain the queue, stop dispatchers, release the thread pool.

        Jobs admitted before ``close()`` are still drained to
        completion; ``submit()`` calls arriving from here on raise
        :class:`ServiceClosedError` — enqueueing behind the shutdown
        sentinels would hang the submitter forever. A submit that
        *races* the close (already past its closed check, parked in
        ``queue.put``) is refused the same way: its spans are ended,
        its future fails with :class:`ServiceClosedError`, and any
        copy stranded in the queue is drained here, never dispatched
        and never leaked."""
        if self._queue is None:
            return
        self._closing = True
        for _ in self._tasks:
            await self._queue.put(
                (_SENTINEL_RANK, next(self._seq), None)
            )
        await asyncio.gather(*self._tasks, return_exceptions=True)
        # A submit() parked in queue.put() while the sentinels went in
        # can land after the dispatchers have consumed them and
        # exited. Any job stranded that way would never be dispatched
        # and its submitter would await its future forever — refuse
        # them now instead.
        while not self._queue.empty():
            item = self._queue.get_nowait()[2]
            if item is None or item.taken:
                continue
            self._refuse(item)
        self._tasks = []
        if self._threads is not None:
            self._threads.shutdown(wait=True)
            self._threads = None
        self._queue = None

    # -- admission -----------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        with self._depth_lock:
            return self._depth

    def _edge(self, item: _QueueItem, delta: int, event: str,
              span_status: str = "ok", **fields) -> None:
        """One queue edge, told to every observer at once: move the
        depth counter by ``delta``, sample it into the engine's
        ``service.queue_depth`` histogram and current-depth gauge, end
        the ``queue.wait`` span when the job leaves the queue, and
        emit ``event`` carrying the new depth. Depth is sampled on
        *both* edges: enqueue sees the rising slope (how deep
        backpressure let the queue grow), dequeue the falling one
        (how fast dispatchers drain it)."""
        with self._depth_lock:
            self._depth += delta
            depth = self._depth
        self._depth_samples.observe(depth)
        self._depth_now.set(depth)
        tracer = getattr(self.engine, "tracer", None)
        if tracer is not None and delta < 0:
            tracer.end_span(item.wait, span_status)
        events = getattr(self.engine, "events", None)
        if events is not None:
            events.emit(event, job_id=item.job.job_id, depth=depth,
                        **fields)

    async def submit(self, job: CompileJob,
                     priority: str = "batch") -> JobResult:
        """Admit one job and await its result.

        ``priority`` names a class in :data:`PRIORITY_RANKS`; queued
        jobs dispatch by rank, then arrival (unknown class:
        ``ValueError``). Blocks (asynchronously) while the queue is
        full — backpressure propagates to the producer rather than
        growing a buffer. Raises :class:`ServiceClosedError` once
        :meth:`close` has begun (a job enqueued behind the shutdown
        sentinels would never be dispatched and this coroutine would
        hang forever).
        """
        if priority not in PRIORITY_RANKS:
            raise ValueError(
                f"unknown priority {priority!r} "
                f"(choose from: {', '.join(PRIORITY_RANKS)})"
            )
        if self._closing:
            raise ServiceClosedError(
                "frontier is closed (or draining); submit() rejected"
            )
        if self._queue is None:
            raise RuntimeError("frontier is not started")
        # Admission is where a job's trace is rooted: the root span
        # covers the whole frontier residency (queue wait + engine),
        # and ``queue.wait`` — ended by the dispatcher that pops the
        # job — measures admission-to-dispatch latency alone.
        tracer = getattr(self.engine, "tracer", None)
        root = wait = None
        if tracer is not None:
            root = tracer.start_span(
                f"job:{job.job_id}", attributes={"job_id": job.job_id}
            )
        # What the engine's memory can answer is answered here, on the
        # event loop: a hit takes no queue slot and no thread hop.
        answer = getattr(self.engine, "answer", None)
        result = answer(job, root) if answer is not None else None
        if result is not None:
            if tracer is not None:
                tracer.end_span(
                    root, "ok" if result.ok else result.status.value)
            return result
        if tracer is not None:
            wait = tracer.start_span(
                "queue.wait", parent=root,
                attributes={"job_id": job.job_id},
            )
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        item = _QueueItem(job, future, root, wait)
        # Count the job before it is visible to dispatchers — the
        # other order lets a dispatcher pop and decrement first,
        # driving the counter (and the queue-depth samples) transiently
        # negative.
        self._edge(item, +1, "ADMITTED")
        try:
            await self._queue.put(
                (PRIORITY_RANKS[priority], next(self._seq), item)
            )
        except BaseException:
            with self._depth_lock:
                self._depth -= 1
            if tracer is not None:
                tracer.end_span(wait, "error")
                tracer.end_span(root, "error")
            raise
        if self._closing and not item.taken:
            # Lost the race with close(): the check at the top passed,
            # but close() began while this coroutine was parked in
            # queue.put(), and the dispatchers may already have
            # consumed their shutdown sentinels and exited. A
            # dispatcher that already claimed the item (taken) will
            # still complete it; otherwise refuse it here so the await
            # below raises instead of hanging forever.
            self._refuse(item)
        return await future

    def _refuse(self, item: _QueueItem) -> None:
        """Terminate a refused admission: end its spans with an error,
        emit the terminal event, and fail its future. Runs on the
        event loop only; the caller must not have ceded ownership
        (``item.taken``) to a dispatcher."""
        item.taken = True
        # Every refusal path must end what admission started, or the
        # exported trace carries spans that never finished
        # (validate_chrome_trace flags the children as orphans).
        self._edge(item, -1, "COMPLETED", "error",
                   status="cancelled", refused=True)
        tracer = getattr(self.engine, "tracer", None)
        if tracer is not None:
            tracer.end_span(item.root, "error")
        if not item.future.done():
            item.future.set_exception(ServiceClosedError(
                "frontier closed while the job was being admitted; "
                "the job was refused before dispatch"
            ))

    async def run(self, jobs: Sequence[CompileJob]) -> List[JobResult]:
        """Submit all jobs (respecting backpressure) and gather results
        in submission order."""
        return list(await asyncio.gather(
            *(self.submit(job) for job in jobs)
        ))

    # -- dispatch ------------------------------------------------------------

    async def _dispatch(self) -> None:
        loop = asyncio.get_running_loop()
        assert self._queue is not None
        while True:
            item = (await self._queue.get())[2]
            if item is None:
                return
            if item.taken:
                # Refused by a racing submit()/close() that already
                # ended the spans and failed the future; nothing left
                # to do (depth was settled by the refuser too).
                continue
            item.taken = True
            job, future, root = item.job, item.future, item.root
            self._edge(item, -1, "DEQUEUED")
            tracer = getattr(self.engine, "tracer", None)
            if future.done():
                if tracer is not None:
                    tracer.end_span(root, "cancelled")
                continue
            faults: Optional[FaultPlan] = getattr(
                self.engine, "faults", None
            )
            if faults is not None and faults.fire(
                    FaultSite.QUEUE_STALL, job.job_id):
                # Injected dispatcher stall: the job sits decoded but
                # undispatched, as under a briefly wedged event loop.
                await asyncio.sleep(faults.stall_seconds)
            run = (functools.partial(self.engine.run_job, job,
                                     parent_span=root)
                   if tracer is not None
                   else functools.partial(self.engine.run_job, job))
            try:
                result = await loop.run_in_executor(self._threads, run)
            except Exception as error:  # defensive: surface, don't hang
                if tracer is not None:
                    root.attributes["exception"] = (
                        f"{type(error).__name__}: {error}"
                    )
                    tracer.end_span(root, "error")
                if not future.done():
                    future.set_exception(error)
                continue
            if tracer is not None:
                tracer.end_span(
                    root, "ok" if result.ok else result.status.value
                )
            if not future.done():
                future.set_result(result)
