"""The service's one scheduler.

:class:`ServiceFrontier` is the single place that decides in what
order, and how many, jobs run. A job the engine can answer from memory
(:meth:`CompileEngine.answer`: inputs memoized, result cached) is
answered at admission (:meth:`ServiceFrontier.admit`, which ``submit``
and the daemon's connection reader call) and never queues. Every other
job takes a place in a heap ordered by priority class
(:data:`PRIORITY_RANKS`) and then by arrival, and waits there for one
of ``max(engine.workers, 1)`` dispatch slots; with the slot, the rest
of its route runs :meth:`CompileEngine.run_job` on a private thread
pool (the engine call blocks on a worker's pipe; threads keep the event
loop free). Nothing
already dispatched is ever preempted, and a slot is freed when the
engine call returns, so the thread pool is never oversubscribed.

At most ``max_queue`` jobs wait in the heap; further submitters block
(in arrival order) before they get a place, which *is* the
backpressure mechanism: admission slows to the rate slots drain the
heap instead of buffering unboundedly. :meth:`ServiceFrontier.close`
refuses new submits and waits until every admitted job has finished.

Both front doors share this scheduler: ``repro-batch`` (local mode) and
the ``repro-serve`` daemon; their CLIs live in
:mod:`repro.service.cli` and :mod:`repro.service.server`.
"""

from __future__ import annotations

import asyncio
import functools
import heapq
import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from ..observability.metrics import DEPTH_BUCKETS
from ..testing.faults import FaultSite
from .engine import CompileEngine, CompileJob, JobResult

#: Priority classes in rank order (lower rank dispatches first).
PRIORITY_RANKS: Dict[str, int] = {
    "interactive": 0,
    "batch": 1,
    "background": 2,
}


class ServiceClosedError(RuntimeError):
    """Raised by :meth:`ServiceFrontier.submit` once the frontier has
    begun (or finished) closing. Subclasses ``RuntimeError`` so
    pre-existing broad handlers keep working."""


class ServiceFrontier:
    """Priority-slot asyncio scheduler over a
    :class:`~repro.service.engine.CompileEngine`.

    Use as an async context manager::

        async with ServiceFrontier(engine, max_queue=32) as frontier:
            results = await frontier.run(jobs)
    """

    def __init__(self, engine: CompileEngine, max_queue: int = 64):
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.engine = engine
        self.max_queue = max_queue
        self.slots = max(engine.workers, 1)
        self._free = self.slots
        #: The queue: a heap of ``(rank, arrival, waiter)``; setting a
        #: waiter's result hands its job a slot.
        self._waiting: List[Tuple[int, int, asyncio.Future]] = []
        self._seq = itertools.count()
        self._room: Optional[asyncio.Semaphore] = None
        self._threads: Optional[ThreadPoolExecutor] = None
        #: Set when no admitted job is queued or holds a slot.
        self._idle: Optional[asyncio.Event] = None
        self._depth = 0
        self._depth_samples = engine.metrics.histogram(
            "service.queue_depth", DEPTH_BUCKETS)
        engine.metrics.gauges.setdefault("service.queue_depth_current", 0)
        self._closing = False

    # -- lifecycle -----------------------------------------------------------

    async def __aenter__(self) -> "ServiceFrontier":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def start(self) -> None:
        if self._threads is not None:
            return
        self._closing = False
        self._room = asyncio.Semaphore(self.max_queue)
        self._idle = asyncio.Event()
        self._idle.set()
        self._threads = ThreadPoolExecutor(
            max_workers=self.slots, thread_name_prefix="repro-dispatch")

    async def close(self) -> None:
        """Refuse new submits, wait until every admitted job has
        finished, then release the thread pool. Idempotent."""
        if self._threads is None:
            return
        self._closing = True
        await self._idle.wait()
        if self._threads is not None:
            self._threads.shutdown(wait=True)
            self._threads = None

    # -- admission -----------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return self._depth

    def _edge(self, job: CompileJob, delta: int, event: str, wait=None,
              span_status: str = "ok", **fields) -> None:
        """One queue edge, told to every observer at once: move the
        depth counter by ``delta``, sample it into the engine's
        ``service.queue_depth`` histogram and current-depth gauge, end
        the ``queue.wait`` span when the job leaves the queue, and
        emit ``event`` carrying the new depth. Depth is sampled on
        *both* edges: admission sees the rising slope (how deep
        backpressure let the queue grow), dequeue the falling one
        (how fast slots drain it). Runs on the event loop only."""
        self._depth += delta
        if delta > 0:
            self._idle.clear()
        elif not self._depth and self._free == self.slots:
            self._idle.set()
        self._depth_samples.observe(self._depth)
        self.engine.metrics.gauges["service.queue_depth_current"] = self._depth
        tracer = getattr(self.engine, "tracer", None)
        if tracer is not None and delta < 0:
            tracer.end_span(wait, span_status)
        events = getattr(self.engine, "events", None)
        if events is not None:
            events.emit(event, job_id=job.job_id, depth=self._depth,
                        **fields)

    async def submit(self, job: CompileJob,
                     priority: str = "batch") -> JobResult:
        """Admit one job (:meth:`admit`) and await its result. Blocks
        (asynchronously) while the queue is full — backpressure
        propagates to the producer rather than growing a buffer."""
        return await self.admit(job, priority)

    def admit(self, job: CompileJob,
              priority: str = "batch") -> "asyncio.Future[JobResult]":
        """Admission, synchronous, on the event loop: the job's future
        result — done already when the engine's memory answered, else
        the task that queues the job and runs it in a dispatch slot.

        ``priority`` names a class in :data:`PRIORITY_RANKS`; queued
        jobs take slots by rank, then arrival (unknown class:
        ``ValueError``). Raises :class:`ServiceClosedError` once
        :meth:`close` has begun; a job admitted before that completes.
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
        if self._threads is None:
            raise RuntimeError("frontier is not started")
        # Admission is where a job's trace is rooted: the root span
        # covers the whole frontier residency (queue wait + engine),
        # and ``queue.wait`` — ended when the job gets its slot —
        # measures admission-to-dispatch latency alone.
        tracer = getattr(self.engine, "tracer", None)
        root = wait = None
        if tracer is not None:
            root = tracer.start_span(
                f"job:{job.job_id}", attributes={"job_id": job.job_id}
            )
        # What the engine's memory can answer is answered here, on the
        # event loop: a hit takes no queue place and no thread hop.
        answer = getattr(self.engine, "answer", None)
        result = answer(job, root) if answer is not None else None
        if result is not None:
            if tracer is not None:
                tracer.end_span(
                    root, "ok" if result.ok else result.status.value)
            answered = asyncio.get_running_loop().create_future()
            answered.set_result(result)
            return answered
        if tracer is not None:
            wait = tracer.start_span(
                "queue.wait", parent=root,
                attributes={"job_id": job.job_id},
            )
        return asyncio.ensure_future(
            self._queued(job, priority, tracer, root, wait))

    async def _queued(self, job: CompileJob, priority: str, tracer, root,
                      wait) -> JobResult:
        self._edge(job, +1, "ADMITTED")
        loop = asyncio.get_running_loop()
        waiter = loop.create_future()
        try:
            async with self._room:
                heapq.heappush(self._waiting, (
                    PRIORITY_RANKS[priority], next(self._seq), waiter))
                self._hand_off()
                await waiter
        except BaseException:
            if waiter.done() and not waiter.cancelled():
                self._release()  # handed a slot just as it was cancelled
            # Cancelled before it ran: the job leaves the queue here,
            # with its one terminal event.
            self._edge(job, -1, "COMPLETED", wait, "error",
                       status="cancelled")
            if tracer is not None:
                tracer.end_span(root, "error")
            raise
        self._edge(job, -1, "DEQUEUED", wait)
        faults = getattr(self.engine, "faults", None)
        stall = (faults.stall_seconds if faults is not None and faults.fire(
            FaultSite.QUEUE_STALL, job.job_id) else 0)
        future = loop.run_in_executor(
            self._threads, self._run, job, root, stall)
        # The slot is the engine call's, not the submitter's: it is
        # freed when the call returns, even if the submitter was
        # cancelled meanwhile.
        future.add_done_callback(functools.partial(self._ran, root))
        return await asyncio.shield(future)

    def _hand_off(self) -> None:
        """Give every free slot to the first live waiter in (rank,
        arrival) order; waiters cancelled while queued are dropped."""
        while self._free and self._waiting:
            waiter = heapq.heappop(self._waiting)[2]
            if not waiter.done():
                self._free -= 1
                waiter.set_result(None)

    def _release(self) -> None:
        self._free += 1
        self._hand_off()
        if not self._depth and self._free == self.slots:
            self._idle.set()

    def _run(self, job: CompileJob, root, stall: float) -> JobResult:
        if stall:
            # Injected stall: the job holds its slot before the engine
            # sees it, as behind a briefly wedged event loop.
            time.sleep(stall)
        if root is None:
            return self.engine.run_job(job)
        return self.engine.run_job(job, parent_span=root)

    def _ran(self, root, future: asyncio.Future) -> None:
        self._release()
        tracer = getattr(self.engine, "tracer", None)
        if tracer is None:
            return
        error = future.exception()
        if error is not None:
            root.attributes["exception"] = f"{type(error).__name__}: {error}"
            tracer.end_span(root, "error")
        else:
            result = future.result()
            tracer.end_span(root, "ok" if result.ok else result.status.value)

    async def run(self, jobs: Sequence[CompileJob]) -> List[JobResult]:
        """Admit every job, in order and before any of them runs — what
        memory answers is settled then — and gather the results
        (respecting backpressure) in submission order."""
        return list(await asyncio.gather(*[self.admit(job) for job in jobs]))
