"""``repro-serve``: the persistent compile daemon.

A single :class:`CompileServer` keeps one warm
:class:`~repro.service.engine.CompileEngine` (worker pool + caches)
alive across many clients, so only the first batch ever pays pool
spawn and a cold cache. The wire protocol stays at the same
"ordinary IR in, ordinary IR out" altitude as the rest of the stack:
frames over a Unix or TCP socket, each a JSON header line followed by
the UTF-8 bytes of its IR text (:mod:`repro.service.wire`), every
response frame echoing the request ``id`` so one connection can
multiplex concurrent submits.

Requests (``op`` field; ``payload`` and ``script`` are shown inline,
as a plain JSON line may carry them, but the clients send them as body
bytes)::

    {"op": "submit", "id": "1", "payload": "...", "script": "...",
     "params": {"factor": 4}, "entry_point": null,
     "priority": "interactive", "stream": true}
    {"op": "stats", "id": "2"}
    {"op": "ping", "id": "3"}
    {"op": "drain", "id": "4"}            # finish admitted, refuse new
    {"op": "drain", "id": "4", "stop": true}   # ... then exit
    {"op": "reload", "id": "5", "cache_dir": "/tmp/c2",
     "max_attempts": 3}                   # drain, hot-swap, resume

``payload`` and ``script`` are always text: the daemon opens no file a
client names.

Responses (``type`` field): ``result`` (terminal job outcome, its
``output`` as body bytes),
``event`` (one streamed lifecycle record from the closed
:data:`~repro.observability.events.EVENT_TYPES` vocabulary, when the
submit asked for ``stream``), ``stats``/``pong``/``drained``/
``reloaded``, and ``error`` with a machine-readable ``code``:
``draining`` (submits refused during drain), ``quota`` (per-client
admission quota exhausted), ``bad-request``, and ``internal``. A frame
the daemon cannot read past (a header line over 64 KiB, a bad body
length) gets ``bad-request`` and the connection is closed.

Scheduling: submits carry a priority class (``interactive`` <
``batch`` < ``background`` by rank) and go straight into the
frontier, the one scheduler (:mod:`repro.service.frontier`), which
hands dispatch slots out by class and then arrival: an interactive job overtakes
every queued batch job without preempting anything already
dispatched (a job the engine can answer from memory — a cache hit on
memoized inputs — is answered at admission and never queues). The
daemon keeps no queue of its own; what it adds in
front is what guards outside input — request validation, the
per-client quota (advertised as ``client_quota`` in ``pong`` so
clients can window their submits), drain, and unique job ids.

Shutdown contract: SIGTERM (or ``drain {"stop": true}``) finishes
every admitted job, refuses new submits with ``code="draining"``,
flushes trace/event exports, and exits 0 — the same
refuse-never-hang contract :class:`ServiceFrontier` itself honours
for close/submit races.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import signal
import sys
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

from ..observability.events import TERMINAL_EVENTS, EventLog
from .cli import add_engine_arguments, build_engine, shutdown_engine
from .engine import CompileEngine, CompileJob, JobResult, check_timeout
from .frontier import PRIORITY_RANKS, ServiceClosedError, ServiceFrontier
from .wire import FrameError, MAX_HEADER_BYTES, encode_frame, read_frame_async

#: JobResult fields serialized into a ``result`` frame.
RESULT_FIELDS = (
    "job_id", "output", "diagnostics", "key", "cache_hit",
    "output_digest", "coalesced", "function_tier", "worker_seconds",
    "wall_seconds", "attempts", "stats",
)


def result_to_frame(result: JobResult,
                    request: Optional[Dict[str, object]] = None
                    ) -> Dict[str, object]:
    """The ``result`` frame of ``result``; with the ``request`` it
    answers, echoing its ``id`` (and ``job_id``, as requested)."""
    frame: Dict[str, object] = {
        "type": "result",
        "status": result.status.value,
        "ok": result.ok,
    }
    for name in RESULT_FIELDS:
        frame[name] = getattr(result, name)
    if request is not None:
        frame["id"] = request.get("id")
        if request.get("job_id") is not None:
            frame["requested_job_id"] = request["job_id"]
    return frame


@dataclass
class ServerStats:
    """Daemon-side accounting, folded into the ``stats`` response."""

    connections_total: int = 0
    connections_active: int = 0
    submitted: int = 0
    completed: int = 0
    streamed: int = 0
    quota_rejected: int = 0
    drain_rejected: int = 0
    bad_requests: int = 0
    by_priority: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


class _Client:
    """Per-connection state: writer, the connection's handler task, a
    send lock (frames from concurrent submits must not interleave
    mid-line), and the admission-quota counter."""

    _ids = itertools.count(1)

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.handler = asyncio.current_task()
        self.lock = asyncio.Lock()
        self.inflight = 0
        self.name = f"client-{next(self._ids)}"


class CompileServer:
    """The persistent daemon around one warm engine + frontier.

    Construct with a started event loop (``await server.start()``),
    then ``await server.serve_forever()`` or drive it from tests with
    a client. ``engine.events`` is required for streaming; one is
    attached automatically when absent.
    """

    def __init__(self, engine: CompileEngine,
                 socket_path: Optional[str] = None,
                 host: Optional[str] = None, port: int = 0,
                 max_queue: int = 64,
                 client_quota: int = 16):
        if socket_path is None and host is None:
            raise ValueError("need a unix socket_path or a TCP host")
        if client_quota < 1:
            raise ValueError("client_quota must be >= 1")
        self.engine = engine
        if engine.events is None:
            engine.events = EventLog()
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.client_quota = client_quota
        self.stats = ServerStats()
        self.frontier = ServiceFrontier(engine, max_queue=max_queue)
        self._seq = itertools.count()
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._streams: Dict[str, asyncio.Queue] = {}
        self._active_jobs: Set[str] = set()
        self._clients: Set[_Client] = set()
        self._draining = False
        self._stopping = False
        self._stopped: Optional[asyncio.Event] = None
        self._idle: Optional[asyncio.Event] = None
        self._admin_lock: Optional[asyncio.Lock] = None
        self._unsubscribe = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._admin_lock = asyncio.Lock()
        await self.frontier.start()
        self._unsubscribe = self.engine.events.subscribe(self._on_event)
        if self.socket_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.socket_path,
                limit=MAX_HEADER_BYTES,
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port,
                limit=MAX_HEADER_BYTES,
            )
            self.port = self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> str:
        if self.socket_path is not None:
            return self.socket_path
        return f"{self.host}:{self.port}"

    async def serve_forever(self) -> None:
        assert self._stopped is not None
        await self._stopped.wait()

    async def stop(self) -> None:
        """Graceful shutdown: refuse new submits, finish admitted
        jobs, then tear down the listener, frontier, and client
        connections. Idempotent."""
        if self._stopped is None or self._stopped.is_set():
            return
        self._stopping = True
        self._draining = True
        await self._idle.wait()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
        await self.frontier.close()
        clients = list(self._clients)
        for client in clients:
            try:
                client.writer.close()
            except Exception:
                pass
        # Each handler reads the end of its stream and returns: none is
        # left for the loop's teardown to cancel.
        await asyncio.gather(*(client.handler for client in clients),
                             return_exceptions=True)
        self._stopped.set()

    async def __aenter__(self) -> "CompileServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- event routing -------------------------------------------------------

    def _on_event(self, record: Dict[str, object]) -> None:
        """EventLog subscriber: runs on the *emitting* thread (engine
        frontier slot threads included), so it only trampolines onto the
        loop — and only the records somebody streams: a stream is
        registered before its job is submitted, so a job id without
        one now has no reader later. The per-job queues are touched on
        the loop alone."""
        queue = self._streams.get(record.get("job_id"))
        loop = self._loop
        if queue is None or loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(queue.put_nowait, record)
        except RuntimeError:
            pass  # loop shut down between the check and the call

    # -- in-flight accounting -------------------------------------------------

    def _open_job(self, client: _Client, job: CompileJob,
                  priority: str) -> None:
        self._active_jobs.add(job.job_id)
        self._idle.clear()
        client.inflight += 1
        self.stats.submitted += 1
        by_priority = self.stats.by_priority
        by_priority[priority] = by_priority.get(priority, 0) + 1

    def _close_job(self, client: _Client, job: CompileJob) -> None:
        self._streams.pop(job.job_id, None)
        self._active_jobs.discard(job.job_id)
        client.inflight -= 1
        if not self._active_jobs:
            self._idle.set()

    def _unique_job_id(self, requested: Optional[str]) -> str:
        """Server-side job ids must be unique among in-flight jobs or
        two clients' event streams would cross; suffix on collision."""
        base = requested or f"job-{next(self._seq)}"
        job_id = base
        attempt = 0
        while job_id in self._active_jobs:
            attempt += 1
            job_id = f"{base}~{attempt}"
        return job_id

    # -- connection handling -------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        client = _Client(writer)
        self._clients.add(client)
        self.stats.connections_total += 1
        self.stats.connections_active += 1
        tasks: Set[asyncio.Task] = set()
        try:
            while True:
                try:
                    request = await read_frame_async(reader)
                except ValueError as error:
                    self.stats.bad_requests += 1
                    await self._send(client, {
                        "type": "error", "code": "bad-request",
                        "message": f"undecodable request: {error}",
                    })
                    if isinstance(error, FrameError):
                        break  # the rest of the stream is unreadable
                    continue
                if request is None:
                    break
                if request.get("op") != "submit":
                    task = asyncio.create_task(
                        self._handle_request(client, request))
                elif (task := self._admit(client, request)) is None:
                    continue  # memory answered: reply written, no task
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except ConnectionError:
            pass
        finally:
            for task in list(tasks):
                task.cancel()
            self._clients.discard(client)
            self.stats.connections_active -= 1
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _send(self, client: _Client,
                    frame: Dict[str, object]) -> None:
        data = encode_frame(frame)
        async with client.lock:
            if client.writer.is_closing():
                return
            client.writer.write(data)
            try:
                await client.writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _handle_request(self, client: _Client,
                              request: Dict[str, object],
                              admitted=None) -> None:
        """One request's task. ``admitted``: the job and future result
        of a submit the reader admitted — the reply is what is left."""
        rid = request.get("id")
        op = request.get("op")
        try:
            if admitted is not None:
                await self._conclude(client, rid, request, *admitted)
            elif op == "submit":
                await self._handle_submit(client, rid, request)
            elif op == "stats":
                await self._send(client, {
                    "type": "stats", "id": rid,
                    **self.stats_snapshot(),
                })
            elif op == "ping":
                await self._send(client, {
                    "type": "pong", "id": rid,
                    "draining": self._draining,
                    "client_quota": self.client_quota,
                })
            elif op == "drain":
                await self._handle_drain(client, rid, request)
            elif op == "reload":
                await self._handle_reload(client, rid, request)
            else:
                self.stats.bad_requests += 1
                await self._send(client, {
                    "type": "error", "id": rid, "code": "bad-request",
                    "message": f"unknown op {op!r}",
                })
        except asyncio.CancelledError:
            raise
        except Exception as error:  # defensive: never kill the reader
            await self._send(client, {
                "type": "error", "id": rid, "code": "internal",
                "message": f"{type(error).__name__}: {error}",
            })

    # -- ops -----------------------------------------------------------------

    def _build_job(self, request: Dict[str, object]
                   ) -> Tuple[CompileJob, str]:
        """The job a submit asks for, and its priority class."""
        priority = str(request.get("priority") or "batch")
        if priority not in PRIORITY_RANKS:
            raise ValueError(
                f"unknown priority {priority!r} (choose from: "
                f"{', '.join(PRIORITY_RANKS)})"
            )
        payload = request.get("payload")
        script = request.get("script")
        if not isinstance(payload, str) or not isinstance(script, str):
            raise ValueError("submit needs payload and script text")
        params = request.get("params")
        if params is not None and not isinstance(params, dict):
            raise ValueError("params must be an object")
        timeout = request.get("timeout")
        if timeout is not None:
            timeout = float(timeout)
        requested = request.get("job_id")
        return CompileJob(
            payload_text=payload,
            script_text=script,
            params=params,
            entry_point=request.get("entry_point"),
            timeout=timeout,
            job_id=self._unique_job_id(
                str(requested) if requested is not None else None
            ),
        ), priority

    def _admit(self, client: _Client, request: Dict[str, object]
               ) -> Optional[asyncio.Task]:
        """A submit frame, at the connection's reader: admission runs
        here. When memory answers, the result frame is written here and
        there is no task (None). A miss gets a task for the rest of its
        route: admitted once, it is never offered to memory again.
        Anything else — a stream, a quota or drain refusal, a request
        that builds no job, a reply that would queue behind unsent
        bytes, an engine that cannot answer — gets the handler task any
        other request gets."""
        done = None
        if not (request.get("stream") or self._draining
                or client.inflight >= self.client_quota
                or client.writer.transport.get_write_buffer_size()
                or not hasattr(self.engine, "answer")):
            try:
                job, priority = self._build_job(request)
                done = self.frontier.admit(job, priority)
            except Exception:
                pass  # the handler task reports it
        if done is None:
            return asyncio.create_task(self._handle_request(client, request))
        self._open_job(client, job, priority)
        if not done.done():
            task = asyncio.create_task(
                self._handle_request(client, request, (job, done)))
            # Here, not in the task: a task cancelled before it starts
            # runs no ``finally``.
            task.add_done_callback(lambda _: self._close_job(client, job))
            return task
        client.writer.write(encode_frame(
            result_to_frame(done.result(), request)))
        self.stats.completed += 1
        self._close_job(client, job)
        return None

    async def _handle_submit(self, client: _Client, rid,
                             request: Dict[str, object]) -> None:
        if self._draining:
            self.stats.drain_rejected += 1
            await self._send(client, {
                "type": "error", "id": rid, "code": "draining",
                "message": "server is draining; submit refused",
            })
            return
        if client.inflight >= self.client_quota:
            self.stats.quota_rejected += 1
            await self._send(client, {
                "type": "error", "id": rid, "code": "quota",
                "message": (
                    f"client admission quota exhausted "
                    f"({self.client_quota} jobs in flight)"
                ),
            })
            return
        try:
            job, priority = self._build_job(request)
        except ValueError as error:
            self.stats.bad_requests += 1
            await self._send(client, {
                "type": "error", "id": rid, "code": "bad-request",
                "message": str(error),
            })
            return

        sub_queue: Optional[asyncio.Queue] = None
        if request.get("stream"):
            sub_queue = asyncio.Queue()
            self._streams[job.job_id] = sub_queue
            self.stats.streamed += 1
        self._open_job(client, job, priority)
        # The frontier's queue is the only queue: admission (and the
        # job's trace) starts here. A task, so event forwarding has
        # something to race; shielded, so a client that disconnects
        # mid-job cancels this handler, not a job already admitted.
        done = asyncio.ensure_future(self.frontier.submit(job, priority))
        try:
            await self._conclude(client, rid, request, job, done, sub_queue)
        finally:
            self._close_job(client, job)

    async def _conclude(self, client: _Client, rid,
                        request: Dict[str, object], job: CompileJob,
                        done: asyncio.Future,
                        sub_queue: Optional[asyncio.Queue] = None) -> None:
        """Wait for an admitted job (streaming its events when asked)
        and send its result frame."""
        if sub_queue is not None:
            await self._forward_events(client, rid, sub_queue, done)
        try:
            result = await asyncio.shield(done)
        except ServiceClosedError as error:
            await self._send(client, {
                "type": "error", "id": rid, "code": "draining",
                "message": str(error), "job_id": job.job_id,
            })
            return
        await self._send(client, result_to_frame(result, request))
        self.stats.completed += 1

    async def _forward_events(self, client: _Client, rid,
                              sub_queue: asyncio.Queue,
                              done: asyncio.Future) -> None:
        """Stream this job's lifecycle records until its terminal
        event. The engine emits the terminal COMPLETED record *before*
        the frontier resolves the result future (both cross to the
        loop via call_soon_threadsafe, in order), so draining after
        ``done`` resolves is bounded — but a short timeout guards the
        contract anyway rather than hanging a client on a violation."""
        while True:
            getter = asyncio.ensure_future(sub_queue.get())
            await asyncio.wait(
                {getter, done}, return_when=asyncio.FIRST_COMPLETED
            )
            if not getter.done():  # the job is done: bounded drain
                await asyncio.wait({getter}, timeout=1.0)
            if not getter.done():
                getter.cancel()
                return
            record = getter.result()
            await self._send(client, {
                "type": "event", "id": rid, **record
            })
            if record.get("event") in TERMINAL_EVENTS:
                return

    async def _handle_drain(self, client: _Client, rid,
                            request: Dict[str, object]) -> None:
        """Finish every admitted job, refuse new submits (structured
        ``draining`` errors), then acknowledge; with ``stop`` the whole
        server shuts down after the ack (TERM uses the same path)."""
        async with self._admin_lock:
            self._draining = True
            await self._idle.wait()
        await self._send(client, {
            "type": "drained", "id": rid,
            "completed": self.engine.stats.completed,
            "stopping": bool(request.get("stop")),
        })
        if request.get("stop"):
            asyncio.create_task(self.stop())

    async def _handle_reload(self, client: _Client, rid,
                             request: Dict[str, object]) -> None:
        """Drain, hot-swap what the request names (cache dir/size,
        retry policy, job timeout), then resume admissions. The swap
        happens at inflight == 0 so no job straddles two configs."""
        from .cache import CompilationCache

        async with self._admin_lock:
            self._draining = True
            await self._idle.wait()
            applied: List[str] = []
            try:
                if "cache_dir" in request or "cache_size" in request:
                    old = self.engine.cache
                    capacity = int(request.get(
                        "cache_size",
                        getattr(old, "capacity", 256) or 256,
                    ))
                    disk_path = request.get(
                        "cache_dir", getattr(old, "disk_path", None)
                    )
                    self.engine.cache = CompilationCache(
                        capacity=capacity, disk_path=disk_path,
                        faults=getattr(self.engine, "faults", None),
                    )
                    applied.append("cache")
                # Only the fields the request names change; the rest
                # (retry_timeouts) stay as the server was started.
                retry = {}
                if "max_attempts" in request:
                    retry["max_attempts"] = int(request["max_attempts"])
                if "backoff" in request:
                    retry["base_backoff"] = float(request["backoff"])
                if retry:
                    self.engine.retry_policy = replace(
                        self.engine.retry_policy, **retry)
                    applied.append("retry")
                if "job_timeout" in request:
                    timeout = request["job_timeout"]
                    self.engine.job_timeout = check_timeout(
                        "job_timeout",
                        float(timeout) if timeout is not None else None)
                    applied.append("job_timeout")
            except (TypeError, ValueError) as error:
                self.stats.bad_requests += 1
                self._draining = self._stopping
                await self._send(client, {
                    "type": "error", "id": rid, "code": "bad-request",
                    "message": str(error),
                })
                return
            # Resume admissions — unless a stop() began while we held
            # the drain, in which case it owns the draining flag.
            self._draining = self._stopping
        await self._send(client, {
            "type": "reloaded", "id": rid, "applied": applied,
        })

    # -- stats ---------------------------------------------------------------

    def stats_snapshot(self) -> Dict[str, object]:
        """The ``stats`` frame: ``metrics`` is the one stats surface
        (the daemon's own counters folded in as ``server.*``)."""
        server = self.stats.as_dict()
        return {
            "server": server,
            "draining": self._draining,
            "metrics": self.engine.metrics_snapshot(server=server),
        }


# ---------------------------------------------------------------------------
# repro-serve CLI
# ---------------------------------------------------------------------------


async def _serve(args, server: CompileServer) -> int:
    await server.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(
            signum,
            lambda: asyncio.ensure_future(server.stop()),
        )
    # The readiness line CI and scripts wait for before connecting.
    print(f"repro-serve: listening on {server.address}", flush=True)
    await server.serve_forever()
    print("repro-serve: drained and stopped", flush=True)
    if args.json is not None:
        with open(args.json, "w") as handle:
            json.dump(server.stats_snapshot(), handle, indent=2)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="persistent compile daemon: a warm worker pool and "
        "cache behind a JSON-header framed protocol on a unix or TCP "
        "socket (submit with repro-submit or repro-batch --connect)",
    )
    parser.add_argument("--socket", default=None, metavar="PATH",
                        help="unix socket path to listen on")
    parser.add_argument("--host", default="127.0.0.1",
                        help="TCP host to bind when --socket is not "
                        "given (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (default 0 = ephemeral; the "
                        "chosen port is printed on the readiness line)")
    parser.add_argument("--client-quota", type=int, default=16,
                        metavar="N",
                        help="max in-flight jobs per client connection "
                        "before submits get a structured quota error "
                        "(default 16)")
    add_engine_arguments(parser)
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="write the final stats snapshot here on "
                        "shutdown")
    args = parser.parse_args(argv)

    engine = None
    try:
        engine = build_engine(args)
        server = CompileServer(
            engine,
            socket_path=args.socket,
            host=args.host if args.socket is None else None,
            port=args.port,
            max_queue=args.queue_size,
            client_quota=args.client_quota,
        )
    except ValueError as error:
        if engine is not None:
            shutdown_engine(engine, args)
        print(f"error: {error}", file=sys.stderr)
        return 2

    try:
        code = asyncio.run(_serve(args, server))
    except KeyboardInterrupt:
        code = 0
    finally:
        shutdown_engine(engine, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
