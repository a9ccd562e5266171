"""Clients for the ``repro-serve`` daemon, and the ``repro-submit``
CLI.

Two transports under one request surface over the same framed
protocol (:mod:`repro.service.wire` reads and writes every frame; see
:mod:`repro.service.server` for the vocabulary):

* :class:`AsyncServiceClient` — asyncio; one connection multiplexes
  any number of concurrent :meth:`~AsyncServiceClient.submit` calls
  (response frames are demultiplexed on the echoed request ``id``).
  This is what ``repro-batch --connect`` rides (windowed to the
  ``client_quota`` the server's ``pong`` advertises).
* :class:`ServiceClient` — blocking sockets, one request at a time,
  no event loop; for scripts, tests, and the ``repro-submit`` CLI.

Both build every request and decode every reply in
:class:`_RequestSurface`; each supplies only ``_call``, its transport.
Server-side refusals (``draining``, ``quota``, ``bad-request``,
``internal``) and a dead connection (``disconnected``) surface as
:class:`RemoteError` with the structured ``code`` preserved, so
callers can branch on the refusal class instead of parsing prose.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import socket
import sys
import threading
from typing import Callable, Dict, List, Optional, Tuple

from .engine import JobResult, JobStatus
from .wire import (FrameError, MAX_HEADER_BYTES, encode_frame, read_frame,
                   read_frame_async)

EventCallback = Callable[[Dict[str, object]], None]


class RemoteError(RuntimeError):
    """A structured refusal from the server (or a dead connection).

    ``code`` is machine-readable: ``draining``, ``quota``,
    ``bad-request``, ``internal``, or ``disconnected``.
    """

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


def _disconnected(error: object = "server closed the connection") \
        -> RemoteError:
    return RemoteError("disconnected", str(error))


def parse_address(address: str) -> Tuple[str, str, Optional[int]]:
    """``HOST:PORT`` (numeric port, no path separators) is TCP;
    anything else is a unix socket path. Returns
    ``(kind, host_or_path, port)``."""
    host, sep, port = address.rpartition(":")
    if sep and port.isdigit() and "/" not in address \
            and "\\" not in address:
        return ("tcp", host or "127.0.0.1", int(port))
    return ("unix", address, None)


def result_from_frame(frame: Dict[str, object]) -> JobResult:
    """Rebuild a :class:`JobResult` from a ``result`` frame, so remote
    submissions hand callers the same object local ones do."""
    return JobResult(
        job_id=str(frame.get("job_id", "")),
        status=JobStatus(frame.get("status", "cancelled")),
        output=frame.get("output"),
        diagnostics=str(frame.get("diagnostics") or ""),
        key=str(frame.get("key") or ""),
        cache_hit=bool(frame.get("cache_hit")),
        output_digest=frame.get("output_digest"),
        coalesced=bool(frame.get("coalesced")),
        function_tier=bool(frame.get("function_tier")),
        worker_seconds=float(frame.get("worker_seconds") or 0.0),
        wall_seconds=float(frame.get("wall_seconds") or 0.0),
        attempts=int(frame.get("attempts") or 0),
        stats=dict(frame.get("stats") or {}),
    )


class _RequestSurface:
    """The requests and the reply decoder both clients share.

    A subclass implements ``_call(request, on_event, conclude)``: send
    ``request`` with a fresh ``id``, feed every frame echoing it to
    :meth:`_decode` until one concludes, and return ``conclude`` of
    that frame (the frame itself without one), mapping a dead
    connection to ``RemoteError("disconnected")``. Each method returns
    what ``_call`` returns — the value for the blocking client, an
    awaitable of it for the asyncio one."""

    @staticmethod
    def _decode(frame: Dict[str, object],
                on_event: Optional[EventCallback]) \
            -> Optional[Dict[str, object]]:
        """An event goes to ``on_event``, an error raises
        :class:`RemoteError`; anything else is the conclusion."""
        kind = frame.get("type")
        if kind == "event":
            if on_event is not None:
                on_event(frame)
            return None
        if kind == "error":
            raise RemoteError(str(frame.get("code") or "internal"),
                              str(frame.get("message") or ""))
        return frame

    def submit(self, payload_text: Optional[str] = None,
               script_text: Optional[str] = None, *,
               params: Optional[dict] = None,
               entry_point: Optional[str] = None,
               job_id: Optional[str] = None,
               priority: Optional[str] = None,
               timeout: Optional[float] = None,
               stream: bool = False,
               on_event: Optional[EventCallback] = None):
        """Submit one job for its :class:`JobResult`. With ``stream``
        (implied by ``on_event``) the server forwards every lifecycle
        event record first."""
        fields = {"payload": payload_text, "script": script_text,
                  "params": params, "entry_point": entry_point,
                  "job_id": job_id, "priority": priority, "timeout": timeout}
        request: Dict[str, object] = {"op": "submit"}
        request.update((k, v) for k, v in fields.items() if v is not None)
        if stream or on_event is not None:
            request["stream"] = True
        return self._call(request, on_event, result_from_frame)

    def stats(self):
        return self._call({"op": "stats"})

    def ping(self):
        return self._call({"op": "ping"})

    def drain(self, stop: bool = False):
        return self._call({"op": "drain", "stop": stop})

    def reload(self, **changes: object):
        return self._call({"op": "reload", **changes})


class AsyncServiceClient(_RequestSurface):
    """Asyncio client; safe for concurrent requests on one
    connection. Construct with :meth:`connect`."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)
        self._pending: Dict[str, asyncio.Queue] = {}
        self._write_lock = asyncio.Lock()
        self._reader_task = asyncio.create_task(
            self._read_loop(), name="repro-client-reader"
        )

    @classmethod
    async def connect(cls, address: str) -> "AsyncServiceClient":
        kind, host, port = parse_address(address)
        if kind == "unix":
            reader, writer = await asyncio.open_unix_connection(
                host, limit=MAX_HEADER_BYTES)
        else:
            reader, writer = await asyncio.open_connection(
                host, port, limit=MAX_HEADER_BYTES)
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        try:
            while True:
                try:
                    frame = await read_frame_async(self._reader)
                except FrameError:
                    break
                except ValueError:
                    continue
                if frame is None:
                    break
                queue = self._pending.get(frame.get("id"))
                if queue is not None:
                    queue.put_nowait(frame)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            # Wake every waiter so a dropped connection fails fast
            # instead of hanging calls forever.
            for queue in self._pending.values():
                queue.put_nowait(None)

    async def _call(self, request: Dict[str, object],
                    on_event: Optional[EventCallback] = None,
                    conclude: Optional[Callable] = None):
        # The reader wakes only the calls pending when it stops.
        if self._reader_task.done():
            raise _disconnected()
        rid = request["id"] = str(next(self._ids))
        queue: asyncio.Queue = asyncio.Queue()
        self._pending[rid] = queue
        try:
            async with self._write_lock:
                self._writer.write(encode_frame(request))
                await self._writer.drain()
            while True:
                frame = await queue.get()
                if frame is None:
                    raise _disconnected()
                frame = self._decode(frame, on_event)
                if frame is not None:
                    return conclude(frame) if conclude else frame
        except ConnectionError as error:
            raise _disconnected(error) from error
        finally:
            self._pending.pop(rid, None)

    async def close(self) -> None:
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except Exception:
            pass


class ServiceClient(_RequestSurface):
    """Blocking client: one request at a time (a lock enforces it),
    plain sockets, no event loop — importable from anywhere."""

    def __init__(self, address: str,
                 timeout: Optional[float] = None):
        kind, host, port = parse_address(address)
        if kind == "unix":
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                self._sock.connect(host)
            except OSError:
                self._sock.close()
                raise
        else:
            self._sock = socket.create_connection((host, port))
        if timeout is not None:
            self._sock.settimeout(timeout)
        self._file = self._sock.makefile("rwb")
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _call(self, request: Dict[str, object],
              on_event: Optional[EventCallback] = None,
              conclude: Optional[Callable] = None):
        with self._lock:
            rid = request["id"] = str(next(self._ids))
            try:
                self._file.write(encode_frame(request))
                self._file.flush()
                while True:
                    try:
                        frame = read_frame(self._file)
                    except FrameError as error:
                        # The stream cannot be followed: end the
                        # connection, as the asyncio reader does.
                        self._sock.shutdown(socket.SHUT_RDWR)
                        raise _disconnected(error) from error
                    except ValueError:
                        continue
                    if frame is None:
                        raise _disconnected()
                    if frame.get("id") == rid:
                        frame = self._decode(frame, on_event)
                        if frame is not None:
                            return conclude(frame) if conclude else frame
            except ConnectionError as error:
                raise _disconnected(error) from error

    def close(self) -> None:
        try:
            self._file.close()  # flushes, so it may meet a dead peer
        except OSError:
            pass
        self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# repro-submit CLI
# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    from .cli import add_job_arguments, parse_params, report_results

    parser = argparse.ArgumentParser(
        prog="repro-submit",
        description="submit one compile job to a running repro-serve "
        "daemon (or query/drain it)",
    )
    parser.add_argument("payload", nargs="?", default=None,
                        help="payload IR file or frontend .py module")
    parser.add_argument("--connect", required=True, metavar="ADDRESS",
                        help="server address: unix socket path or "
                        "HOST:PORT")
    parser.add_argument("--schedule", default=None, metavar="FILE",
                        help="transform script file or frontend .py "
                        "module (required with a payload)")
    # Default class interactive: a human is waiting on this one job.
    add_job_arguments(parser, priority="interactive")
    parser.add_argument("--job-id", default=None,
                        help="job id for correlation (default: server "
                        "assigned)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-job deadline in seconds")
    parser.add_argument("--follow", action="store_true",
                        help="stream lifecycle events to stderr while "
                        "the job runs")
    parser.add_argument("-o", "--output", default=None, metavar="FILE",
                        help="write the transformed module here "
                        "(default stdout)")
    parser.add_argument("--stats", action="store_true",
                        help="print the server stats snapshot and exit")
    parser.add_argument("--ping", action="store_true",
                        help="health-check the server and exit")
    parser.add_argument("--drain", action="store_true",
                        help="drain the server (finish admitted jobs, "
                        "refuse new submits) and exit")
    parser.add_argument("--stop", action="store_true",
                        help="with --drain: stop the server after the "
                        "drain completes")
    args = parser.parse_args(argv)

    def usage_error(message: object) -> int:
        print(f"error: {message}", file=sys.stderr)
        return 2

    if args.stop and not args.drain:
        return usage_error("--stop only applies with --drain")
    job: Dict[str, object] = {}
    if not (args.ping or args.stats or args.drain):
        if args.payload is None or args.schedule is None:
            return usage_error("need a payload and --schedule "
                               "(or --stats/--ping/--drain)")
        from ..frontend.loader import (
            read_payload_source,
            read_schedule_source,
        )
        try:
            job = dict(payload_text=read_payload_source(args.payload),
                       script_text=read_schedule_source(args.schedule),
                       params=parse_params(args.param))
        except Exception as error:  # a frontend .py module may raise anything
            return usage_error(error)
    try:
        client = ServiceClient(args.connect)
    except OSError as error:
        return usage_error(f"cannot connect to {args.connect}: {error}")

    def on_event(frame: Dict[str, object]) -> None:
        print("event: {} {}".format(
            frame.get("event"),
            json.dumps({k: v for k, v in frame.items()
                        if k not in ("type", "id", "v", "event")}),
        ), file=sys.stderr)

    try:
        if args.ping:
            print(json.dumps(client.ping()))
            return 0
        if args.stats:
            print(json.dumps(client.stats(), indent=2))
            return 0
        if args.drain:
            print(json.dumps(client.drain(stop=args.stop)))
            return 0
        result = client.submit(
            **job, entry_point=args.entry_point, job_id=args.job_id,
            priority=args.priority, timeout=args.timeout,
            on_event=on_event if args.follow else None,
        )
        # The module goes to stdout unless -o names a file, so the
        # status line goes to stderr.
        return report_results([(result.job_id, result)],
                              lambda _: args.output or "-",
                              status_out=sys.stderr)[0]
    except RemoteError as error:
        # A refusal is the job's outcome; a dead connection is not.
        print(f"error: {error}", file=sys.stderr)
        return 2 if error.code == "disconnected" else 1
    finally:
        client.close()

if __name__ == "__main__":
    sys.exit(main())
