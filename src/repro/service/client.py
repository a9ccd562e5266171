"""Clients for the ``repro-serve`` daemon, and the ``repro-submit``
CLI.

Two flavours over the same newline-delimited JSON protocol (see
:mod:`repro.service.server` for the frame vocabulary):

* :class:`AsyncServiceClient` — asyncio; one connection multiplexes
  any number of concurrent :meth:`~AsyncServiceClient.submit` calls
  (response frames are demultiplexed on the echoed request ``id``).
  This is what ``repro-batch --connect`` rides (windowed to the
  ``client_quota`` the server's ``pong`` advertises).
* :class:`ServiceClient` — blocking sockets, one request at a time;
  for scripts, tests, and the ``repro-submit`` CLI.

Server-side refusals (``draining``, ``quota``, ``bad-request``,
``internal``) surface as :class:`RemoteError` with the structured
``code`` preserved, so callers can branch on the refusal class
instead of parsing prose.
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


def _submit_request(payload_text, script_text, payload_path,
                    script_path, params, entry_point, job_id, priority,
                    timeout, stream) -> Dict[str, object]:
    request: Dict[str, object] = {"op": "submit"}
    if payload_text is not None:
        request["payload"] = payload_text
    if script_text is not None:
        request["script"] = script_text
    if payload_path is not None:
        request["payload_path"] = payload_path
    if script_path is not None:
        request["script_path"] = script_path
    if params is not None:
        request["params"] = params
    if entry_point is not None:
        request["entry_point"] = entry_point
    if job_id is not None:
        request["job_id"] = job_id
    if priority is not None:
        request["priority"] = priority
    if timeout is not None:
        request["timeout"] = timeout
    if stream:
        request["stream"] = True
    return request


class AsyncServiceClient:
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
            reader, writer = await asyncio.open_unix_connection(host)
        else:
            reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    frame = json.loads(line)
                except ValueError:
                    continue
                if not isinstance(frame, dict):
                    continue
                queue = self._pending.get(frame.get("id"))
                if queue is not None:
                    queue.put_nowait(frame)
        except (ConnectionResetError, asyncio.CancelledError):
            pass
        finally:
            # Wake every waiter so a dropped connection fails fast
            # instead of hanging calls forever.
            eof = {"type": "error", "code": "disconnected",
                   "message": "server closed the connection"}
            for queue in self._pending.values():
                queue.put_nowait(dict(eof))

    async def _request(self, request: Dict[str, object]) \
            -> Tuple[str, asyncio.Queue]:
        rid = str(next(self._ids))
        request["id"] = rid
        queue: asyncio.Queue = asyncio.Queue()
        self._pending[rid] = queue
        data = (json.dumps(request) + "\n").encode()
        async with self._write_lock:
            self._writer.write(data)
            await self._writer.drain()
        return rid, queue

    async def _await_conclusion(self, rid: str, queue: asyncio.Queue,
                                on_event: Optional[EventCallback]) \
            -> Dict[str, object]:
        try:
            while True:
                frame = await queue.get()
                kind = frame.get("type")
                if kind == "event":
                    if on_event is not None:
                        on_event(frame)
                    continue
                if kind == "error":
                    raise RemoteError(
                        str(frame.get("code") or "internal"),
                        str(frame.get("message") or ""),
                    )
                return frame
        finally:
            self._pending.pop(rid, None)

    async def submit(self, payload_text: Optional[str] = None,
                     script_text: Optional[str] = None, *,
                     payload_path: Optional[str] = None,
                     script_path: Optional[str] = None,
                     params: Optional[dict] = None,
                     entry_point: Optional[str] = None,
                     job_id: Optional[str] = None,
                     priority: Optional[str] = None,
                     timeout: Optional[float] = None,
                     stream: bool = False,
                     on_event: Optional[EventCallback] = None) \
            -> JobResult:
        """Submit one job and await its :class:`JobResult`. With
        ``stream`` (implied by ``on_event``) the server forwards every
        lifecycle event record first."""
        stream = stream or on_event is not None
        rid, queue = await self._request(_submit_request(
            payload_text, script_text, payload_path, script_path,
            params, entry_point, job_id, priority, timeout, stream,
        ))
        frame = await self._await_conclusion(rid, queue, on_event)
        return result_from_frame(frame)

    async def _simple(self, request: Dict[str, object]) \
            -> Dict[str, object]:
        rid, queue = await self._request(request)
        return await self._await_conclusion(rid, queue, None)

    async def stats(self) -> Dict[str, object]:
        return await self._simple({"op": "stats"})

    async def ping(self) -> Dict[str, object]:
        return await self._simple({"op": "ping"})

    async def drain(self, stop: bool = False) -> Dict[str, object]:
        return await self._simple({"op": "drain", "stop": stop})

    async def reload(self, **changes: object) -> Dict[str, object]:
        return await self._simple({"op": "reload", **changes})

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


class ServiceClient:
    """Blocking client: one request at a time (a lock enforces it),
    plain sockets, no event loop — importable from anywhere."""

    def __init__(self, address: str,
                 timeout: Optional[float] = None):
        kind, host, port = parse_address(address)
        if kind == "unix":
            self._sock = socket.socket(socket.AF_UNIX,
                                       socket.SOCK_STREAM)
            self._sock.connect(host)
        else:
            self._sock = socket.create_connection((host, port))
        if timeout is not None:
            self._sock.settimeout(timeout)
        self._file = self._sock.makefile("rwb")
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _roundtrip(self, request: Dict[str, object],
                   on_event: Optional[EventCallback] = None) \
            -> Dict[str, object]:
        with self._lock:
            rid = str(next(self._ids))
            request["id"] = rid
            self._file.write((json.dumps(request) + "\n").encode())
            self._file.flush()
            while True:
                line = self._file.readline()
                if not line:
                    raise RemoteError(
                        "disconnected",
                        "server closed the connection",
                    )
                try:
                    frame = json.loads(line)
                except ValueError:
                    continue
                if not isinstance(frame, dict) \
                        or frame.get("id") != rid:
                    continue
                kind = frame.get("type")
                if kind == "event":
                    if on_event is not None:
                        on_event(frame)
                    continue
                if kind == "error":
                    raise RemoteError(
                        str(frame.get("code") or "internal"),
                        str(frame.get("message") or ""),
                    )
                return frame

    def submit(self, payload_text: Optional[str] = None,
               script_text: Optional[str] = None, *,
               payload_path: Optional[str] = None,
               script_path: Optional[str] = None,
               params: Optional[dict] = None,
               entry_point: Optional[str] = None,
               job_id: Optional[str] = None,
               priority: Optional[str] = None,
               timeout: Optional[float] = None,
               stream: bool = False,
               on_event: Optional[EventCallback] = None) -> JobResult:
        stream = stream or on_event is not None
        frame = self._roundtrip(_submit_request(
            payload_text, script_text, payload_path, script_path,
            params, entry_point, job_id, priority, timeout, stream,
        ), on_event)
        return result_from_frame(frame)

    def stats(self) -> Dict[str, object]:
        return self._roundtrip({"op": "stats"})

    def ping(self) -> Dict[str, object]:
        return self._roundtrip({"op": "ping"})

    def drain(self, stop: bool = False) -> Dict[str, object]:
        return self._roundtrip({"op": "drain", "stop": stop})

    def reload(self, **changes: object) -> Dict[str, object]:
        return self._roundtrip({"op": "reload", **changes})

    def close(self) -> None:
        try:
            self._file.close()
        except Exception:
            pass
        try:
            self._sock.close()
        except Exception:
            pass

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

    try:
        client = ServiceClient(args.connect)
    except OSError as error:
        print(f"error: cannot connect to {args.connect}: {error}",
              file=sys.stderr)
        return 2

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
        if args.payload is None or args.schedule is None:
            print("error: need a payload and --schedule "
                  "(or --stats/--ping/--drain)", file=sys.stderr)
            return 2
        try:
            params = parse_params(args.param)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2

        def on_event(frame: Dict[str, object]) -> None:
            print("event: {} {}".format(
                frame.get("event"),
                json.dumps({k: v for k, v in frame.items()
                            if k not in ("type", "id", "v", "event")}),
            ), file=sys.stderr)

        from ..frontend.loader import (
            read_payload_source,
            read_schedule_source,
        )
        try:
            payload_text = read_payload_source(args.payload)
            script_text = read_schedule_source(args.schedule)
        except Exception as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        try:
            result = client.submit(
                payload_path=None,
                script_path=None,
                payload_text=payload_text,
                script_text=script_text,
                params=params,
                entry_point=args.entry_point,
                job_id=args.job_id,
                priority=args.priority,
                timeout=args.timeout,
                on_event=on_event if args.follow else None,
            )
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        # The module goes to stdout unless -o names a file, so the
        # status line goes to stderr.
        return report_results([(result.job_id, result)],
                              lambda _: args.output or "-",
                              status_out=sys.stderr)[0]
    except RemoteError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        client.close()


if __name__ == "__main__":
    sys.exit(main())
