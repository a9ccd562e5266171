"""The repro-serve daemon: protocol, quotas, streams, drain, TERM."""

import argparse
import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.observability import (
    EventLog,
    MetricsRegistry,
    read_events,
    validate_chrome_trace,
    validate_metrics_snapshot,
)
from repro.service import (
    AsyncServiceClient,
    CompilationCache,
    CompileEngine,
    CompileJob,
    CompileServer,
    JobResult,
    JobStatus,
    RemoteError,
    RetryPolicy,
    ServiceClient,
)
from repro.service.client import main as submit_main, parse_address
from repro.service.cli import (
    add_engine_arguments,
    build_engine,
    main as batch_main,
)
from repro.service import server as server_module
from repro.service.server import main as serve_main
from repro.service.wire import encode_frame, read_frame, read_frame_async

from .test_admission import _QueuedOnly
from .test_engine import PAYLOAD, UNROLL, UNROLL_BOUND, USE_AFTER_CONSUME
from .test_frontier import until


class _GatedEngine:
    """Engine stub whose jobs block until released — the tool for
    holding the server's in-flight set open deterministically."""

    workers = 0
    faults = None
    tracer = None
    cache = None

    def __init__(self):
        self.events = None  # the server attaches an EventLog
        self.metrics = MetricsRegistry()
        self.release = threading.Event()
        self.order = []
        self.stats = SimpleNamespace(
            as_dict=lambda: {"completed": 0}, completed=0
        )

    def run_job(self, job, parent_span=None):
        self.order.append(job.job_id)
        self.events.emit("STARTED", job_id=job.job_id)
        assert self.release.wait(10.0)
        self.events.emit("COMPLETED", job_id=job.job_id,
                         status="success")
        return JobResult(job.job_id, JobStatus.SUCCESS)


def _sock(tmp_path) -> str:
    return str(tmp_path / "serve.sock")


def _children(pid: int):
    """The pids whose parent is ``pid`` (Linux ``/proc``)."""
    children = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        if int(stat[stat.rindex(")") + 2:].split()[1]) == pid:
            children.append(int(entry))
    return children


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("127.0.0.1:8765") == \
            ("tcp", "127.0.0.1", 8765)

    def test_bare_port(self):
        assert parse_address(":8765") == ("tcp", "127.0.0.1", 8765)

    def test_unix_path(self):
        assert parse_address("/tmp/x.sock") == \
            ("unix", "/tmp/x.sock", None)

    def test_path_with_colon_stays_unix(self):
        assert parse_address("/tmp/odd:1/s.sock")[0] == "unix"


class TestServerRoundtrip:
    def test_connect_submit_stream_drain(self, tmp_path):
        # The canonical lifecycle: connect, streamed submit, cached
        # resubmit, stats, drain — then submits are refused with a
        # structured error, and stop() tears down cleanly.
        async def go():
            engine = CompileEngine(workers=0)
            sock = _sock(tmp_path)
            try:
                async with CompileServer(engine, socket_path=sock,
                                         max_queue=8) as server:
                    client = await AsyncServiceClient.connect(sock)
                    seen = []
                    result = await client.submit(
                        PAYLOAD, UNROLL, job_id="first",
                        priority="interactive",
                        on_event=lambda f: seen.append(f["event"]),
                    )
                    assert result.ok and result.job_id == "first"
                    assert seen[0] == "ADMITTED"
                    assert seen[-1] == "COMPLETED"
                    again = await client.submit(PAYLOAD, UNROLL)
                    assert again.ok
                    stats = await client.stats()
                    assert stats["server"]["submitted"] == 2
                    assert stats["server"]["completed"] == 2
                    assert stats["server"]["streamed"] == 1
                    drained = await client.drain()
                    assert drained["type"] == "drained"
                    with pytest.raises(RemoteError) as exc:
                        await client.submit(PAYLOAD, UNROLL)
                    assert exc.value.code == "draining"
                    assert server.stats.drain_rejected == 1
                    await client.close()
            finally:
                engine.shutdown()

        asyncio.run(go())

    def test_stop_leaves_no_connection_handler_to_cancel(
            self, tmp_path, caplog):
        # A client connected and idle through stop(): its handler must
        # be done before asyncio.run tears the loop down, or the
        # teardown cancels it and logs the CancelledError.
        async def go():
            engine = CompileEngine(workers=0)
            sock = _sock(tmp_path)
            try:
                async with CompileServer(engine, socket_path=sock):
                    reader, writer = await asyncio.open_unix_connection(
                        sock)
                    writer.write(b'{"op": "ping", "id": "1"}\n')
                    assert (await read_frame_async(reader))["type"] \
                        == "pong"
                writer.close()
            finally:
                engine.shutdown()

        with caplog.at_level("ERROR", logger="asyncio"):
            asyncio.run(go())
        assert [record.getMessage() for record in caplog.records
                if record.name == "asyncio"] == []

    def test_param_binding_and_bad_request(self, tmp_path):
        async def go():
            engine = CompileEngine(workers=0)
            sock = _sock(tmp_path)
            try:
                async with CompileServer(engine, socket_path=sock):
                    client = await AsyncServiceClient.connect(sock)
                    result = await client.submit(
                        PAYLOAD, UNROLL_BOUND, params={"factor": 4}
                    )
                    assert result.ok
                    assert result.output.count("1 : i64") == 4
                    with pytest.raises(RemoteError) as exc:
                        await client.submit(None, UNROLL)
                    assert exc.value.code == "bad-request"
                    with pytest.raises(RemoteError) as exc:
                        await client.submit(PAYLOAD, UNROLL,
                                            priority="urgent")
                    assert exc.value.code == "bad-request"
                    await client.close()
            finally:
                engine.shutdown()

        asyncio.run(go())

    def test_submit_by_path(self, tmp_path):
        payload_file = tmp_path / "p.mlir"
        payload_file.write_text(PAYLOAD)
        schedule_file = tmp_path / "s.mlir"
        schedule_file.write_text(UNROLL)

        async def go():
            engine = CompileEngine(workers=0)
            sock = _sock(tmp_path)
            try:
                async with CompileServer(engine, socket_path=sock):
                    client = await AsyncServiceClient.connect(sock)
                    # The client reads the files; the daemon gets text.
                    result = await client.submit(
                        payload_file.read_text(), schedule_file.read_text())
                    assert result.ok
                    await client.close()
            finally:
                engine.shutdown()

        asyncio.run(go())


class TestWarmPooledDaemon:
    def test_a_repeated_batch_spawns_restarts_and_executes_nothing(
            self, tmp_path):
        # What the daemon exists for: the pool and the cache outlive a
        # batch, so the same batch again is answered warm by the same
        # pool generation.
        payloads = [PAYLOAD.replace("8 : index", f"{8 + 2 * n} : index")
                    for n in range(4)]
        engine = CompileEngine(workers=1, cache=CompilationCache(capacity=64))

        def counters():
            return (engine.stats.executed, engine.stats.worker_restarts,
                    engine._pool_generation)

        async def go():
            sock = _sock(tmp_path)
            async with CompileServer(engine, socket_path=sock):
                client = await AsyncServiceClient.connect(sock)
                batches = []
                for _ in range(2):
                    before = counters()
                    results = await asyncio.gather(*(
                        client.submit(payload, UNROLL)
                        for payload in payloads))
                    batches.append((results, before, counters()))
                await client.close()
                return batches

        try:
            (cold, cold_before, cold_after), (warm, before, after) = \
                asyncio.run(go())
        finally:
            engine.shutdown()
        assert all(r.ok and not r.cache_hit for r in cold)
        assert cold_after[0] - cold_before[0] == len(payloads)
        assert all(r.ok and r.cache_hit for r in warm)
        assert after == before
        assert [r.output for r in warm] == [r.output for r in cold]


class TestEventLogIsBounded:
    def test_a_long_lived_daemon_keeps_a_window_of_records(self, tmp_path):
        # The daemon attaches an EventLog of its own and only ever
        # fans records out to streams: the in-memory copy must not
        # grow with the number of jobs served.
        from repro.observability.events import RECORDS_KEPT

        jobs = RECORDS_KEPT // 3 + 50  # >= 3 records a job, hit or not

        async def go():
            engine = CompileEngine(workers=0,
                                   cache=CompilationCache(capacity=4))
            sock = _sock(tmp_path)
            try:
                async with CompileServer(engine, socket_path=sock):
                    client = await AsyncServiceClient.connect(sock)
                    for _ in range(jobs // 8):
                        results = await asyncio.gather(*(
                            client.submit(PAYLOAD, UNROLL)
                            for _ in range(8)))
                        assert all(r.ok for r in results)
                    await client.close()
                return engine.stats.completed, engine.events.records()
            finally:
                engine.shutdown()

        completed, records = asyncio.run(go())
        assert completed == jobs // 8 * 8 and 3 * completed > RECORDS_KEPT
        assert len(records) <= RECORDS_KEPT
        assert records[-1]["event"] == "COMPLETED"


class TestQuota:
    def test_quota_exhaustion_is_a_structured_error_not_a_hang(
            self, tmp_path):
        # With a quota of 1, a second submit while the first is still
        # in flight must come back immediately as code="quota" — and
        # succeed once the slot frees.
        async def go():
            engine = _GatedEngine()
            sock = _sock(tmp_path)
            async with CompileServer(engine, socket_path=sock,
                                     client_quota=1) as server:
                client = await AsyncServiceClient.connect(sock)
                first = asyncio.ensure_future(
                    client.submit(PAYLOAD, UNROLL, job_id="held")
                )
                await asyncio.sleep(0.1)  # job is gated in run_job
                with pytest.raises(RemoteError) as exc:
                    await asyncio.wait_for(
                        client.submit(PAYLOAD, UNROLL), timeout=5.0
                    )
                assert exc.value.code == "quota"
                assert server.stats.quota_rejected == 1
                engine.release.set()
                result = await asyncio.wait_for(first, timeout=10.0)
                assert result.ok
                retry = await asyncio.wait_for(
                    client.submit(PAYLOAD, UNROLL), timeout=10.0
                )
                assert retry.ok
                await client.close()

        asyncio.run(go())


class TestPriority:
    def test_interactive_overtakes_queued_batch_through_the_socket(
            self, tmp_path):
        # The daemon has no queue of its own: with one dispatcher and
        # the default --queue-size, 15 batch submits leave b0 gated in
        # the engine and b1..b14 in the frontier's queue; an
        # interactive submit sent after them dispatches next.
        async def go():
            engine = _GatedEngine()
            sock = _sock(tmp_path)
            async with CompileServer(engine, socket_path=sock) as server:
                client = await AsyncServiceClient.connect(sock)
                assert (await client.ping())["client_quota"] == 16
                batch = [
                    asyncio.ensure_future(client.submit(
                        PAYLOAD, UNROLL, job_id=f"b{i}",
                        priority="batch",
                    ))
                    for i in range(15)
                ]
                await until(lambda: engine.order == ["b0"]
                            and server.frontier.queue_depth == 14)
                urgent = asyncio.ensure_future(client.submit(
                    PAYLOAD, UNROLL, job_id="urgent",
                    priority="interactive",
                ))
                await until(lambda: server.frontier.queue_depth == 15)
                engine.release.set()
                results = await asyncio.wait_for(
                    asyncio.gather(urgent, *batch), timeout=30.0
                )
                assert all(r.ok for r in results)
                assert server.stats.by_priority == {
                    "batch": 15, "interactive": 1,
                }
                await client.close()
            return engine.order

        order = asyncio.run(go())
        assert order == ["b0", "urgent"] + [f"b{i}" for i in range(1, 15)]


class TestEventStreams:
    def test_concurrent_clients_see_disjoint_streams(self, tmp_path):
        # Two clients submit under the same requested job id while the
        # first is still in flight: the server must disambiguate the
        # ids, and each client's stream must only carry its own job.
        async def go():
            engine = _GatedEngine()
            sock = _sock(tmp_path)
            async with CompileServer(engine, socket_path=sock):
                one = await AsyncServiceClient.connect(sock)
                two = await AsyncServiceClient.connect(sock)
                seen_one, seen_two = [], []
                first = asyncio.ensure_future(one.submit(
                    PAYLOAD, UNROLL, job_id="dup",
                    on_event=seen_one.append,
                ))
                await asyncio.sleep(0.1)  # "dup" is now in flight
                second = asyncio.ensure_future(two.submit(
                    PAYLOAD, UNROLL, job_id="dup",
                    on_event=seen_two.append,
                ))
                await asyncio.sleep(0.1)
                engine.release.set()
                result_one = await asyncio.wait_for(first, 10.0)
                result_two = await asyncio.wait_for(second, 10.0)
                assert result_one.job_id == "dup"
                assert result_two.job_id == "dup~1"
                ids_one = {f["job_id"] for f in seen_one}
                ids_two = {f["job_id"] for f in seen_two}
                assert ids_one == {"dup"}
                assert ids_two == {"dup~1"}
                assert seen_one and seen_one[-1]["event"] == "COMPLETED"
                assert seen_two and seen_two[-1]["event"] == "COMPLETED"
                await one.close()
                await two.close()

        asyncio.run(go())


class TestReload:
    def test_reload_hot_swaps_cache_dir(self, tmp_path):
        async def go():
            from repro.service import CompilationCache

            dir_a = str(tmp_path / "cache-a")
            dir_b = str(tmp_path / "cache-b")
            engine = CompileEngine(
                workers=0,
                cache=CompilationCache(capacity=16, disk_path=dir_a),
            )
            sock = _sock(tmp_path)
            try:
                async with CompileServer(engine, socket_path=sock):
                    client = await AsyncServiceClient.connect(sock)
                    assert (await client.submit(PAYLOAD, UNROLL)).ok
                    ack = await client.reload(cache_dir=dir_b)
                    assert ack["type"] == "reloaded"
                    assert "cache" in ack["applied"]
                    # Admissions resumed, and the swap took: the same
                    # job is a miss against the fresh store, which
                    # then persists under the new directory.
                    result = await client.submit(PAYLOAD, UNROLL)
                    assert result.ok
                    assert engine.cache.disk_path == dir_b
                    assert any(
                        name.endswith(".json")
                        for name in os.listdir(dir_b)
                    )
                    await client.close()
            finally:
                engine.shutdown()

        asyncio.run(go())


def _start_threaded_server(engine, sock):
    """Run a CompileServer on a private loop in a daemon thread, for
    exercising the blocking client and the CLI paths."""
    loop = asyncio.new_event_loop()
    server = CompileServer(engine, socket_path=sock, max_queue=16)
    started = threading.Event()

    def runner():
        asyncio.set_event_loop(loop)

        async def go():
            await server.start()
            started.set()
            await server.serve_forever()

        loop.run_until_complete(go())
        loop.close()

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert started.wait(10.0)

    def stop():
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(10.0)
        thread.join(10.0)

    return server, stop


class TestSyncClient:
    def test_blocking_roundtrip(self, tmp_path):
        engine = CompileEngine(workers=0)
        sock = _sock(tmp_path)
        server, stop = _start_threaded_server(engine, sock)
        try:
            with ServiceClient(sock) as client:
                events = []
                result = client.submit(PAYLOAD, UNROLL,
                                       job_id="sync",
                                       on_event=events.append)
                assert result.ok and result.job_id == "sync"
                assert events[-1]["event"] == "COMPLETED"
                assert client.ping()["type"] == "pong"
                assert client.stats()["server"]["submitted"] == 1
        finally:
            stop()
            engine.shutdown()


class _Blocking:
    """One request surface, driven the same way for both clients:
    ``call(method, ...)`` returns the method's value."""

    def __init__(self, address):
        self.client = ServiceClient(address, timeout=10.0)

    def call(self, method, *args, **kwargs):
        return getattr(self.client, method)(*args, **kwargs)

    def close(self):
        self.client.close()


class _Asyncio(_Blocking):
    def __init__(self, address):
        self.loop = asyncio.new_event_loop()
        self.client = self.loop.run_until_complete(
            AsyncServiceClient.connect(address))

    def call(self, method, *args, **kwargs):
        return self.loop.run_until_complete(asyncio.wait_for(
            getattr(self.client, method)(*args, **kwargs), 10.0))

    def close(self):
        self.loop.run_until_complete(self.client.close())
        self.loop.close()


CLIENTS = {"blocking": _Blocking, "asyncio": _Asyncio}


def _scripted_server(sock, connections):
    """A stand-in daemon that answers from a script, for ``connections``
    connections in turn: a submit gets noise (an undecodable line, a
    frame for another id), two events and a result; a submit at
    priority ``urgent`` a refusal; a ping closes the connection."""
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(sock)
    listener.listen()

    def frames(request):
        rid = request["id"]
        if request.get("priority") == "urgent":
            return [{"type": "error", "id": rid, "code": "bad-request",
                     "message": "unknown priority"}]
        return [
            "not json",
            {"type": "result", "id": "elsewhere", "status": "crashed"},
            {"type": "event", "id": rid, "event": "STARTED", "job_id": "j"},
            {"type": "event", "id": rid, "event": "COMPLETED",
             "job_id": "j", "status": "success"},
            {"type": "result", "id": rid, "job_id": "j",
             "status": "success", "ok": True, "output": "out",
             "cache_hit": True, "attempts": 1, "wall_seconds": 0.5,
             "stats": {"ops": 3}},
        ]

    def serve():
        with listener:
            for _ in range(connections):
                conn, _ = listener.accept()
                with conn, conn.makefile("rwb") as stream:
                    while (request := read_frame(stream)) is not None:
                        if request["op"] == "ping":
                            break
                        for frame in frames(request):
                            text = (frame if isinstance(frame, str)
                                    else json.dumps(frame))
                            stream.write(text.encode() + b"\n")
                        stream.flush()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return thread


class TestOneRequestSurface:
    def test_both_clients_read_the_same_frames_the_same_way(
            self, tmp_path):
        sock = _sock(tmp_path)
        server = _scripted_server(sock, connections=len(CLIENTS))
        seen = {}
        for kind, make in CLIENTS.items():
            session, events, codes = make(sock), [], []
            try:
                result = session.call("submit", "p", "s",
                                      on_event=events.append)
                for method, kwargs in (("submit", {"priority": "urgent"}),
                                       ("ping", {})):
                    with pytest.raises(RemoteError) as exc:
                        session.call(method, **kwargs)
                    codes.append(exc.value.code)
            finally:
                session.close()
            seen[kind] = (result, events, codes)
        server.join(10.0)
        assert seen["blocking"] == seen["asyncio"]
        result, events, codes = seen["blocking"]
        assert result == JobResult("j", JobStatus.SUCCESS, output="out",
                                   cache_hit=True, attempts=1,
                                   wall_seconds=0.5, stats={"ops": 3})
        assert [frame["event"] for frame in events] == \
            ["STARTED", "COMPLETED"]
        assert codes == ["bad-request", "disconnected"]

    @pytest.mark.parametrize("kind", CLIENTS)
    def test_a_dead_connection_is_disconnected(self, kind, tmp_path):
        # Regression: the blocking client raised BrokenPipeError, the
        # asyncio one ConnectionResetError and kept its pending entry.
        engine = CompileEngine(workers=0)
        sock = _sock(tmp_path)
        server, stop = _start_threaded_server(engine, sock)
        session = CLIENTS[kind](sock)
        try:
            assert session.call("ping")["type"] == "pong"
            stop()
            with pytest.raises(RemoteError) as exc:
                session.call("ping")
            assert exc.value.code == "disconnected"
            assert not getattr(session.client, "_pending", None)
        finally:
            session.close()
            engine.shutdown()


class TestReloadRetry:
    def test_reload_changes_only_the_retry_fields_it_names(self, tmp_path):
        # Regression: reload {"backoff": 0.5} rebuilt the policy from
        # defaults, so a --retry-timeouts server stopped retrying
        # timeouts and dropped back to two attempts.
        started = RetryPolicy(max_attempts=5, retry_timeouts=True,
                              base_backoff=0.2)
        engine = CompileEngine(workers=0, retry_policy=started)
        sock = _sock(tmp_path)
        server, stop = _start_threaded_server(engine, sock)
        try:
            with ServiceClient(sock) as client:
                assert client.reload(backoff=0.5)["applied"] == ["retry"]
                assert engine.retry_policy == RetryPolicy(
                    max_attempts=5, retry_timeouts=True, base_backoff=0.5)
                # RetryPolicy validates; a refused reload changes nothing.
                with pytest.raises(RemoteError) as exc:
                    client.reload(max_attempts=0)
                assert exc.value.code == "bad-request"
                assert engine.retry_policy.max_attempts == 5
                client.reload(max_attempts=1)
                assert engine.retry_policy.max_attempts == 1
                assert engine.retry_policy.base_backoff == 0.5
                assert client.submit(PAYLOAD, UNROLL).ok
        finally:
            stop()
            engine.shutdown()

    @pytest.mark.parametrize("flags, retry_timeouts", [
        ([], False),
        (["--retry-timeouts"], True),
    ])
    def test_reload_turns_retries_on_for_a_max_attempts_1_server(
            self, tmp_path, flags, retry_timeouts):
        # Regression: --max-attempts 1 built a policy with no retry
        # statuses, so a later reload of max_attempts never retried.
        parser = argparse.ArgumentParser()
        add_engine_arguments(parser)
        engine = build_engine(parser.parse_args(
            ["--jobs", "0", "--max-attempts", "1", *flags]))
        assert not engine.retry_policy.should_retry("crashed", 1)
        sock = _sock(tmp_path)
        server, stop = _start_threaded_server(engine, sock)
        try:
            with ServiceClient(sock) as client:
                assert client.reload(max_attempts=3)["applied"] == ["retry"]
            policy = engine.retry_policy
            assert policy.max_attempts == 3
            assert policy.retry_timeouts is retry_timeouts
            assert policy.should_retry("crashed", 1)
            assert policy.should_retry("timeout", 1) is retry_timeouts
        finally:
            stop()
            engine.shutdown()


class TestBadJobFields:
    """A job field from outside input that would misbehave deep in the
    engine is a ``bad-request`` at the door."""

    def test_a_zero_timeout_is_refused_before_it_reaches_the_pool(
            self, tmp_path):
        engine = CompileEngine(workers=1)
        sock = _sock(tmp_path)
        server, stop = _start_threaded_server(engine, sock)
        try:
            with ServiceClient(sock) as client:
                for _ in range(3):
                    with pytest.raises(RemoteError) as exc:
                        client.submit(PAYLOAD, UNROLL, timeout=0)
                    assert exc.value.code == "bad-request"
                # Refused, not run: no timeout restarted the pool, so
                # nothing counted toward quarantining this content.
                assert client.submit(PAYLOAD, UNROLL).status \
                    is JobStatus.SUCCESS
            assert engine.stats.worker_restarts == 0
            assert server.stats.bad_requests == 3
        finally:
            stop()
            engine.shutdown()

    def test_a_non_string_entry_point_is_refused(self, tmp_path):
        engine = CompileEngine(workers=0)
        sock = _sock(tmp_path)
        server, stop = _start_threaded_server(engine, sock)
        try:
            with ServiceClient(sock) as client:
                with pytest.raises(RemoteError) as exc:
                    client.submit(PAYLOAD, UNROLL, entry_point=5)
                assert exc.value.code == "bad-request"
                assert client.submit(PAYLOAD, UNROLL).ok
            assert engine.stats.submitted == engine.stats.completed == 1
        finally:
            stop()
            engine.shutdown()

    def test_a_path_field_is_refused_and_no_file_is_opened(
            self, tmp_path, monkeypatch):
        secret = tmp_path / "secret.mlir"
        secret.write_text("hunter2 = 42\n")
        opened = []
        monkeypatch.setattr(server_module, "open",
                            lambda *args, **kw: opened.append(args),
                            raising=False)
        engine = CompileEngine(workers=0)
        sock = _sock(tmp_path)
        server, stop = _start_threaded_server(engine, sock)
        try:
            with ServiceClient(sock) as client:
                with pytest.raises(RemoteError) as exc:
                    client._call({"op": "submit",
                                  "payload_path": str(secret)})
                assert exc.value.code == "bad-request"
                assert "hunter2" not in exc.value.message
                assert str(secret) not in exc.value.message
            assert opened == []
            assert engine.stats.submitted == 0
        finally:
            stop()
            engine.shutdown()

    def test_a_reload_to_a_zero_job_timeout_is_refused(self, tmp_path):
        engine = CompileEngine(workers=0, job_timeout=5.0)
        sock = _sock(tmp_path)
        server, stop = _start_threaded_server(engine, sock)
        try:
            with ServiceClient(sock) as client:
                with pytest.raises(RemoteError) as exc:
                    client.reload(job_timeout=0)
                assert exc.value.code == "bad-request"
                assert engine.job_timeout == 5.0
                assert client.submit(PAYLOAD, UNROLL).ok
        finally:
            stop()
            engine.shutdown()


class TestServeCli:
    @pytest.mark.parametrize("flag", ["--client-quota", "--queue-size"])
    def test_a_bad_server_setting_exits_2(self, tmp_path, capsys, flag):
        code = serve_main(["--socket", _sock(tmp_path), "--jobs", "0",
                           flag, "0"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:")
        assert not os.path.exists(_sock(tmp_path))

    @pytest.mark.parametrize("module", ["server", "client", "cli"])
    def test_python_m_runs_one_copy_of_the_module(self, module):
        # The package must not import the module ``-m`` is about to run
        # (runpy would warn and run a second copy).
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__),
                                         "..", "..", "src")
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             f"repro.service.{module}", "--help"],
            capture_output=True, text=True, env=env, timeout=60.0)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith("usage:")


class TestSubmitCli:
    def test_stop_without_drain_is_refused(self, tmp_path, capsys):
        # Regression: with a payload, --stop was silently ignored.
        (tmp_path / "a.mlir").write_text(PAYLOAD)
        (tmp_path / "unroll.mlir").write_text(UNROLL)
        code = submit_main([str(tmp_path / "a.mlir"),
                            "--schedule", str(tmp_path / "unroll.mlir"),
                            "--connect", _sock(tmp_path), "--stop"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "--stop" in captured.err and "--drain" in captured.err

    def test_an_unreachable_server_exits_2(self, tmp_path, capsys):
        code = submit_main(["--ping", "--connect", _sock(tmp_path)])
        assert code == 2
        assert "cannot connect" in capsys.readouterr().err


class TestBatchConnect:
    def test_repro_batch_connect_routes_through_server(
            self, tmp_path, capsys):
        engine = CompileEngine(workers=0)
        sock = _sock(tmp_path)
        server, stop = _start_threaded_server(engine, sock)
        payloads = tmp_path / "payloads"
        payloads.mkdir()
        (payloads / "a.mlir").write_text(PAYLOAD)
        (payloads / "b.mlir").write_text(PAYLOAD)
        schedule = tmp_path / "unroll.mlir"
        schedule.write_text(UNROLL)
        out = tmp_path / "out"
        metrics = tmp_path / "metrics.json"
        try:
            code = batch_main([
                str(payloads),
                "--schedule", str(schedule),
                "--connect", sock,
                "-o", str(out),
                "--json", str(metrics),
            ])
            assert code == 0
            produced = sorted(p.name for p in out.iterdir())
            assert produced == ["a.unroll.mlir", "b.unroll.mlir"]
            data = json.loads(metrics.read_text())
            assert data["jobs"] == 2
            assert data["by_status"] == {"success": 2}
            assert data["connect"] == sock
            assert data["server"]["server"]["submitted"] == 2
            # The batch ran on the server's engine, not a local one.
            assert engine.stats.completed == 2
        finally:
            stop()
            engine.shutdown()


    def test_batch_larger_than_the_client_quota_is_windowed(
            self, tmp_path, capsys):
        # Regression: --connect fired every job at once, so a batch of
        # 20 against the default quota of 16 had 4 jobs refused
        # (code="quota") and exited 1 where local mode compiles all 20.
        engine = CompileEngine(workers=0)
        sock = _sock(tmp_path)
        server, stop = _start_threaded_server(engine, sock)
        payloads = tmp_path / "payloads"
        payloads.mkdir()
        for index in range(20):
            (payloads / f"m{index:02d}.mlir").write_text(PAYLOAD)
        schedule = tmp_path / "unroll.mlir"
        schedule.write_text(UNROLL)
        out = tmp_path / "out"
        metrics = tmp_path / "metrics.json"
        try:
            code = batch_main([
                str(payloads), "--schedule", str(schedule),
                "--connect", sock, "-o", str(out),
                "--json", str(metrics),
            ])
        finally:
            stop()
            engine.shutdown()
        assert code == 0
        assert len(list(out.iterdir())) == 20
        data = json.loads(metrics.read_text())
        assert data["by_status"] == {"success": 20}
        assert data["server"]["server"]["quota_rejected"] == 0
        assert server.stats.quota_rejected == 0
        assert "refused" not in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        ["--timing"],
        ["--trace-out", "trace.json"],
        ["--events-out", "events.jsonl"],
        # Engine flags used to be ignored without a word.
        ["--jobs", "4"],
        ["--no-preflight"],
    ])
    def test_local_engine_flags_are_rejected_with_connect(
            self, flag, tmp_path, capsys, monkeypatch):
        # Regression: these describe a local engine; with --connect
        # they used to exit 0 having written nothing, without a word.
        # Under --connect they do not exist, so argparse refuses them.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.mlir").write_text(PAYLOAD)
        (tmp_path / "unroll.mlir").write_text(UNROLL)
        with pytest.raises(SystemExit) as exc:
            batch_main([
                "a.mlir", "--schedule", "unroll.mlir",
                "--connect", _sock(tmp_path), *flag,
            ])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        reason = captured.err.strip().splitlines()[-1]
        assert "unrecognized arguments" in reason and flag[0] in reason
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["a.mlir", "unroll.mlir"]

    def test_help_without_connect_lists_the_engine_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            batch_main(["--help"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out
        for flag in ("--jobs", "--cache-dir", "--trace-out", "--timing",
                     "--connect"):
            assert flag in usage

    @pytest.mark.parametrize("connect", [["--connect", "s.sock"],
                                         ["--connect=s.sock"]])
    def test_help_with_connect_omits_the_engine_flags(self, connect, capsys):
        with pytest.raises(SystemExit) as exc:
            batch_main([*connect, "--help"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out
        assert "--connect" in usage and "--schedule" in usage
        # (--connect's own help names --timing; its help text does not.)
        for flag in ("--jobs", "--cache-dir", "--trace-out",
                     "-mlir-timing-style"):
            assert flag not in usage

    def test_local_and_connected_routes_report_identically(
            self, tmp_path, capsys):
        # One driver, two transports: the same corpus — including a
        # job that fails with diagnostics — must produce the same
        # status lines, the same files, the same exit code and the
        # same jobs/by_status whether it runs on a local engine or
        # through a daemon built from the same flags.
        payloads = tmp_path / "payloads"
        schedules = tmp_path / "schedules"
        payloads.mkdir()
        schedules.mkdir()
        (payloads / "a.mlir").write_text(PAYLOAD)
        (payloads / "b.mlir").write_text(PAYLOAD)
        (schedules / "unroll.mlir").write_text(UNROLL)
        (schedules / "bound.mlir").write_text(UNROLL_BOUND)
        (schedules / "bad.mlir").write_text(USE_AFTER_CONSUME)
        common = [str(payloads), "--schedule", str(schedules),
                  "--param", "factor=4"]

        def run(route, *extra):
            out = tmp_path / f"out-{route}"
            metrics = tmp_path / f"metrics-{route}.json"
            code = batch_main([*common, "-o", str(out),
                               "--json", str(metrics), *extra])
            captured = capsys.readouterr()
            files = {p.name: p.read_bytes() for p in out.iterdir()}
            return (code, captured.out.splitlines(), captured.err,
                    files, json.loads(metrics.read_text()))

        local = run("local", "--jobs", "0")
        parser = argparse.ArgumentParser()
        add_engine_arguments(parser)
        engine = build_engine(parser.parse_args(["--jobs", "0"]))
        sock = _sock(tmp_path)
        server, stop = _start_threaded_server(engine, sock)
        try:
            connected = run("connected", "--connect", sock)
            with ServiceClient(sock) as client:
                frame = client.stats()
        finally:
            stop()
            engine.shutdown()

        assert local[0] == connected[0] == 1
        assert local[1][:-1] == connected[1][:-1]
        assert len(local[1]) == 7  # six jobs + the summary
        assert any("(cached)" in line for line in local[1])
        assert connected[1][-1] == f"{local[1][-1]}  [via {sock}]"
        assert local[2] == connected[2] and "error" in local[2]
        assert local[3] == connected[3] and len(local[3]) == 4
        for key in ("jobs", "by_status"):
            assert local[4][key] == connected[4][key]
        assert local[4]["by_status"] == {"rejected": 2, "success": 4}
        # Each route keeps its own extra keys.
        assert {"connect", "server"} <= set(connected[4])
        # All three producers of the stats block ship one surface.
        for block in (local[4], connected[4]["server"], frame):
            assert not {"engine", "cache", "profiler"} & set(block)
            assert validate_metrics_snapshot(block["metrics"]) == []


class _CountingLoop(asyncio.SelectorEventLoop):
    """A selector loop that counts its iterations (``_run_once`` calls)
    and the tasks created on it."""

    def __init__(self):
        super().__init__()
        self.iterations = self.tasks = 0
        self.set_task_factory(self._task)

    def _run_once(self):
        self.iterations += 1
        super()._run_once()

    @staticmethod
    def _task(loop, coro, **kwargs):
        loop.tasks += 1
        return asyncio.Task(coro, loop=loop, **kwargs)


def _on_counting_loop(go):
    loop = _CountingLoop()
    try:
        return loop.run_until_complete(asyncio.wait_for(go(loop), 60.0))
    finally:
        loop.close()


class TestTheReaderAnswersHits:
    """A submit memory can answer is answered by the connection's
    reader: the reply is written there, with no task."""

    def test_a_hit_costs_two_loop_iterations_and_no_task(self, tmp_path):
        sock = _sock(tmp_path)
        measured = {}

        def client_thread(loop, done):
            try:
                with ServiceClient(sock, timeout=30.0) as client:
                    assert not client.submit(PAYLOAD, UNROLL).cache_hit
                    iterations, tasks = loop.iterations, loop.tasks
                    measured["hits"] = [client.submit(PAYLOAD, UNROLL)
                                        for _ in range(50)]
                    measured["iterations"] = loop.iterations - iterations
                    measured["tasks"] = loop.tasks - tasks
            finally:
                loop.call_soon_threadsafe(done.set)

        async def go(loop):
            engine = CompileEngine(workers=0,
                                   cache=CompilationCache(capacity=8))
            try:
                async with CompileServer(engine, socket_path=sock):
                    done = asyncio.Event()
                    thread = threading.Thread(target=client_thread,
                                              args=(loop, done))
                    thread.start()
                    # No polling: between frames the loop sleeps in
                    # select, so every iteration counted is the hits'.
                    await done.wait()
                    thread.join(30.0)
                    assert not thread.is_alive()
            finally:
                engine.shutdown()

        _on_counting_loop(go)
        assert len(measured["hits"]) == 50
        assert all(result.cache_hit for result in measured["hits"])
        assert measured["tasks"] == 0
        assert measured["iterations"] / 50 <= 2.0

    #: case -> (server arguments, a request answered before the probe,
    #: one written just ahead of it, the probe's own fields, the type
    #: and code of its reply).
    MISS = {"op": "submit", "id": "miss", "script": UNROLL,
            "payload": PAYLOAD.replace("8 : index", "12 : index")}
    FALLBACKS = {
        "stream": ({}, None, None, {"stream": True}, "event", None),
        "quota": ({"client_quota": 1}, None, MISS, {}, "error", "quota"),
        "draining": ({}, {"op": "drain", "id": "d"}, None, {},
                     "error", "draining"),
        "unbuildable": ({}, None, None, {"priority": "urgent"},
                        "error", "bad-request"),
        "unsent-bytes": ({}, None, None, {}, "result", None),
        "no-answer": ({}, None, None, {}, "result", None),
    }

    @pytest.mark.parametrize("case", FALLBACKS)
    def test_every_other_submit_keeps_its_task_and_frame(
            self, case, tmp_path, monkeypatch):
        arguments, before, ahead, fields, kind, code = self.FALLBACKS[case]
        sock = _sock(tmp_path)

        async def go(loop):
            engine = CompileEngine(workers=0, events=EventLog(),
                                   cache=CompilationCache(capacity=8))
            try:
                assert engine.run_job(CompileJob(PAYLOAD, UNROLL)).ok
                served = _QueuedOnly(engine) if case == "no-answer" else engine
                async with CompileServer(served, socket_path=sock,
                                         **arguments):
                    reader, writer = await asyncio.open_unix_connection(sock)
                    if before is not None:
                        writer.write(encode_frame(before))
                        assert (await read_frame_async(reader))["id"] == "d"
                    if case == "unsent-bytes":
                        monkeypatch.setattr(
                            type(writer.transport), "get_write_buffer_size",
                            lambda transport: 1)
                    tasks = loop.tasks
                    probe = {"op": "submit", "id": "probe",
                             "payload": PAYLOAD, "script": UNROLL, **fields}
                    writer.write(b"".join(
                        encode_frame(request) for request in (ahead, probe)
                        if request is not None))
                    frames = []
                    while not frames or frames[-1]["type"] == "event" or \
                            frames[-1]["id"] != "probe":
                        frames.append(await read_frame_async(reader))
                    created = loop.tasks - tasks
                    writer.close()
                    return [f for f in frames if f["id"] == "probe"], created
            finally:
                engine.shutdown()

        frames, created = _on_counting_loop(go)
        assert (frames[0]["type"], frames[0].get("code")) == (kind, code)
        if kind != "error":
            assert frames[-1]["type"] == "result" and frames[-1]["cache_hit"]
        assert created >= 1


class TestDaemonProcess:
    def test_sigterm_mid_batch_drains_admitted_then_exits_zero(
            self, tmp_path):
        # Boot the real CLI, park jobs on the daemon, TERM it mid
        # batch: admitted jobs must finish (their submitters get
        # results), late submits must be refused with code=draining,
        # the process must exit 0, and the exported trace must
        # validate.
        sock = _sock(tmp_path)
        trace_out = str(tmp_path / "serve-trace.json")
        events_out = str(tmp_path / "serve-events.jsonl")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__),
                                         "..", "..", "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service.server",
             "--socket", sock, "--jobs", "0",
             "--trace-out", trace_out, "--events-out", events_out],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env,
        )
        try:
            ready = proc.stdout.readline()
            assert "listening on" in ready
            results, errors = [], []

            def submit(job_id):
                try:
                    with ServiceClient(sock, timeout=30.0) as client:
                        results.append(client.submit(
                            PAYLOAD, UNROLL, job_id=job_id
                        ))
                except RemoteError as error:
                    errors.append(error)

            threads = [
                threading.Thread(target=submit, args=(f"term-{i}",))
                for i in range(4)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.3)
            proc.send_signal(signal.SIGTERM)
            for thread in threads:
                thread.join(30.0)
            code = proc.wait(timeout=30.0)
            assert code == 0
            # Every submitter got a definitive answer: a finished job
            # or a structured refusal — never a hang.
            assert len(results) + len(errors) == 4
            assert all(r.ok for r in results)
            assert all(e.code in ("draining", "disconnected")
                       for e in errors)
            # Admitted jobs ran to completion before exit.
            assert results, "TERM drained without finishing any job"
            trace = json.load(open(trace_out))
            assert validate_chrome_trace(trace) == []
            recorded = read_events(events_out)
            done = [r for r in recorded
                    if r.get("event") == "COMPLETED"]
            assert len(done) >= len(results)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10.0)

    def test_a_timed_out_job_leaves_the_daemon_serving(self, tmp_path):
        # Regression: a worker forked after the daemon installed its
        # signal handlers shared the event loop's wakeup fd, so the
        # SIGTERM that stopped a hung worker also stopped the daemon.
        # Two timeouts: the second kills a worker forked by the first
        # restart, after the handlers were in place; then such a worker
        # gets a SIGTERM from outside.
        sock = _sock(tmp_path)
        body = PAYLOAD.split("\n", 1)[1].rsplit("\n", 1)[0]
        payload = "\n".join(
            [PAYLOAD.split("\n", 1)[0]]
            + [body.replace('"f"', f'"f{n}"') for n in range(16)]
            + [PAYLOAD.rsplit("\n", 1)[1]])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__),
                                         "..", "..", "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service.server", "--socket", sock,
             "--jobs", "1", "--timeout", "0.001", "--max-attempts", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env)
        try:
            assert "listening on" in proc.stdout.readline()
            with ServiceClient(sock, timeout=30.0) as client:
                statuses = [client.submit(payload, UNROLL).status
                            for _ in range(2)]
                assert statuses == [JobStatus.TIMEOUT] * 2
                time.sleep(0.5)
                assert client.ping()["type"] == "pong"
                for worker in _children(proc.pid):
                    os.kill(worker, signal.SIGTERM)
                time.sleep(0.5)
                assert client.ping()["type"] == "pong"
                # The dead worker fails one job (no retries here); the
                # pool it is replaced with compiles the next.
                assert [client.submit(PAYLOAD, UNROLL, timeout=30.0).status
                        for _ in range(2)] == [JobStatus.CRASHED,
                                               JobStatus.SUCCESS]
            assert proc.poll() is None
        finally:
            proc.terminate()
            proc.wait(timeout=30.0)
