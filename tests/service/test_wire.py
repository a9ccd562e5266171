"""The frame codec: a JSON header line, then the text fields as bytes.

Printed IR crosses the socket as body bytes, never as an escaped JSON
string, so size (asyncio's 64 KiB line limit) and awkward characters
(quotes, backslashes, newlines, multi-byte UTF-8) cannot break a job.
"""

import asyncio
import io
import json
import logging
import socket
import textwrap
import threading

import pytest

from repro.core import pipeline_to_transform_script
from repro.ir.printer import print_op
from repro.mlmodels import build_model
from repro.passes.tosa_pipeline import TOSA_TO_LINALG_PIPELINE
from repro.service import CompileEngine, RemoteError, compile_job
from repro.service.wire import (
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    FrameError,
    encode_frame,
    read_frame,
    read_frame_async,
)

from .test_engine import UNROLL
from .test_server import CLIENTS, _sock, _start_threaded_server

AWKWARD = 'say "hi" \\ then\na newline, 5 µs'
#: How the printer spells it: quote and backslash escaped, the newline
#: and the two-byte character as they are.
AWKWARD_ATTR = '"' + AWKWARD.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _unroll_function(name: str, trip: int = 64,
                     note: str = "") -> str:
    return textwrap.dedent(f"""
      "func.func"() ({{
        %lb = "arith.constant"() {{value = 0 : index}} : () -> index
        %ub = "arith.constant"() {{value = {trip} : index}} : () -> index
        %st = "arith.constant"() {{value = 1 : index}} : () -> index
        "scf.for"(%lb, %ub, %st) ({{
        ^bb0(%i: index):
          %a = "arith.constant"() {{value = 1.0 : f32}} : () -> f32
          %b = "arith.addf"(%a, %a) : (f32, f32) -> f32
          %c = "arith.mulf"(%a, %b) : (f32, f32) -> f32
          %d = "arith.subf"(%c, %a) : (f32, f32) -> f32{note}
          "scf.yield"() : () -> ()
        }}) : (index, index, index) -> ()
        "func.return"() : () -> ()
      }}) {{sym_name = "{name}", function_type = () -> ()}} : () -> ()
    """).strip()


def _module(*functions: str) -> str:
    return '"builtin.module"() ({\n' + "\n".join(functions) + \
        "\n}) : () -> ()"


def _unroll_by(factor: int) -> str:
    return UNROLL.replace("factor = 2", f"factor = {factor}")


def _big_payload():
    """The whisper_decoder model through the TOSA pipeline script."""
    return (print_op(build_model("whisper_decoder")),
            print_op(pipeline_to_transform_script(
                list(TOSA_TO_LINALG_PIPELINE))))


def _big_output():
    """A 12-function module unrolled 16 times: small in, big out."""
    return (_module(*(_unroll_function(f"f{n}") for n in range(12))),
            _unroll_by(16))


def _awkward_string():
    """A string attribute with a quote, a backslash, a newline and a
    two-byte character, kept through the unroll."""
    note = f'\n          "test.note"() {{text = {AWKWARD_ATTR}}} : () -> ()'
    return _module(_unroll_function("f", 8, note)), UNROLL


JOBS = {"big-payload": _big_payload, "big-output": _big_output,
        "awkward-string": _awkward_string}


class TestCodec:
    def test_a_body_is_the_text_as_utf8_bytes_and_counts_bytes(self):
        frame = {"type": "result", "id": "1", "ok": True,
                 "output": AWKWARD, "diagnostics": ""}
        data = encode_frame(frame)
        header, _, body = data.partition(b"\n")
        assert json.loads(header) == {
            "type": "result", "id": "1", "ok": True, "diagnostics": "",
            "body": {"output": len(AWKWARD.encode())}}
        assert len(AWKWARD.encode()) == len(AWKWARD) + 1
        assert body == AWKWARD.encode()
        stream = io.BytesIO(data + data)
        assert read_frame(stream) == frame
        assert read_frame(stream) == frame
        assert read_frame(stream) is None

    def test_only_text_fields_that_are_strings_become_body(self):
        frame = {"op": "submit", "id": "2", "payload": "p" * 3,
                 "script": "", "params": {"output": "x"}, "timeout": 1.0}
        header, _, body = encode_frame(frame).partition(b"\n")
        assert json.loads(header)["body"] == {"payload": 3, "script": 0}
        assert body == b"ppp"
        failed = {"type": "result", "id": "3", "output": None}
        assert encode_frame(failed) == (json.dumps(failed) + "\n").encode()

    def test_a_plain_json_line_is_a_frame(self):
        stream = io.BytesIO(b'\n  \n{"op": "ping", "id": "1"}\n')
        assert read_frame(stream) == {"op": "ping", "id": "1"}
        assert read_frame(stream) is None

    def test_a_header_that_is_not_an_object_is_a_plain_value_error(self):
        for line in (b"not json\n", b"[1, 2]\n"):
            with pytest.raises(ValueError) as error:
                read_frame(io.BytesIO(line))
            assert not isinstance(error.value, FrameError)

    @pytest.mark.parametrize("lengths", [
        {"payload": -1}, {"payload": "3"}, {"payload": 3.0},
        {"payload": True}, {"payload": MAX_BODY_BYTES + 1}, [3]])
    def test_a_bad_body_length_is_a_frame_error(self, lengths):
        line = json.dumps({"op": "submit", "body": lengths}).encode()
        with pytest.raises(FrameError):
            read_frame(io.BytesIO(line + b"\n" + b"x" * 8))
        with pytest.raises(FrameError):
            _read_async(line + b"\n" + b"x" * 8)

    def test_an_oversized_header_line_is_a_frame_error(self):
        line = json.dumps({"op": "ping", "pad": "x" * MAX_HEADER_BYTES})
        with pytest.raises(FrameError):
            read_frame(io.BytesIO(line.encode() + b"\n"))
        with pytest.raises(FrameError):
            _read_async(line.encode() + b"\n")

    def test_a_truncated_body_reads_as_a_closed_stream(self):
        data = b'{"type": "result", "body": {"output": 10}}\nabc'
        assert read_frame(io.BytesIO(data)) is None
        assert _read_async(data) is None


def _read_async(data: bytes):
    async def go():
        reader = asyncio.StreamReader(limit=MAX_HEADER_BYTES)
        reader.feed_data(data)
        reader.feed_eof()
        return await read_frame_async(reader)
    return asyncio.run(go())


class TestThroughTheDaemon:
    @pytest.mark.parametrize("job", JOBS)
    @pytest.mark.parametrize("kind", CLIENTS)
    def test_both_clients_match_compile_job_byte_for_byte(
            self, kind, job, tmp_path):
        payload, script = JOBS[job]()
        expected = compile_job(payload, script)
        assert expected["status"] == "success"
        big = max(len(payload.encode()), len(expected["output"].encode()))
        assert (big > 1 << 16) == (job != "awkward-string")
        engine = CompileEngine(workers=0)
        sock = _sock(tmp_path)
        server, stop = _start_threaded_server(engine, sock)
        session = CLIENTS[kind](sock)
        try:
            result = session.call("submit", payload, script)
            assert result.ok, result.diagnostics
            assert result.output.encode() == expected["output"].encode()
            if job == "awkward-string":
                assert result.output.count(AWKWARD_ATTR) == 2
            assert session.call("ping")["type"] == "pong"
        finally:
            session.close()
            stop()
            engine.shutdown()


#: Replies no reader can follow: a body the server hangs up inside, a
#: header line over the limit, a negative body length. ``{id}`` is
#: the request's id; ``True`` means the server hangs up after it.
BROKEN_REPLIES = {
    "cut-body": (b'{"type": "result", "id": "{id}", '
                 b'"body": {"output": 100}}\n' + b"x" * 10, True),
    "long-header": (b'{"type": "result", "id": "{id}", "pad": "'
                    + b"x" * MAX_HEADER_BYTES + b'"}\n', False),
    "bad-length": (b'{"type": "result", "id": "{id}", '
                   b'"body": {"output": -1}}\n', False),
}


def _broken_server(sock, reply, hang_up):
    """Answers the first request with ``reply``, then hangs up or
    waits for the client to."""
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(sock)
    listener.listen()

    def serve():
        with listener:
            conn, _ = listener.accept()
            with conn, conn.makefile("rwb") as stream:
                request = read_frame(stream)
                stream.write(reply.replace(b"{id}", request["id"].encode()))
                stream.flush()
                if not hang_up:
                    stream.read()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return thread


class TestBrokenFrames:
    @pytest.mark.parametrize("reply", BROKEN_REPLIES)
    @pytest.mark.parametrize("kind", CLIENTS)
    def test_a_client_that_cannot_follow_a_reply_is_disconnected(
            self, kind, reply, tmp_path):
        # No hang, a connection that stays dead for the next call and,
        # for the asyncio client, a reader task that ends cleanly
        # (``close`` awaits it).
        sock = _sock(tmp_path)
        server = _broken_server(sock, *BROKEN_REPLIES[reply])
        session = CLIENTS[kind](sock)
        try:
            for method, args in (("submit", ("payload", "script")),
                                 ("ping", ())):
                with pytest.raises(RemoteError) as error:
                    session.call(method, *args)
                assert error.value.code == "disconnected"
        finally:
            session.close()
        server.join(10.0)
        assert not server.is_alive()

    @pytest.mark.parametrize("request_bytes", [
        json.dumps({"op": "ping", "id": "1",
                    "pad": "x" * MAX_HEADER_BYTES}).encode() + b"\n",
        b'{"op": "submit", "id": "1", "body": {"payload": -1}}\n',
        b'{"op": "submit", "id": "1", "body": {"payload": "9"}}\n',
        b'{"op": "submit", "id": "1", "body": {"payload": 9.5}}\n',
        ('{"op": "submit", "id": "1", "body": {"payload": %d}}\n'
         % (MAX_BODY_BYTES + 1)).encode(),
    ], ids=["long-header", "negative", "string", "float", "too-big"])
    def test_the_daemon_refuses_an_unreadable_frame_and_hangs_up(
            self, request_bytes, tmp_path, caplog):
        engine = CompileEngine(workers=0)
        sock = _sock(tmp_path)
        server, stop = _start_threaded_server(engine, sock)
        try:
            with caplog.at_level(logging.ERROR), \
                    socket.socket(socket.AF_UNIX) as raw:
                raw.settimeout(10.0)
                raw.connect(sock)
                stream = raw.makefile("rwb")
                stream.write(request_bytes)
                stream.flush()
                frame = read_frame(stream)
                assert frame["type"] == "error"
                assert frame["code"] == "bad-request"
                assert read_frame(stream) is None
            assert server.stats.bad_requests == 1
            assert not caplog.records
            session = CLIENTS["blocking"](sock)
            try:
                assert session.call("ping")["type"] == "pong"
            finally:
                session.close()
        finally:
            stop()
            engine.shutdown()

    def test_the_daemon_drops_a_request_cut_inside_its_body(
            self, tmp_path, caplog):
        engine = CompileEngine(workers=0)
        sock = _sock(tmp_path)
        server, stop = _start_threaded_server(engine, sock)
        try:
            with caplog.at_level(logging.ERROR):
                with socket.socket(socket.AF_UNIX) as raw:
                    raw.connect(sock)
                    raw.sendall(b'{"op": "submit", "id": "1", '
                                b'"body": {"payload": 50}}\nshort')
                session = CLIENTS["blocking"](sock)
                try:
                    stats = session.call("stats")
                finally:
                    session.close()
            assert stats["server"]["submitted"] == 0
            assert stats["server"]["bad_requests"] == 0
            assert not caplog.records
        finally:
            stop()
            engine.shutdown()
