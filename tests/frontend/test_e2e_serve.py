"""Acceptance: frontend-authored payload + schedule through repro-serve.

A ``@frontend.jit``-decorated Python function and a builder-emitted
schedule are written as ``.py`` files, submitted twice with
``repro-batch --connect`` against a live server, and the second
submission is answered from the cache. The traced payload is
digest-identical to its printed/reparsed form — the property that
makes the cache hit possible.
"""

import asyncio
import json
import threading

from repro import frontend as fe
from repro.ir.hashing import op_digest
from repro.ir.parser import parse
from repro.ir.printer import print_op
from repro.service import CompileEngine, CompileServer
from repro.service.cache import CompilationCache
from repro.service.cli import main as batch_main

PAYLOAD_PY = """\
from repro import frontend as fe


@fe.jit
def payload(x: fe.F64):
    for i in range(0, 64, 1):
        for j in range(32):
            t = (i * 32 + j) * 2
"""

SCHEDULE_PY = """\
from repro.frontend import Schedule

SCHEDULE = Schedule()
SCHEDULE.match("scf.for", position="first") \\
        .tile(sizes=[8, 8]).unroll(4).vectorize()
"""


def _start_threaded_server(engine, sock):
    """CompileServer on a private loop in a daemon thread (the pattern
    from tests/service/test_server.py), for driving the blocking CLI."""
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


def test_frontend_batch_over_serve_hits_cache(tmp_path, capsys):
    payload_py = tmp_path / "payload.py"
    payload_py.write_text(PAYLOAD_PY)
    schedule_py = tmp_path / "schedule.py"
    schedule_py.write_text(SCHEDULE_PY)
    sock = str(tmp_path / "serve.sock")
    out = tmp_path / "out"
    metrics = tmp_path / "metrics.json"

    engine = CompileEngine(workers=0,
                           cache=CompilationCache(capacity=64))
    server, stop = _start_threaded_server(engine, sock)
    argv = [str(payload_py), "--schedule", str(schedule_py),
            "--connect", sock, "-o", str(out), "--json", str(metrics)]
    try:
        assert batch_main(argv) == 0
        first = capsys.readouterr().out
        assert "payload.schedule: success" in first
        assert "(cached)" not in first

        # Same .py inputs, same digests: answered from the cache.
        assert batch_main(argv) == 0
        second = capsys.readouterr().out
        assert "payload.schedule: success (cached)" in second

        data = json.loads(metrics.read_text())
        assert data["by_status"] == {"success": 1}
        assert engine.stats.completed == 2
    finally:
        stop()
        engine.shutdown()

    transformed = (out / "payload.schedule.mlir").read_text()
    module = parse(transformed, "<out>")
    assert '"transform.' not in transformed  # payload out, not script
    module.verify()


def test_traced_payload_digest_matches_reparse():
    @fe.jit
    def payload(x: fe.F64):
        for i in range(0, 64, 1):
            for j in range(32):
                t = (i * 32 + j) * 2

    module = payload.module
    reparsed = parse(print_op(module), "<reparse>")
    assert op_digest(reparsed) == op_digest(module)
    assert payload.digest == op_digest(reparsed)
