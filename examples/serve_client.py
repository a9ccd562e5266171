#!/usr/bin/env python
"""A client session against the ``repro-serve`` compile daemon.

``repro-batch`` pays pool spawn and a cold cache on every invocation;
the daemon pays them once and amortizes them over every client that
connects afterwards. This example boots a :class:`CompileServer`
in-process on a unix socket (exactly what the ``repro-serve`` CLI
does) and then speaks to it the three ways a client can:

1. the **asyncio client** — concurrent submits multiplexed over one
   connection, with a streamed per-job event feed (the closed
   ADMITTED/DEQUEUED/STARTED/.../COMPLETED vocabulary from
   ``repro.observability.events``);
2. the **blocking client** — scripts and shells, one request at a
   time (this is what ``repro-submit`` uses);
3. the **raw protocol** — a frame is one JSON header line, then the
   UTF-8 bytes of its big text fields (``payload``/``script``/
   ``output``) with their byte lengths in the header's ``body``; a
   plain JSON line is a frame too. Everything the clients do reduces
   to this, read and written by ``repro.service.wire``.

It ends with the daemon's drain contract: ``drain`` finishes every
admitted job, then refuses new submits with a structured
``code="draining"`` error instead of hanging the submitter — the
same refuse-never-hang contract the frontier honours internally when
``close()`` races a ``submit()``.

Run:  python examples/serve_client.py

From a shell, against a real daemon::

    repro-serve --socket /tmp/repro.sock --jobs 4 --cache-size 512 &
    repro-submit payload.mlir --schedule unroll.mlir \\
        --connect /tmp/repro.sock --follow -o out.mlir
    repro-batch payloads/ --schedule schedules/ \\
        --connect /tmp/repro.sock -o out/
    repro-submit --connect /tmp/repro.sock --drain --stop
"""

import asyncio
import json
import textwrap

import repro.core  # noqa: F401 — registers transform ops
import repro.dialects  # noqa: F401 — registers payload ops
from repro.service import (
    AsyncServiceClient,
    CompilationCache,
    CompileEngine,
    CompileServer,
    RemoteError,
    ServiceClient,
)
from repro.service.wire import read_frame_async

PAYLOAD = textwrap.dedent("""
    "builtin.module"() ({
      "func.func"() ({
        %lb = "arith.constant"() {value = 0 : index} : () -> index
        %ub = "arith.constant"() {value = 64 : index} : () -> index
        %st = "arith.constant"() {value = 1 : index} : () -> index
        "scf.for"(%lb, %ub, %st) ({
        ^bb0(%i: index):
          %c = "arith.constant"() {value = 1 : i64} : () -> i64
          "scf.yield"() : () -> ()
        }) : (index, index, index) -> ()
        "func.return"() : () -> ()
      }) {sym_name = "kernel", function_type = () -> ()} : () -> ()
    }) : () -> ()
""").strip()

SCHEDULE = textwrap.dedent("""
    "transform.sequence"() ({
    ^bb0(%root: !transform.any_op):
      %factor = "transform.param.constant"() {binding = "factor", value = 2 : i64} : () -> !transform.param<i64>
      %loops = "transform.match_op"(%root) {names = ["scf.for"], position = "all"} : (!transform.any_op) -> !transform.any_op
      "transform.loop.unroll"(%loops, %factor) : (!transform.any_op, !transform.param<i64>) -> ()
      "transform.yield"() : () -> ()
    }) : () -> ()
""").strip()


async def asyncio_session(sock: str) -> None:
    client = await AsyncServiceClient.connect(sock)
    try:
        # A concurrent parameter sweep over one connection; the
        # daemon's priority scheduler admits, the engine coalesces
        # and caches.
        results = await asyncio.gather(*(
            client.submit(PAYLOAD, SCHEDULE,
                          params={"factor": factor},
                          job_id=f"sweep-{factor}",
                          priority="batch")
            for factor in (2, 4, 8, 16)
        ))
        for result in results:
            copies = (result.output or "").count("1 : i64")
            print(f"  {result.job_id}: {result.status.value}, "
                  f"body x{copies}")

        # A streamed interactive submit: every lifecycle transition
        # arrives as it happens, terminal COMPLETED last.
        seen = []
        await client.submit(PAYLOAD, SCHEDULE,
                            params={"factor": 4},
                            job_id="watched",
                            priority="interactive",
                            on_event=lambda f: seen.append(f["event"]))
        print(f"  watched lifecycle: {' -> '.join(seen)}")

        # One stats surface: every component's counters, folded into
        # the versioned ``metrics`` snapshot.
        counters = (await client.stats())["metrics"]["counters"]
        print(f"  server: {counters['server.submitted']:.0f} submitted, "
              f"{counters['engine.cache_hits']:.0f} cache hits, "
              f"{counters['server.connections_total']:.0f} connections "
              "so far")
    finally:
        await client.close()


def blocking_session(sock: str) -> None:
    with ServiceClient(sock) as client:
        result = client.submit(PAYLOAD, SCHEDULE,
                               params={"factor": 8},
                               job_id="blocking")
        print(f"  {result.job_id}: {result.status.value} "
              f"(cache_hit={result.cache_hit})")
        print(f"  ping: {client.ping()}")


async def raw_protocol(sock: str) -> None:
    reader, writer = await asyncio.open_unix_connection(sock)
    request = {"op": "submit", "id": "raw-1",
               "payload": PAYLOAD, "script": SCHEDULE,
               "params": {"factor": 2}}
    # The request as one plain JSON line; the reply's printed module
    # arrives as body bytes after its header line.
    writer.write((json.dumps(request) + "\n").encode())
    await writer.drain()
    frame = await read_frame_async(reader)
    print(f"  raw frame type={frame['type']} "
          f"status={frame.get('status')} ok={frame.get('ok')} "
          f"output={len(frame['output'])} chars")
    writer.close()
    await writer.wait_closed()


async def drain_contract(sock: str, server: CompileServer) -> None:
    client = await AsyncServiceClient.connect(sock)
    try:
        ack = await client.drain()
        print(f"  drain ack: {ack['type']} "
              f"(completed={ack['completed']})")
        try:
            await client.submit(PAYLOAD, SCHEDULE)
        except RemoteError as error:
            print(f"  submit after drain -> structured refusal: "
                  f"code={error.code}")
    finally:
        await client.close()


async def main() -> None:
    import tempfile
    import os

    engine = CompileEngine(workers=0,
                           cache=CompilationCache(capacity=64))
    with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
        sock = os.path.join(tmp, "repro.sock")
        try:
            async with CompileServer(engine, socket_path=sock,
                                     max_queue=16) as server:
                print(f"daemon listening on {sock}")
                print("-- asyncio client, streamed events --")
                await asyncio_session(sock)
                print("-- blocking client --")
                await asyncio.to_thread(blocking_session, sock)
                print("-- raw frames --")
                await raw_protocol(sock)
                print("-- drain contract --")
                await drain_contract(sock, server)
        finally:
            engine.shutdown()


if __name__ == "__main__":
    asyncio.run(main())
