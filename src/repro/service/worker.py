"""The pool worker: one fully job-local compilation.

IR crosses the *process* boundary as text in both directions — the
printer -> parser round-trip is the transport contract (property-tested
in ``tests/ir/test_roundtrip_property.py``) — so a pool worker process,
which spends its life in :func:`serve` answering one call at a time
over its pipe, is handed text for :func:`compile_job`. A caller in the
same process that already holds the parsed inputs (the engine's
in-process route, see :mod:`repro.service.engine`) hands over the
modules instead and skips the second parse; what it hands over is
consumed. Both routes call the one function. Everything mutable the
compilation touches (parser, transform state, interpreter, diagnostics,
interpreter counters) is created fresh inside :func:`compile_job`, so a
worker process can execute any number of jobs sequentially and each
behaves exactly like a standalone ``repro-opt`` invocation: pooled and
sequential runs produce byte-identical output and identical stats.
"""

from __future__ import annotations

import gc
import os
import signal
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..ir.attributes import StringAttr
from ..ir.core import Operation

#: Parameter bindings: name -> int or list of ints (the values a
#: ``transform.param.constant`` op can carry).
ParamBindings = Mapping[str, Union[int, Sequence[int]]]

#: Set in a pool worker process only (:func:`serve`): where
#: :func:`compile_job` leaves the modules it would free, so the worker
#: frees them after the reply is sent. None in every other process.
_unfreed: Optional[List[Operation]] = None

#: Jobs in flight in this process, and whether the cyclic collector was
#: on when the first of them began (:func:`collector_paused`).
_jobs_in_flight = 0
_collector_was_enabled = False
_pause_lock = threading.Lock()


@contextmanager
def collector_paused():
    """Keep the cyclic collector off while at least one job is in
    flight in this process.

    A job leaves no cyclic garbage (``Operation.destroy`` breaks the
    IR's cycles, DESIGN.md §11), so a collection while its IR is alive
    scans all of it and finds nothing. The collector is process state,
    so the count of jobs is module state: nested and concurrent jobs
    share one pause, and the last to finish turns the collector back on
    only if it was on when the first began."""
    global _jobs_in_flight, _collector_was_enabled
    with _pause_lock:
        if not _jobs_in_flight:
            _collector_was_enabled = gc.isenabled()
            gc.disable()
        _jobs_in_flight += 1
    try:
        yield
    finally:
        with _pause_lock:
            _jobs_in_flight -= 1
            if not _jobs_in_flight and _collector_was_enabled:
                gc.enable()


def _forked() -> None:
    # A forked child runs none of its parent's jobs, and a thread that
    # held the lock at the fork does not exist in it.
    global _jobs_in_flight, _pause_lock
    if _jobs_in_flight and _collector_was_enabled:
        gc.enable()
    _jobs_in_flight = 0
    _pause_lock = threading.Lock()


os.register_at_fork(after_in_child=_forked)


def serve(conn) -> None:
    """A pool worker process's whole life (the engine forks it): take a
    ``(fn, args)`` call off ``conn``, send back ``(True, fn(*args))`` or
    ``(False, the exception)``, then free the job's IR — the caller is
    not kept waiting for it, and the next call still starts with it
    freed. The collector is paused from the call until the IR is freed
    (:func:`collector_paused`). Returns when the engine's end is gone;
    the engine kills it sooner."""
    global _unfreed
    _unfreed = []
    # Forked off a daemon, the worker would share its event loop's
    # signal wakeup fd and handlers: a SIGTERM sent to the worker would
    # stop the daemon and leave the worker running.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    while True:
        try:
            fn, args = conn.recv()
        except EOFError:
            return
        with collector_paused():
            try:
                reply = (True, fn(*args))
            except Exception as error:
                reply = (False, error)
            conn.send(reply)
            for module in _unfreed:
                module.destroy()
            _unfreed.clear()


def _ensure_registered() -> None:
    """Import the op/pass registries (idempotent; needed when the pool
    uses the ``spawn`` start method and children start blank)."""
    import repro.core  # noqa: F401 — registers transform ops
    import repro.dialects  # noqa: F401 — registers payload ops
    import repro.passes  # noqa: F401 — registers passes


def bind_parameters(script: Operation, params: ParamBindings) -> int:
    """Override named ``transform.param.constant`` ops with ``params``.

    A param op opts into binding by carrying a ``binding`` string
    attribute; when a job provides a value under that name, the op's
    ``value`` attribute is replaced before interpretation::

        %sz = "transform.param.constant"()
              {binding = "tile_size", value = 4 : i64} ...

    Returns the number of ops rebound. Unknown binding names are
    ignored (the schedule's baked-in default stays in force), so one
    schedule library serves both bound and unbound traffic.
    """
    bound = 0
    if not params:
        return bound
    for op in script.walk():
        if op.name != "transform.param.constant":
            continue
        binding = op.attr("binding")
        if not isinstance(binding, StringAttr):
            continue
        if binding.value not in params:
            continue
        value = params[binding.value]
        op.set_attr(
            "value",
            list(value) if isinstance(value, (list, tuple)) else int(value),
        )
        bound += 1
    return bound


@collector_paused()
def compile_job(payload: Union[str, Operation],
                script: Union[str, Operation],
                params: Optional[ParamBindings] = None,
                entry_point: Optional[str] = None,
                inject: Optional[str] = None,
                trace: Optional[Tuple[str, str]] = None,
                function_tier: bool = False
                ) -> Dict[str, object]:
    """Compile one (payload, script, params) job; returns a plain dict.

    Each input is either text, parsed here inside the ``worker.parse``
    span, or an already parsed module that the caller gives up: the
    compilation transforms ``payload`` in place, rebinds ``script``'s
    parameters, inlines its macros and destroys both on its way out
    (:meth:`~repro.ir.core.Operation.destroy`; a pool worker's
    :func:`serve` does it once the reply is sent), so neither may be an
    object anyone else still reads.

    The return value is deliberately pickle-friendly (strings, numbers
    and plain span records) so it survives the pool's result channel
    unchanged:

    ``status``
        ``"success"`` | ``"silenceable"`` | ``"definite"``;
        unexpected exceptions (a crash in transform code the barrier
        did not wrap, a payload verifier error) are encoded here as
        ``"definite"`` rather than raised, so pooled and in-process
        execution classify identically;
    ``output``
        the printed transformed payload (None on definite failure);
    ``output_digest``
        the digest (:func:`repro.ir.hashing.op_digest`: the hash of
        its print, composed from its functions' for an all-function
        module) of the transformed payload, computed in the worker off
        the live IR — consumers compare output identity by digest
        instead of reparsing or re-hashing the text (None on failure);
    ``functions``
        with ``function_tier`` and a ``"success"`` status, the
        function-tier view of the transformed payload: ``(entry text,
        digest of the function, names)`` per top-level function
        (:func:`repro.service.sharding.function_entries`). ``output``
        is the entries' bodies joined in the module's own shell, byte
        for byte what ``print_op`` of the module gives. Either way each
        function is printed once, for ``output``, its digest and its
        entry (:func:`repro.ir.hashing.printed`). None when the output
        is not a cleanly splittable all-function module (see
        :func:`repro.service.sharding.shardable_functions` — ``output``
        is then the plain whole-module print), on any other status and
        without the flag;
    ``attrs_digest``
        alongside ``functions``, the digest of the transformed
        module's own attributes — the engine stores nothing unless it
        still equals the input's (None whenever ``functions`` is);
    ``diagnostics``
        the rendered diagnostic stream (empty when clean);
    ``stats``
        the interpreter's counters, job-local by construction;
    ``wall_seconds``
        in-worker wall time (parse + interpret + print).
    ``spans``
        the :class:`~repro.observability.Span` records of a traced job
        (see ``trace`` below), as the worker's tracer holds them; empty
        without ``trace``.

    ``inject`` is the fault-injection hook for the chaos harness
    (:mod:`repro.testing.faults`): ``"crash"`` kills this worker
    process outright (no exception barrier can contain ``os._exit``),
    ``"hang"`` blocks it past any deadline. Both fire *before* any
    compilation state exists — they model infrastructure death, not
    compile bugs — and are only ever passed by an engine running a
    :class:`~repro.testing.faults.FaultPlan` on a pooled execution.

    ``trace`` is the cross-process span propagation hook: the
    ``(trace id, parent span id)`` of the engine-side dispatch span.
    When present the worker records spans locally (``worker.compile``
    over ``worker.parse`` / ``worker.interpret`` — with one child span
    per top-level transform op — / ``worker.print``, which verifies,
    prints — function by function for an all-function module — and
    digests) into a tracer of that trace and ships them back under
    ``"spans"``, so a job's trace is complete across the pool
    boundary.

    ``function_tier`` is set by the engine — never by a user — for a
    job whose output it will publish to the per-function cache tier;
    both the pooled and the in-process route pass the same value.

    The cyclic collector is paused for the whole call, parse to
    ``destroy`` (:func:`collector_paused`).
    """
    if inject == "crash":
        os._exit(3)
    elif inject == "hang":
        time.sleep(3600.0)
    from ..core.errors import TransformInterpreterError
    from ..core.interpreter import TransformInterpreter
    from ..ir.hashing import attributes_digest, printed
    from ..ir.parser import parse
    from .sharding import function_entries

    _ensure_registered()
    tracer = None
    root = None
    if trace is not None:
        from ..observability.tracing import Tracer

        trace_id, parent_id = trace
        tracer = Tracer(trace_id=trace_id)
        root = tracer.start_span(
            "worker.compile", parent=parent_id,
            attributes={"worker_pid": os.getpid()},
        )

    def _span(name: str):
        return (tracer.span(name, parent=root)
                if tracer is not None else nullcontext())

    def _finish(raw: Dict[str, object]) -> Dict[str, object]:
        # Every non-raising path ends here with the IR dead (``raw``
        # holds none of it): free it — now, or in a pool worker once
        # the reply is sent — or module after module floats until a
        # full garbage collection (DESIGN.md §10).
        free = Operation.destroy if _unfreed is None else _unfreed.append
        for module in (payload, script):
            if isinstance(module, Operation):
                free(module)
        if tracer is not None:
            status = str(raw["status"])
            tracer.end_span(root, "ok" if status == "success" else status)
            raw["spans"] = tracer.spans()
        else:
            raw["spans"] = []
        return raw

    start = time.perf_counter()
    interpreter = None

    def _failed(diagnostics: str) -> Dict[str, object]:
        return _finish({
            "status": "definite",
            "output": None,
            "output_digest": None,
            "functions": None,
            "attrs_digest": None,
            "diagnostics": diagnostics,
            "stats": asdict(interpreter.stats) if interpreter else {},
            "wall_seconds": time.perf_counter() - start,
        })

    status = "success"
    functions = attrs_digest = None
    try:
        with _span("worker.parse"):
            if isinstance(payload, str):
                payload = parse(payload, "<payload>")
            if isinstance(script, str):
                script = parse(script, "<script>")
        if params:
            bind_parameters(script, params)
        interpreter = TransformInterpreter()
        with _span("worker.interpret") as interpret_span:
            if interpret_span is not None:
                interpreter.tracer = tracer
                interpreter.trace_parent = interpret_span
            result = interpreter.apply(script, payload, entry_point)
        if result.is_silenceable:
            status = "silenceable"
        with _span("worker.print"):
            payload.verify()
            output, output_digest, prints = printed(payload)
            if function_tier and status == "success":
                functions = function_entries(payload, prints)
                if functions is not None:
                    attrs_digest = attributes_digest(payload)
    except TransformInterpreterError as error:
        return _failed(str(error))
    except Exception as error:
        # Anything the interpreter's barrier did not wrap: payload
        # verifier failures, crashes in transform code and — for a
        # caller other than the engine, which rejects unparsable
        # input before dispatch — parse errors. Encoding it here, in
        # the worker, is what keeps pooled and workers=0
        # classification identical.
        return _failed(f"error: {type(error).__name__}: {error}")
    return _finish({
        "status": status,
        "output": output,
        "output_digest": output_digest,
        "functions": functions,
        "attrs_digest": attrs_digest,
        "diagnostics": (interpreter.diagnostics.render()
                        if interpreter.diagnostics.diagnostics else ""),
        "stats": asdict(interpreter.stats),
        "wall_seconds": time.perf_counter() - start,
    })

