"""Command-line-style entry points (the ``mlir-opt`` analog).

The paper's workflow keeps payload and transform script in separate
files; :func:`transform_opt` mirrors that: both inputs are textual IR,
the script is interpreted against the payload, and the transformed
payload is printed back. A pass-pipeline mode mirrors plain
``mlir-opt --pass-pipeline=...``.

Usage from a shell::

    python -m repro.tools payload.mlir --script schedule.mlir
    python -m repro.tools payload.mlir --pipeline canonicalize,cse
    python -m repro.tools payload.mlir --script schedule.mlir --check
    python -m repro.tools payload.mlir --script schedule.mlir --verify

``--check`` additionally runs the static script verification
(invalidation analysis) and the static pipeline condition check before
interpreting anything, reporting plain strings. ``--verify`` runs the
full ``repro-lint`` analysis suite instead and reports MLIR-style
``error:``/``note:`` diagnostics (use site, consuming op, and — for
``transform.include`` call sites — the in-body consumer) on stderr,
aborting before interpretation when any error fires.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

import repro.core  # noqa: F401 — registers transform ops
import repro.dialects  # noqa: F401 — registers payload ops
import repro.passes  # noqa: F401 — registers passes
from .core.conditions import payload_op_specs
from .core.errors import TransformInterpreterError
from .core.interpreter import TransformInterpreter
from .analysis import check_transform_script, verify_script
from .ir.parser import parse
from .ir.printer import print_op
from .passes.manager import parse_pipeline


class ToolError(Exception):
    """A user-facing tool failure (bad input, failed check, ...)."""


def transform_opt(
    payload_text: str,
    script_text: str,
    entry_point: Optional[str] = None,
    check: bool = False,
    final_allowed: Sequence[str] = ("llvm.*",),
    profiler=None,
    strict: bool = False,
    verify: bool = False,
    jobs: int = 1,
    tracer=None,
) -> str:
    """Apply a textual transform script to a textual payload.

    Returns the transformed payload in textual form. With ``check``,
    static script verification and the pipeline condition check run
    first and abort on errors (plain-string reporting); with
    ``verify``, the full ``repro-lint`` suite runs instead, printing
    MLIR-style ``error:``/``note:`` diagnostics to stderr. ``profiler``
    (a :class:`repro.profiling.Profiler`) collects the timing report.
    Definite interpretation failures raise
    :class:`~repro.core.errors.TransformInterpreterError` whose message
    is the interpreter's MLIR-style ``error:``/``note:`` diagnostic
    chain; ``strict`` disables the exception barrier so crashes in
    transform code propagate raw (for debugging).

    ``jobs > 1`` fans a multi-function payload out over the compile
    service, one function per worker, when the script provably
    distributes over functions (see :mod:`repro.service.sharding`);
    the output is byte-identical to ``jobs=1``, falling back to the
    sequential path whenever sharding does not apply or any shard
    reports anything but clean success.

    ``tracer`` (a :class:`repro.observability.Tracer`) records one
    span per top-level transform op — and, on the sharded path, the
    full engine/worker span tree of each shard job.
    """
    payload = parse(payload_text, "<payload>")
    script = parse(script_text, "<script>")

    if verify:
        from .analysis.lint import lint_script

        engine = lint_script(
            script,
            payload_specs=payload_op_specs(payload),
            final_allowed=final_allowed,
            entry_point=entry_point,
        )
        if engine.diagnostics:
            print(engine.render(), file=sys.stderr)
        if engine.has_errors():
            raise ToolError(
                f"static verification failed with "
                f"{len(engine.errors)} error(s) (see diagnostics above)"
            )
    if check:
        errors = verify_script(script)
        if errors:
            raise ToolError(
                "static script verification failed:\n"
                + "\n".join(f"  {e}" for e in errors)
            )
        report = check_transform_script(
            script, payload_op_specs(payload), final_allowed
        )
        if not report.ok:
            raise ToolError(
                "static pipeline check failed:\n" + report.render()
            )

    if jobs > 1 and entry_point is None:
        sharded = _transform_opt_sharded(
            payload, script, script_text, jobs,
            strict=strict, tracer=tracer,
        )
        if sharded is not None:
            return sharded

    interpreter = TransformInterpreter(profiler=profiler, strict=strict,
                                       tracer=tracer)
    result = interpreter.apply(script, payload, entry_point)
    if result.is_silenceable:
        print(f"warning: {interpreter.diagnostics.render()}",
              file=sys.stderr)
    payload.verify()
    return print_op(payload)


def _transform_opt_sharded(payload, script, script_text: str, jobs: int,
                           strict: bool = False,
                           tracer=None) -> Optional[str]:
    """Per-function fan-out over the compile service; None when the
    (payload, script) pair is not shardable, any shard failed, or a
    shard's module attributes diverged during reassembly —
    callers fall back to the sequential whole-module path, which also
    reruns non-clean schedules so silenceable skip semantics stay
    whole-module."""
    from .ir.hashing import op_digest
    from .service.engine import CompileEngine, CompileJob, JobStatus
    from .service.resilience import RetryPolicy
    from .service.sharding import (
        is_func_shardable,
        reassemble_module,
        shard_payload,
    )

    if not is_func_shardable(script):
        return None
    shards = shard_payload(payload)
    if shards is None:
        return None
    # Structurally identical shards (same function cloned N times —
    # common in generated payloads) compile once: dedupe by structural
    # digest while the shard ops are in hand, then fan the one result
    # back out positionally.
    shard_for: List[int] = []
    unique_texts: List[str] = []
    seen: dict = {}
    for shard in shards:
        digest = op_digest(shard)
        index = seen.get(digest)
        if index is None:
            index = len(unique_texts)
            seen[digest] = index
            unique_texts.append(print_op(shard))
        shard_for.append(index)
    # No retries here: any shard failure makes this helper return None
    # and the caller rerun the whole module sequentially, so paying for
    # a second pooled attempt first only delays the fallback.
    engine = CompileEngine(
        workers=min(jobs, len(unique_texts)),
        cache=None,
        preflight=False,
        function_tier=False,
        strict=strict,
        retry_policy=RetryPolicy.none(),
        tracer=tracer,
    )
    try:
        unique_results = engine.run_batch([
            CompileJob(payload_text=text, script_text=script_text)
            for text in unique_texts
        ])
    finally:
        engine.shutdown()
    if any(r.status is not JobStatus.SUCCESS for r in unique_results):
        return None
    return reassemble_module(
        payload,
        [unique_results[index].output or "" for index in shard_for],
    )


def pipeline_opt(payload_text: str, pipeline: str, profiler=None) -> str:
    """Run a textual pass pipeline over a textual payload (mlir-opt)."""
    payload = parse(payload_text, "<payload>")
    parse_pipeline(pipeline).run(payload, profiler=profiler)
    payload.verify()
    return print_op(payload)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-opt",
        description="apply a transform script or pass pipeline to "
        "payload IR",
    )
    parser.add_argument("payload", help="payload IR file ('-' = stdin)")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--script", help="transform script IR file")
    group.add_argument("--pipeline", help="comma-separated pass names")
    parser.add_argument("--entry-point", default=None,
                        help="named sequence to run")
    parser.add_argument("--check", action="store_true",
                        help="run static checks before interpreting")
    parser.add_argument("--verify", action="store_true",
                        help="run the repro-lint static analysis suite "
                        "before interpreting; report error:/note: "
                        "diagnostics on stderr")
    parser.add_argument("--strict", action="store_true",
                        help="disable the exception barrier: crashes in "
                        "transform/pattern code propagate raw")
    parser.add_argument("--jobs", type=int, default=1,
                        help="fan a multi-function payload out over N "
                        "service workers when the script distributes "
                        "over functions (output is byte-identical to "
                        "--jobs 1)")
    parser.add_argument("--timing", action="store_true",
                        help="print a -mlir-timing-style report to stderr")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="write a Chrome trace-event JSON (one span "
                        "per top-level transform op) here; open in "
                        "ui.perfetto.dev")
    parser.add_argument("-o", "--output", default="-",
                        help="output file ('-' = stdout)")
    args = parser.parse_args(argv)

    payload_text = (
        sys.stdin.read() if args.payload == "-"
        else open(args.payload).read()
    )
    profiler = None
    if args.timing:
        from .profiling import Profiler

        profiler = Profiler()
    tracer = None
    if args.trace_out is not None:
        from .observability import Tracer

        tracer = Tracer()
    try:
        if args.script is not None:
            script_text = open(args.script).read()
            output = transform_opt(
                payload_text, script_text, args.entry_point, args.check,
                profiler=profiler, strict=args.strict,
                verify=args.verify, jobs=args.jobs, tracer=tracer,
            )
        else:
            output = pipeline_opt(payload_text, args.pipeline,
                                  profiler=profiler)
    except ToolError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except TransformInterpreterError as error:
        # The interpreter already rendered the failure as an MLIR-style
        # error/note diagnostic chain; print it verbatim.
        print(str(error), file=sys.stderr)
        return 1
    if profiler is not None:
        print(profiler.render(), file=sys.stderr)
    if tracer is not None:
        tracer.write_chrome(args.trace_out)
    if args.output == "-":
        print(output)
    else:
        with open(args.output, "w") as handle:
            handle.write(output + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
