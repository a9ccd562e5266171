"""Command-line-style entry points (the ``mlir-opt`` analog).

The paper's workflow keeps payload and transform script in separate
files; :func:`transform_opt` mirrors that: both inputs are textual IR,
the script is interpreted against the payload, and the transformed
payload is printed back. A pass-pipeline mode mirrors plain
``mlir-opt --pass-pipeline=...``.

Usage from a shell::

    python -m repro.tools payload.mlir --script schedule.mlir
    python -m repro.tools payload.mlir --pipeline canonicalize,cse
    python -m repro.tools payload.mlir --script schedule.mlir --verify

``--verify`` runs the ``repro-lint`` analysis suite (use-after-consume,
structure, the pipeline condition check against the payload's op specs)
before interpreting anything and reports MLIR-style ``error:``/``note:``
diagnostics (use site and consuming op; a defect inside an included
macro is reported at ``loc(callsite(...))``) on stderr, aborting before
interpretation when any error fires; warnings are printed and the run
goes on (``repro-lint --werror`` is the strict spelling).

``transform.print`` output goes to stderr; stdout is the payload.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import repro.core  # noqa: F401 — registers transform ops
import repro.dialects  # noqa: F401 — registers payload ops
import repro.passes  # noqa: F401 — registers passes
from .core.conditions import payload_op_specs
from .core.errors import TransformInterpreterError
from .core.interpreter import TransformInterpreter
from .ir.parser import parse
from .ir.printer import print_op
from .passes.manager import parse_pipeline


class ToolError(Exception):
    """A user-facing tool failure (bad input, failed check, ...)."""


def transform_opt(
    payload_text: str,
    script_text: str,
    entry_point: Optional[str] = None,
    profiler=None,
    strict: bool = False,
    verify: bool = False,
    tracer=None,
) -> str:
    """Apply a textual transform script to a textual payload.

    Returns the transformed payload in textual form. With ``verify``,
    the ``repro-lint`` suite runs first, printing MLIR-style
    ``error:``/``note:`` diagnostics to stderr, and aborts on errors.
    ``profiler`` (a :class:`repro.profiling.Profiler`) collects the
    timing report.
    Definite interpretation failures raise
    :class:`~repro.core.errors.TransformInterpreterError` whose message
    is the interpreter's MLIR-style ``error:``/``note:`` diagnostic
    chain; ``strict`` disables the exception barrier so crashes in
    transform code propagate raw (for debugging).

    ``tracer`` (a :class:`repro.observability.Tracer`) records one
    span per top-level transform op. ``transform.print`` output is
    written to stderr.
    """
    payload = parse(payload_text, "<payload>")
    script = parse(script_text, "<script>")

    if verify:
        from .analysis.lint import lint_script

        engine = lint_script(
            script,
            payload_specs=payload_op_specs(payload),
            entry_point=entry_point,
        )
        if engine.diagnostics:
            print(engine.render(), file=sys.stderr)
        if engine.has_errors():
            raise ToolError(
                f"static verification failed with "
                f"{len(engine.errors)} error(s) (see diagnostics above)"
            )

    interpreter = TransformInterpreter(profiler=profiler, strict=strict,
                                       tracer=tracer)
    try:
        result = interpreter.apply(script, payload, entry_point)
    finally:
        # What transform.print printed before a failure is still shown.
        for block in interpreter.output:
            print(block, file=sys.stderr)
    if result.is_silenceable:
        print(f"warning: {interpreter.diagnostics.render()}",
              file=sys.stderr)
    payload.verify()
    return print_op(payload)


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
    parser.add_argument("--verify", action="store_true",
                        help="run the repro-lint static analysis suite "
                        "before interpreting; report error:/note: "
                        "diagnostics on stderr")
    parser.add_argument("--strict", action="store_true",
                        help="disable the exception barrier: crashes in "
                        "transform/pattern code propagate raw")
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
                payload_text, script_text, args.entry_point,
                profiler=profiler, strict=args.strict,
                verify=args.verify, tracer=tracer,
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
