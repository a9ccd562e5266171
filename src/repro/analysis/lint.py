"""``repro-lint``: the transform-script static analysis driver.

Bundles every static check into one MLIR-style diagnostic stream
(:class:`~repro.ir.diagnostics.DiagnosticEngine`):

* use-after-consume over the script with its macros inlined
  (:mod:`repro.analysis.invalidation`) — ``error:`` at the using op
  with a ``note:`` at the consuming op; an op inlined from a macro is
  located ``callsite(<op in the macro> at <include>)``;
* structural checks on the script as written — ``transform.include``
  without a resolvable ``target``, with an argument or result count
  its callee does not have, and include cycles (macros must be
  acyclic, §3.4: ``error:`` at the include that re-enters a running
  macro) — :func:`~repro.core.script_transforms.include_errors`, the
  wording the interpreter fails with too;
* dead handles — ops declared ``RESULT_ONLY`` (their only effect is
  producing handles or params) none of whose results are used;
* dead macros — ``named_sequence`` definitions never included and not
  the entry point;
* optionally (when payload specs are given) the §3.3 pipeline
  condition check, branch-aware.

Usage::

    repro-lint schedule.mlir
    repro-lint schedule.mlir --payload payload.mlir
    python -m repro.analysis.lint schedule.mlir --werror
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable, List, Optional

from ..core.dialect import declared
from ..core.interpreter import find_entry
from ..core.script_transforms import include_errors, included_symbols
from ..ir.core import Operation
from ..ir.diagnostics import Diagnostic, DiagnosticEngine, Severity
from .invalidation import ERROR, InvalidationIssue, analyze_script
from .pipeline import IssueKind, check_transform_script


def emit_invalidation_diagnostics(
    issues: Iterable[InvalidationIssue],
    engine: DiagnosticEngine,
) -> None:
    """Render analysis issues as error/note (or warning/note) chains."""
    for issue in issues:
        severity = (Severity.ERROR if issue.severity == ERROR
                    else Severity.WARNING)
        diagnostic = Diagnostic(
            severity,
            f"'{issue.use_op.name}' uses an invalidated handle: "
            f"{issue.message}",
            issue.use_op.location,
        )
        diagnostic.attach_note(
            f"handle was consumed here by '{issue.consume_op.name}'",
            issue.consume_op.location,
        )
        engine.emit(diagnostic)


def _lint_dead_handles(script: Operation,
                       engine: DiagnosticEngine) -> None:
    for op in script.walk():
        if not declared(op).RESULT_ONLY or not op.results:
            continue
        if not any(result.has_uses() for result in op.results):
            engine.warning(
                f"dead handle: no result of '{op.name}' is ever used",
                op.location,
            )


def _lint_dead_macros(script: Operation, engine: DiagnosticEngine,
                      entry_point: Optional[str]) -> None:
    included = included_symbols(script)
    entry = find_entry(script, entry_point)
    for op in script.walk():
        if op.name != "transform.named_sequence" or op is entry:
            continue
        sym = getattr(op.attr("sym_name"), "value", None)
        if sym is not None and sym not in included:
            engine.warning(
                f"named sequence @{sym} is never included and is not "
                "the entry point",
                op.location,
            )


def _lint_pipeline(script: Operation, engine: DiagnosticEngine,
                   payload_specs: Iterable[str],
                   final_allowed: Iterable[str],
                   entry_point: Optional[str]) -> None:
    report = check_transform_script(script, payload_specs,
                                    final_allowed, entry_point)
    for issue in report.issues:
        if issue.kind is IssueKind.UNKNOWN_CONDITIONS:
            engine.remark(str(issue), script.location)
        else:
            engine.error(str(issue), script.location)


def lint_script(
    script: Operation,
    payload_specs: Optional[Iterable[str]] = None,
    final_allowed: Iterable[str] = ("llvm.*",),
    entry_point: Optional[str] = None,
    engine: Optional[DiagnosticEngine] = None,
    may_alias: bool = False,
) -> DiagnosticEngine:
    """Run every static check over ``script``; returns the engine.

    ``may_alias=True`` additionally reports the coarse worst-case
    aliasing warnings the fuzzer's static-soundness oracle relies on
    (noisy for human consumption, hence off by default).
    """
    engine = engine or DiagnosticEngine()
    issues = analyze_script(script, may_alias=may_alias)
    emit_invalidation_diagnostics(issues, engine)
    for op, message in include_errors(script):
        engine.error(message, op.location)
    _lint_dead_handles(script, engine)
    _lint_dead_macros(script, engine, entry_point)
    if payload_specs is not None:
        _lint_pipeline(script, engine, payload_specs, final_allowed,
                       entry_point)
    return engine


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="statically analyze a transform script: "
        "use-after-consume (macros inlined), structure, dead handles, "
        "and optionally the pipeline condition check",
    )
    parser.add_argument("script",
                        help="transform script IR file ('-' = stdin)")
    parser.add_argument("--payload", default=None,
                        help="payload IR file: enables the pipeline "
                        "condition check against its op specs")
    parser.add_argument("--entry-point", default=None,
                        help="named sequence acting as the entry point")
    parser.add_argument("--final-allowed", action="append", default=None,
                        metavar="SPEC",
                        help="op spec allowed after the pipeline "
                        "(repeatable; default: llvm.*)")
    parser.add_argument("--may-alias", action="store_true",
                        help="also report worst-case aliasing warnings")
    parser.add_argument("--werror", action="store_true",
                        help="treat warnings as errors")
    args = parser.parse_args(argv)

    import repro.core  # noqa: F401 — registers transform ops
    import repro.dialects  # noqa: F401 — registers payload ops
    import repro.passes  # noqa: F401 — registers passes
    from ..core.conditions import payload_op_specs
    from ..ir.parser import parse

    script_text = (sys.stdin.read() if args.script == "-"
                   else open(args.script).read())
    script = parse(script_text, "<script>" if args.script == "-"
                   else args.script)
    payload_specs = None
    if args.payload is not None:
        payload_specs = payload_op_specs(
            parse(open(args.payload).read(), args.payload)
        )
    engine = lint_script(
        script,
        payload_specs=payload_specs,
        final_allowed=args.final_allowed or ("llvm.*",),
        entry_point=args.entry_point,
        may_alias=args.may_alias,
    )
    if engine.diagnostics:
        print(engine.render())
    failed = engine.has_errors() or (args.werror and engine.warnings)
    if failed:
        return 1
    print(f"{args.script}: no issues found"
          if not engine.diagnostics else
          f"{args.script}: no errors (warnings above)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
