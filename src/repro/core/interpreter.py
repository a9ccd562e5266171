"""The transform interpreter (paper §3).

Walks a transform script top to bottom, maintaining the handle/payload
association table (:class:`~repro.core.state.TransformState`), dispatching
each transform op's ``apply`` and processing handle consumption. Errors
follow the paper's model: *silenceable* errors skip the remainder of the
current region and bubble to the parent (which may suppress them, as
``alternatives`` does); *definite* errors abort interpretation. A
``transform.include`` has no rule here: :meth:`TransformInterpreter.
apply` inlines every macro before the script runs, so the interpreter
runs the script the static analyses read.

Two robustness layers sit around ``apply`` dispatch:

* an **exception barrier**: arbitrary Python exceptions escaping a
  transform's ``apply`` (or a pattern rewrite under
  ``transform.apply_patterns``) become *definite* failures carrying the
  transform-stack backtrace — the chain of enclosing
  sequence/alternatives/foreach ops — instead of crashing the process.
  Construct the interpreter with ``strict=True`` to re-raise the raw
  exception at the crash site for debugging;
* **diagnostic routing**: every interpretation failure is emitted to a
  :class:`~repro.ir.diagnostics.DiagnosticEngine` as an MLIR-style
  ``error: ... note: while executing ...`` diagnostic with payload and
  transform :class:`~repro.ir.location.Location`\\ s attached.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

from ..ir.core import Block, Operation
from ..ir.diagnostics import Diagnostic, DiagnosticEngine, Severity
from .errors import TransformInterpreterError, TransformResult
from .script_transforms import ScriptTransformError, expand_includes
from .state import HandleInvalidatedError, TransformState


@dataclass
class InterpreterStats:
    """Execution statistics (used by the overhead study, Table 1).

    ``transforms_executed`` and ``handles_created`` count *successful*
    transform applications only; ``handles_invalidated`` counts every
    handle actually invalidated by consumption, aliases included.
    ``exceptions_contained`` counts Python exceptions the barrier
    converted into definite failures.
    """

    transforms_executed: int = 0
    handles_created: int = 0
    handles_invalidated: int = 0
    exceptions_contained: int = 0


def top_level_ops(script: Operation) -> List[Operation]:
    """The script's immediate ops (the entry-point candidates)."""
    if script.name in ("transform.sequence", "transform.named_sequence"):
        return [script]
    return [op for region in script.regions for block in region.blocks
            for op in block.ops]


def find_entry(script: Operation,
               entry_point: Optional[str] = None) -> Optional[Operation]:
    """The op a script runs — the one rule the interpreter, the static
    analyses and the function-tier gate share. A (named) sequence is
    its own entry. In a module only top-level ops are candidates
    (sequences nested in macro bodies are helpers, never the entry):
    ``entry_point`` selects a named sequence by symbol name, otherwise
    a ``transform.sequence`` wins over named sequences, which are macro
    *definitions*."""
    named: List[Operation] = []
    for op in top_level_ops(script):
        if op is script:
            return script
        if op.name == "transform.sequence" and entry_point is None:
            return op
        if op.name == "transform.named_sequence":
            named.append(op)
    if entry_point is not None:
        return next((op for op in named if op.sym_name == entry_point),
                    None)
    return named[0] if named else None


class TransformInterpreter:
    """Executes transform scripts against a payload module."""

    def __init__(self, track_invalidation: bool = True,
                 profiler=None,
                 strict: bool = False,
                 tracer=None,
                 trace_parent=None):
        #: Ablation knob: disable nested-alias invalidation tracking.
        self.track_invalidation = track_invalidation
        #: Optional :class:`repro.profiling.Profiler` recording
        #: per-transform-op timing and invalidation fan-out.
        self.profiler = profiler
        #: Debugging escape hatch: re-raise exceptions from ``apply``
        #: instead of converting them into definite failures.
        self.strict = strict
        #: Optional :class:`repro.observability.Tracer`: one span per
        #: *top-level* transform op (direct children of the entry
        #: sequence — the ``-mlir-timing`` granularity), linked to the
        #: failure diagnostics via span status/attributes.
        #: ``trace_parent`` (a span or a span id) parents the
        #: outermost spans — the worker's "interpret" span when the
        #: interpreter runs inside the compile service.
        self.tracer = tracer
        self.trace_parent = trace_parent
        self._span_stack: List = []
        #: Collects MLIR-style diagnostics for every failure.
        self.diagnostics = DiagnosticEngine()
        self.output: List[str] = []
        self.stats = InterpreterStats()
        #: Enclosing transform ops, outermost first (the op currently
        #: being applied is the last entry). Failures snapshot this as
        #: their backtrace.
        self._stack: List[Operation] = []

    # -- entry points --------------------------------------------------------

    def apply(self, script: Operation, payload: Operation,
              entry_point: Optional[str] = None) -> TransformResult:
        """Run ``script`` (a sequence, named sequence, or a module
        containing one) on ``payload``. Raises
        :class:`TransformInterpreterError` on definite errors; returns
        the final :class:`TransformResult` otherwise.

        ``script`` is modified: every ``transform.include`` in it is
        inlined in place first
        (:func:`~repro.core.script_transforms.expand_includes`), the
        reading the static analyses take, so an op failing inside a
        macro is located ``callsite(<op in the macro> at <include>)``.
        A caller that reads its script after the run passes a clone. An
        ill-formed include — unknown, recursive or arity-mismatched,
        worded as lint words it — is a definite error at that include,
        raised before any transform runs, even one in a region that
        would never run. Scripts are not otherwise checked statically
        here: ``lint_script`` is the one static gate (the compile
        engine's preflight, ``repro-opt --verify``).
        """
        try:
            expand_includes(script)
        except ScriptTransformError as error:
            self._raise(TransformResult.definite(str(error), error.op))
        state = TransformState(payload)
        entry = find_entry(script, entry_point)
        if entry is None:
            self._raise(TransformResult.definite(
                "no transform entry point found in script"
            ))
        if entry.name == "transform.named_sequence":
            body = entry.regions[0].entry_block
            if body.args:
                state.set_payload(body.args[0], [payload])
            self._stack.append(entry)
            try:
                result = self.run_block(body, state)
            finally:
                self._stack.pop()
        else:
            result = self.execute(entry, state)
        if result.is_definite:
            self._raise(result)
        if result.is_silenceable:
            self._diagnose(result, Severity.WARNING)
        return result

    # -- diagnostics ---------------------------------------------------------

    def _raise(self, result: TransformResult) -> None:
        """Diagnose the definite failure ``result`` and raise it."""
        raise TransformInterpreterError(
            result, self._diagnose(result, Severity.ERROR))

    def _diagnose(self, result: TransformResult,
                  severity: Severity) -> Diagnostic:
        """Render ``result`` as an MLIR-style diagnostic and record it."""
        diagnostic = Diagnostic(severity, result.message, result.location)
        if result.cause is not None:
            diagnostic.attach_note(
                f"contained Python exception: "
                f"{type(result.cause).__name__}: {result.cause}",
                result.location,
            )
        for payload_op in result.payload_ops:
            diagnostic.attach_note(
                f"on payload op '{payload_op.name}'", payload_op.location
            )
        failing = result.transform_op
        for frame in reversed(result.backtrace):
            if frame is failing:
                continue  # the failure's own location heads the message
            diagnostic.attach_note(
                f"while executing '{frame.name}'", frame.location
            )
        self.diagnostics.emit(diagnostic)
        return diagnostic

    # -- execution ------------------------------------------------------------

    def run_block(self, block: Block,
                  state: TransformState) -> TransformResult:
        """Execute each transform in a block sequentially (paper §3).

        A silenceable error skips the remainder of the block and is
        returned to the parent transform for handling.
        """
        for op in list(block.ops):
            if op.name == "transform.yield":
                break
            result = self.execute(op, state)
            if not result.succeeded:
                return result
        return TransformResult.success()

    def execute(self, op: Operation,
                state: TransformState) -> TransformResult:
        from .dialect import TransformOp

        if not isinstance(op, TransformOp):
            result = TransformResult.definite(
                f"'{op.name}' is not a transform operation", op
            )
            result.backtrace = [*self._stack, op]
            return result
        # One span per top-level transform op (the entry itself and
        # the direct children of the entry sequence); nested ops are
        # timing detail the profiler already attributes.
        span = None
        if self.tracer is not None and len(self._stack) <= 1:
            span = self.tracer.start_span(
                op.name,
                parent=(self._span_stack[-1] if self._span_stack
                        else self.trace_parent),
                attributes={"loc": str(op.location)},
            )
            self._span_stack.append(span)
        self._stack.append(op)
        start = time.perf_counter() if self.profiler is not None else 0.0
        result: Optional[TransformResult] = None
        try:
            result = self._check_operands(op, state)
            if result is None:
                result = op.apply(self, state)
        except HandleInvalidatedError as error:
            result = TransformResult.definite(str(error), op)
        except TransformInterpreterError:
            # A nested interpreter invocation already diagnosed and
            # raised; never double-wrap its failure.
            raise
        except Exception as error:  # the exception barrier
            if self.strict:
                raise
            self.stats.exceptions_contained += 1
            result = TransformResult.definite(
                f"uncaught {type(error).__name__} in '{op.name}': {error}",
                op, cause=error,
            )
        finally:
            self._stack.pop()
            if self.profiler is not None:
                self.profiler.record_transform(
                    op.name, time.perf_counter() - start
                )
            if span is not None:
                self._span_stack.pop()
                # `result` is still None when an exception propagates
                # (strict mode, nested interpreter error): the span
                # still ends, flagged as an error.
                if result is None:
                    status = "error"
                elif result.succeeded:
                    status = "ok"
                else:
                    # Link the span to the diagnostic stream: the
                    # failure kind is the status, the message is the
                    # diagnostic text the engine renders.
                    status = ("silenceable" if result.is_silenceable
                              else "definite")
                    span.attributes["message"] = result.message
                self.tracer.end_span(span, status)
        if not result.succeeded and not result.backtrace:
            # First observation of this failure: snapshot the enclosing
            # transform chain (innermost handler fires first, so the
            # stack is still complete).
            result.backtrace = [*self._stack, op]
        if result.succeeded:
            # Stats count successful applications only: a failed apply
            # executed nothing and mapped no result handles.
            self.stats.transforms_executed += 1
            self.stats.handles_created += len(op.results)
            self._process_consumption(op, state)
        return result

    def _process_consumption(self, op: Operation,
                             state: TransformState) -> None:
        """Invalidate the handles ``op`` consumes and their aliases, but
        never ``op``'s own results: upstream maps those after the
        invalidation, so a result pointing at the consumed payload (or
        into it) survives — the rule the static analysis applies."""
        if not self.track_invalidation:
            return
        for index in op.CONSUMES:
            if index < op.num_operands:
                count = state.invalidate(
                    op.operand(index), f"'{op.name}' consuming its operand",
                    keep=op.results,
                )
                # The real invalidation count: the operand handle plus
                # every alias, not 1 per consumed operand.
                self.stats.handles_invalidated += count
                if self.profiler is not None:
                    self.profiler.record_invalidation(count)

    def _check_operands(self, op: Operation,
                        state: TransformState) -> Optional[TransformResult]:
        """Upstream's check of every handle operand before ``apply``:
        reading an invalidated or unmapped handle raises
        :class:`HandleInvalidatedError`, and each payload op must
        satisfy the operand's handle type (the Fig. 1 RHS static
        typing, enforced dynamically here and statically by the
        checker)."""
        from .types import TransformHandleType

        for operand in op.operands:
            handle_type = operand.type
            if not isinstance(handle_type, TransformHandleType):
                continue
            for payload_op in state.get_payload(operand):
                if not handle_type.accepts_op_name(payload_op.name):
                    return TransformResult.definite(
                        f"payload op '{payload_op.name}' does not satisfy "
                        f"handle type {handle_type}",
                        op,
                    )
        return None
