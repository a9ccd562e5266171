"""Transformations *of* transform scripts (paper §3.4).

Because Transform IR is ordinary compiler IR, it can itself be
transformed:

* :func:`expand_includes` — macro expansion of ``transform.include``
  via the ordinary inlining machinery (recursion is rejected by call
  graph cycle detection); :func:`inlined_script` is the expanded copy
  the static analyses read;
* canonicalization patterns for transform ops — with ``Pure`` on
  ``param.constant``, the ordinary ``canonicalize`` and ``cse`` passes
  simplify a script: ``unroll by 1`` is a no-op, unused ops that only
  produce handles and cannot fail are dead, equal constants are shared;
* :func:`infer_ad_dialects` — the Fig. 5 introspection: walk the script
  to determine at which abstraction level (stablehlo / arith / llvm) an
  ``autodiff`` transform sits, and configure the kind of "add" it emits.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ..ir.attributes import StringAttr, SymbolRefAttr, unwrap
from ..ir.core import Operation
from ..passes.canonicalize import register_canonicalization
from ..passes.inliner import (
    InliningError,
    arity_mismatch,
    detect_recursion,
    inline_call,
)
from ..rewrite.pattern import PatternRewriter, pattern
from .dialect import TransformOp


class ScriptTransformError(Exception):
    """A script transformation failed, carrying the offending op."""

    def __init__(self, message: str, op: Optional[Operation] = None):
        super().__init__(message)
        self.op = op


# ---------------------------------------------------------------------------
# Include expansion (macros -> inline bodies)
# ---------------------------------------------------------------------------


def include_errors(script: Operation) -> List[Tuple[Operation, str]]:
    """Every ill-formed ``transform.include`` under ``script`` with
    its message, in walk order — an unknown target, an argument or
    result count its callee does not have — then the include that
    closes a cycle (macros must be acyclic, §3.4): the one wording
    lint reports and :func:`expand_includes` raises."""
    errors = []
    includes = list(script.walk_ops("transform.include"))
    for include in includes:
        target = include.attr("target")
        callee = include.callee()
        if callee is None:
            errors.append((include,
                           f"transform.include of unknown symbol {target}"
                           if target is not None else
                           "transform.include without a 'target' symbol"))
            continue
        mismatch = arity_mismatch(include, callee.body)
        if mismatch is not None:
            errors.append((include, f"transform.include of {target}: "
                                    f"{mismatch} count mismatch"))
    cycle = detect_recursion(script, "transform.named_sequence",
                             "transform.include", "target") \
        if includes else None
    if cycle is not None:
        errors.append((cycle, f"recursive transform.include of "
                              f"{cycle.attr('target')}; macros must be "
                              "acyclic"))
    return errors


def expand_includes(script: Operation) -> int:
    """Inline every ``transform.include``; returns the expansion count.

    The ordinary inliner applied to transform IR: every include is
    checked first (:func:`include_errors`; the first error is raised
    with the script untouched), then each is an
    :func:`~repro.passes.inliner.inline_call` of its callee, repeated
    until the includes an expansion pasted in are expanded too.
    """
    errors = include_errors(script)
    if errors:
        op, message = errors[0]
        raise ScriptTransformError(message, op)
    total = 0
    while True:
        includes = list(script.walk_ops("transform.include"))
        if not includes:
            return total
        for include in includes:
            try:
                inline_call(include, include.callee())
            except InliningError as error:
                raise ScriptTransformError(str(error), include) from error
            total += 1


def inlined_script(script: Operation) -> Operation:
    """The one reading of a script the static analyses share: the
    script itself when it includes nothing, else a clone with its
    macros inlined by :func:`expand_includes`, so every inlined op is
    located ``callsite(<op in the macro> at <include>)``. When
    expansion fails — an unknown, recursive or arity-mismatched
    include, each a lint error of its own — the script as written, in
    which an include has no effect."""
    if next(script.walk_ops("transform.include"), None) is None:
        return script
    expanded = script.clone()
    try:
        expand_includes(expanded)
    except ScriptTransformError:
        return script
    return expanded


def included_symbols(script: Operation) -> Set[str]:
    """The names some ``transform.include`` under ``script`` targets."""
    return {op.attr("target").name
            for op in script.walk_ops("transform.include")
            if isinstance(op.attr("target"), SymbolRefAttr)}


# ---------------------------------------------------------------------------
# Canonicalization patterns for transform ops
# ---------------------------------------------------------------------------
#
# A script is simplified the way payload IR is: ``expand_includes``,
# then ``PassManager(["canonicalize", "cse"])``. ``param.constant`` is
# the one ``Pure`` transform op, so CSE shares equal constants (every
# attribute is keyed, ``binding`` included) and canonicalize drops
# unused ones. Every other rule is a pattern below; each keeps the
# outcome of any script that does not end in a definite error. An
# ``apply_patterns`` with no patterns still runs the greedy driver,
# which erases dead pure payload ops, so it is not a no-op; nor is
# tiling by 0 (§3.4's other example): in this interpreter a lone zero
# size fails silenceably and an all-zero nest is rebuilt.


@register_canonicalization
@pattern("transform.*", label="erase-unused-transform-result-only")
def erase_unused_result_only(op: Operation,
                             rewriter: PatternRewriter) -> bool:
    """An op declared ``RESULT_ONLY`` that cannot fail silenceably is
    dead when no result is used. An unused op that *can* fail stays:
    its failure skips the rest of its block."""
    if not isinstance(op, TransformOp) or not op.RESULT_ONLY \
            or op.may_fail_silenceably() \
            or any(result.has_uses() for result in op.results):
        return False
    rewriter.erase_op(op)
    return True


@register_canonicalization
@pattern("transform.loop.unroll", label="erase-unroll-by-one")
def erase_unroll_by_one(op: Operation, rewriter: PatternRewriter) -> bool:
    """Unrolling by 1 is a no-op (§3.4). A factor operand overrides the
    attribute, so only the one-operand form is static."""
    if op.num_operands != 1 or op.attr("full") is not None:
        return False
    factor = op.attr("factor")
    if factor is None or unwrap(factor) not in (1, [1]):
        return False
    rewriter.erase_op(op)
    return True


@register_canonicalization
@pattern("transform.alternatives", label="erase-empty-alternatives")
def erase_empty_alternatives(op: Operation,
                             rewriter: PatternRewriter) -> bool:
    """An ``alternatives`` whose regions are all empty does nothing."""
    if not all(region.is_empty for region in op.regions) \
            or any(result.has_uses() for result in op.results):
        return False
    rewriter.erase_op(op)
    return True


# ---------------------------------------------------------------------------
# AD introspection (Fig. 5)
# ---------------------------------------------------------------------------

#: Pass names that move the payload to a lower abstraction level.
_LEVEL_TRANSITIONS = {
    "convert-stablehlo-to-arith": "arith",
    "convert-arith-to-llvm": "llvm",
}


def infer_ad_dialects(script: Operation,
                      initial_level: str = "stablehlo") -> int:
    """Set ``add_dialect`` on every ``transform.autodiff`` op by
    introspecting its position in the script (Fig. 5).

    Walks each sequence body in order, tracking the abstraction level
    implied by the lowering passes seen so far; an ``autodiff`` op
    scheduled between ``convert-stablehlo-to-arith`` and
    ``convert-arith-to-llvm`` must emit ``arith.addf``, and so on.
    Returns the number of autodiff ops configured.
    """
    configured = 0
    for sequence in script.walk():
        if sequence.name not in ("transform.sequence",
                                 "transform.named_sequence"):
            continue
        if not sequence.regions or not sequence.regions[0].blocks:
            continue
        level = initial_level
        for op in sequence.regions[0].entry_block.ops:
            if op.name == "transform.apply_registered_pass":
                pass_name = op.attr("pass_name")
                if isinstance(pass_name, StringAttr):
                    level = _LEVEL_TRANSITIONS.get(pass_name.value, level)
            elif op.name == "transform.autodiff":
                if op.attr("add_dialect") is None:
                    op.set_attr("add_dialect", level)
                    configured += 1
    return configured
