"""Transformations *of* transform scripts (paper §3.4).

Because Transform IR is ordinary compiler IR, it can itself be
transformed:

* :func:`expand_includes` — macro expansion of ``transform.include``
  via the ordinary inlining machinery (recursion is rejected by call
  graph cycle detection); :func:`inlined_script` is the expanded copy
  the static analyses read;
* :func:`simplify_script` — peephole simplification that keeps the
  script's outcome: ``unroll by 1`` is a no-op, unused ops that only
  produce handles and cannot fail are dead, duplicate
  ``param.constant`` ops are shared;
* :func:`infer_ad_dialects` — the Fig. 5 introspection: walk the script
  to determine at which abstraction level (stablehlo / arith / llvm) an
  ``autodiff`` transform sits, and configure the kind of "add" it emits.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..ir.attributes import StringAttr, SymbolRefAttr, unwrap
from ..ir.core import Operation
from ..passes.inliner import InliningError, detect_recursion, inline_call
from .dialect import declared


class ScriptTransformError(Exception):
    pass


# ---------------------------------------------------------------------------
# Include expansion (macros -> inline bodies)
# ---------------------------------------------------------------------------


def expand_includes(script: Operation) -> int:
    """Inline every ``transform.include``; returns the expansion count.

    The ordinary inliner applied to transform IR: the include call
    graph is checked for cycles first (macros must be acyclic, §3.4),
    then each include is an :func:`~repro.passes.inliner.inline_call`
    of its callee, repeated until the includes an expansion pasted in
    are expanded too.
    """
    cycle = detect_recursion(script, "transform.named_sequence",
                             "transform.include", "target")
    if cycle is not None:
        raise ScriptTransformError(
            f"recursive transform.include of {cycle.attr('target')}; "
            "macros must be acyclic"
        )
    total = 0
    while True:
        includes = list(script.walk_ops("transform.include"))
        if not includes:
            return total
        for include in includes:
            callee = include.callee()
            if callee is None:
                raise ScriptTransformError(
                    f"include of unknown sequence {include.attr('target')}"
                )
            try:
                inline_call(include, callee)
            except InliningError as error:
                raise ScriptTransformError(str(error)) from error
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
# Simplification / constant propagation
# ---------------------------------------------------------------------------


def simplify_script(script: Operation) -> int:
    """Peephole-simplify a transform script; returns rewrites applied.

    Rules (paper §3.4): unrolling by 1 is a no-op; an op declared
    ``RESULT_ONLY`` that cannot fail silenceably is dead when no result
    is used (one rule over the op classes' declarations — an unused op
    that *can* fail stays, because its failure skips the rest of the
    block); identical ``param.constant`` ops are shared; an
    ``apply_patterns`` without patterns and an ``alternatives`` with
    only empty regions do nothing. Running these *before*
    interpretation saves the compile time of applying no-op transforms
    to the payload.

    Every rule keeps the outcome: unless the script as written ends in
    a definite error, the simplified script ends in the same status
    class with byte-identical payload — an invariant of
    ``python -m repro.testing.fuzz``. The paper's other example,
    tiling by 0, is not folded: in this interpreter a lone zero size
    is a silenceable failure and an all-zero nest is rebuilt.
    """
    rewrites = 0
    changed = True
    while changed:
        changed = False
        for op in list(script.walk()):
            if op.parent is None:
                continue
            if _simplify_one(op):
                rewrites += 1
                changed = True
        rewrites += _dedupe_params(script)
    return rewrites


def _static_sizes(op: Operation, attr_name: str) -> Optional[List[int]]:
    attr = op.attr(attr_name)
    if attr is None:
        return None
    values = unwrap(attr)
    if isinstance(values, int):
        return [values]
    if isinstance(values, list) and all(isinstance(v, int) for v in values):
        return values
    return None


def _simplify_one(op: Operation) -> bool:
    # A factor operand overrides the attribute: the static rule only
    # applies to the one-operand form.
    if op.name == "transform.loop.unroll" and op.num_operands == 1:
        factors = _static_sizes(op, "factor")
        if factors == [1] and op.attr("full") is None:
            op.erase()
            return True
    facts = declared(op)
    if facts.RESULT_ONLY and not facts.may_fail_silenceably():
        # Dead: it only produces handles, nobody reads them, and
        # skipping it cannot turn a failing run into a clean one.
        if op.results and not any(r.has_uses() for r in op.results):
            op.erase()
            return True
    if op.name == "transform.apply_patterns":
        names = op.pattern_names()  # type: ignore[attr-defined]
        if not names:
            op.erase()
            return True
    if op.name == "transform.alternatives":
        if all(region.is_empty for region in op.regions) \
                and not any(r.has_uses() for r in op.results):
            op.erase()
            return True
    return False


def _dedupe_params(script: Operation) -> int:
    removed = 0
    for sequence in script.walk():
        if sequence.name not in ("transform.sequence",
                                 "transform.named_sequence"):
            continue
        if not sequence.regions or not sequence.regions[0].blocks:
            continue
        seen: Dict[object, Operation] = {}
        for op in list(sequence.regions[0].entry_block.ops):
            if op.name != "transform.param.constant" or op.parent is None:
                continue
            value = op.attr("value")
            key = str(value)
            existing = seen.get(key)
            if existing is None:
                seen[key] = op
            else:
                op.replace_all_uses_with(list(existing.results))
                op.erase()
                removed += 1
    return removed


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
