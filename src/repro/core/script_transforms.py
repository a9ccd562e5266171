"""Transformations *of* transform scripts (paper §3.4).

Because Transform IR is ordinary compiler IR, it can itself be
transformed:

* :func:`expand_includes` — macro expansion of ``transform.include``
  via the ordinary inlining machinery (recursion is rejected by call
  graph cycle detection);
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
from ..ir.builder import Builder
from ..ir.core import Operation, Value
from .dialect import declared


class ScriptTransformError(Exception):
    pass


# ---------------------------------------------------------------------------
# Include expansion (macros -> inline bodies)
# ---------------------------------------------------------------------------


def _named_sequences(script: Operation) -> Dict[str, Operation]:
    out: Dict[str, Operation] = {}
    for op in script.walk():
        if op.name == "transform.named_sequence":
            name = op.attr("sym_name")
            if isinstance(name, StringAttr):
                out[name.value] = op
    return out


def _include_graph_has_cycle(script: Operation) -> bool:
    sequences = _named_sequences(script)
    edges: Dict[str, Set[str]] = {name: set() for name in sequences}
    for name, sequence in sequences.items():
        for include in sequence.walk_ops("transform.include"):
            target = include.attr("target")
            if isinstance(target, SymbolRefAttr):
                edges[name].add(target.name)

    visiting: Set[str] = set()
    done: Set[str] = set()

    def visit(node: str) -> bool:
        if node in done:
            return False
        if node in visiting:
            return True
        visiting.add(node)
        for succ in edges.get(node, ()):
            if visit(succ):
                return True
        visiting.discard(node)
        done.add(node)
        return False

    return any(visit(node) for node in list(edges))


def expand_includes(script: Operation, max_rounds: int = 32) -> int:
    """Inline every ``transform.include``; returns the expansion count.

    Macros don't support recursion (§3.4) — verified by checking the
    include call graph for cycles before inlining.
    """
    if _include_graph_has_cycle(script):
        raise ScriptTransformError(
            "recursive transform.include graph; macros must be acyclic"
        )
    total = 0
    for _ in range(max_rounds):
        sequences = _named_sequences(script)
        includes = [
            op for op in script.walk_ops("transform.include")
            if op.parent is not None
        ]
        if not includes:
            return total
        for include in includes:
            target = include.attr("target")
            callee = (
                sequences.get(target.name)
                if isinstance(target, SymbolRefAttr)
                else None
            )
            if callee is None:
                raise ScriptTransformError(
                    f"include of unknown sequence {target}"
                )
            _inline_include(include, callee)
            total += 1
    raise ScriptTransformError("include expansion did not converge")


def _inline_include(include: Operation, callee: Operation) -> None:
    body = callee.regions[0].entry_block
    if len(body.args) != include.num_operands:
        raise ScriptTransformError(
            "include argument count does not match the named sequence"
        )
    value_map: Dict[Value, Value] = dict(
        zip(body.args, include.operands)
    )
    builder = Builder.before(include)
    yielded: List[Value] = []
    for op in body.ops:
        if op.name == "transform.yield":
            yielded = [value_map.get(v, v) for v in op.operands]
            continue
        builder.insert(op.clone(value_map))
    include.replace_all_uses_with(yielded)
    include.erase()


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
