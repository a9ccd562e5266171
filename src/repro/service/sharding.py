"""Per-function fan-out for ``repro-opt --jobs N``.

A payload module whose top level is nothing but ``func.func`` ops can
be compiled one function per job — *if* the schedule provably
distributes over functions. :func:`is_func_shardable` is the
conservative gate: every op in the entry sequence must come from a
whitelist of transforms whose effect is local to each matched payload
op (navigation, annotation, loop restructuring, greedy pattern
application), every ``transform.match_op`` must select *all*
matches — positional selection (``first``/``last``) is inherently
whole-module — and every ``transform.get_parent_op`` must name a
parent below the module (climbing to ``builtin.module`` would hand
later transforms the shard's root, whose mutations — e.g.
``transform.annotate`` — land on a per-shard clone and silently
vanish in reassembly).

Silenceable failures are also whole-module state (they skip the rest
of the enclosing block for *every* function), so the ``--jobs`` driver
falls back to a sequential whole-module run the moment any shard
reports anything but clean success. The contract — enforced by test —
is that fan-out output is byte-identical to ``--jobs 1``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from ..ir.core import Operation

#: Transforms whose payload effect distributes over disjoint functions.
SHARDABLE_OPS = frozenset({
    "transform.sequence",
    "transform.yield",
    "transform.match_op",
    "transform.get_parent_op",
    "transform.select",
    "transform.cast",
    "transform.merge_handles",
    "transform.annotate",
    "transform.param.constant",
    "transform.loop.tile",
    "transform.loop.split",
    "transform.loop.unroll",
    "transform.loop.interchange",
    "transform.loop.hoist",
    "transform.loop.vectorize",
    "transform.loop.peel",
    "transform.structured.generalize",
    "transform.structured.lower_to_loops",
    "transform.apply_patterns",
})


def _entry_sequence(script: Operation) -> Optional[Operation]:
    """The unnamed entry ``transform.sequence``, mirroring the
    interpreter's discovery — None when the script carries macros or
    named entry points (those may be matched positionally or included
    with module-scoped arguments, so sharding stays out)."""
    if script.name == "transform.sequence":
        return script
    if script.name != "builtin.module":
        return None
    entry: Optional[Operation] = None
    for block in script.regions[0].blocks:
        for op in block.ops:
            if op.name == "transform.named_sequence":
                return None
            if op.name == "transform.sequence":
                if entry is not None:
                    return None
                entry = op
    return entry


def is_func_shardable(script: Operation) -> bool:
    """True when the schedule provably distributes over functions."""
    entry = _entry_sequence(script)
    if entry is None:
        return False
    for op in entry.walk():
        if op is entry:
            continue
        if op.name.startswith("transform.pattern."):
            continue  # apply_patterns body markers
        if op.name not in SHARDABLE_OPS:
            return False
        if op.name == "transform.match_op":
            position = op.attr("position")
            if position is not None and \
                    getattr(position, "value", "all") != "all":
                return False
        if op.name == "transform.get_parent_op":
            wanted = getattr(op.attr("op_name"), "value", None)
            # No op_name means "immediate parent", which for a
            # top-level func is the module itself; an explicit
            # builtin.module target climbs there on purpose. Either
            # way the handle escapes the shard's function.
            if not wanted or wanted == "builtin.module":
                return False
    return True


def shardable_functions(payload: Operation) -> Optional[List[Operation]]:
    """The top-level ``func.func`` ops of a cleanly splittable module.

    Returns the functions themselves (no cloning) when the module's
    top level holds nothing but call-free ``func.func`` ops; None when
    anything else appears at the top level (globals and declarations
    would need duplicating into every shard, which stops reassembled
    output being byte-identical) or any function contains a call
    (cross-function references don't survive splitting).
    """
    if payload.name != "builtin.module":
        return None
    tops = list(payload.regions[0].entry_block.ops)
    if not tops:
        return None
    if any(op.name != "func.func" for op in tops):
        return None
    for function in tops:
        for op in function.walk():
            if op.name in ("func.call", "llvm.call"):
                return None
    return tops


def function_modules(functions: Iterable[Operation],
                     attributes=None) -> List[Operation]:
    """Wrap each function in a standalone module carrying
    ``attributes``. The functions are *moved* (appending re-parents
    them): pass clones to keep the module they came from intact."""
    from ..dialects import builtin

    modules: List[Operation] = []
    for function in functions:
        module = builtin.module()
        module.attributes.update(attributes or {})
        module.body.append(function)
        modules.append(module)
    return modules


def shard_payload(payload: Operation) -> Optional[List[Operation]]:
    """Split a module into one single-function module per top-level
    func; None when the module is not cleanly splittable (see
    :func:`shardable_functions`) or has fewer than two functions
    (nothing to fan out)."""
    tops = shardable_functions(payload)
    if tops is None or len(tops) < 2:
        return None
    return function_modules([function.clone() for function in tops],
                            payload.attributes)


def function_entries(module: Operation
                     ) -> Optional[List[Tuple[str, str]]]:
    """The function-tier view of one module: ``(printed module,
    structural digest)`` per top-level function, each wrapped in an
    *attribute-less* module — tier entries must not depend on which
    module a function arrived in — and printed on its own, so an
    entry's text is the canonical print of its digest.

    None when ``module`` is not cleanly splittable (see
    :func:`shardable_functions`). The functions are *moved* out of
    ``module``: call it on IR nothing reads again."""
    from ..ir.hashing import op_digest
    from ..ir.printer import print_op

    tops = shardable_functions(module)
    if tops is None:
        return None
    return [(print_op(wrapper), op_digest(wrapper))
            for wrapper in function_modules(tops)]


def function_module_texts(text: str, source: str
                          ) -> Optional[List[Tuple[str, str]]]:
    """:func:`function_entries` of a module *text*; None also when it
    does not parse."""
    from ..ir.parser import parse

    try:
        module = parse(text, source)
    except Exception:
        return None
    return function_entries(module)


def assemble_functions(module_attributes, func_texts: List[str],
                       attrs_digest: Optional[str] = None):
    """Build one module from standalone function texts.

    The inverse of per-function splitting: each text parses as a
    single ``func.func`` (or a single-function module), the functions
    are appended in order to a fresh module carrying
    ``module_attributes``, and the module is printed once — global SSA
    numbering therefore matches a whole-module compilation exactly.
    Returns ``(printed_text, structural_digest)``; the digest comes
    off the assembled module while it is in hand, so callers never
    reparse the text to learn its identity.

    With ``attrs_digest`` (the ``--jobs`` backstop, see
    :func:`reassemble_module`) every text must be a module whose
    attributes digest to it; the first that does not makes the whole
    assembly return None.
    """
    from ..dialects import builtin
    from ..ir.hashing import attributes_digest, op_digest
    from ..ir.parser import parse
    from ..ir.printer import print_op

    result = builtin.module()
    result.attributes.update(module_attributes)
    for index, text in enumerate(func_texts):
        op = parse(text, f"<function {index}>")
        if (attrs_digest is not None
                and attributes_digest(op) != attrs_digest):
            return None
        if op.name == "builtin.module":
            for child in list(op.regions[0].entry_block.ops):
                result.body.append(child)
        else:
            result.body.append(op)
    result.verify()
    return print_op(result), op_digest(result)


def reassemble_module(payload: Operation,
                      shard_texts: List[str]) -> Optional[str]:
    """Splice transformed shard modules back into one module carrying
    the original module attributes, in the original function order
    (see :func:`assemble_functions`).

    Returns None when any shard's module attributes diverged from the
    original payload's: the schedule mutated the module op itself (a
    per-shard clone), which cannot be merged back faithfully — callers
    must fall back to the sequential whole-module path. This backstops
    :func:`is_func_shardable` against any future whitelist hole.
    Divergence is detected by comparing attribute digests
    (:func:`repro.ir.hashing.attributes_digest`) — one hash per shard
    instead of materializing and comparing attribute dictionaries."""
    from ..ir.hashing import attributes_digest

    assembled = assemble_functions(payload.attributes, shard_texts,
                                   attributes_digest(payload))
    return assembled[0] if assembled is not None else None
