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

The compile service's function tier splits and joins modules at the
same seams, on *text*: the printer numbers ``%N``/``^bbN`` in
first-encounter order and a top-level function sees no outer value, so
a function's lines inside a module are its lines in any other module
with every name shifted by the difference of the name counts before it.
:func:`function_entries` prints the functions in one printer session
and records where each one's names sit, :func:`assemble_functions`
splices such prints back into exactly ``print_op`` of a module without
parsing — shifting only the entries that moved (DESIGN.md §9) — and
:func:`reassemble_module` is the same splice for ``--jobs`` shards,
which are all numbered from ``%0``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..ir.core import Operation
from ..ir.hashing import NO_ATTRIBUTES_DIGEST, module_digest, op_digest
from ..ir.printer import (
    Printer,
    module_body,
    module_text,
    move_names,
    shift_names,
)

#: Where an entry's names sit: ``(value_base, values, block_base,
#: blocks)`` — it holds ``%value_base`` .. ``%(value_base + values -
#: 1)`` and likewise for ``^bbN``.
Names = Tuple[int, int, int, int]

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


def shard_payload(payload: Operation) -> Optional[List[Operation]]:
    """Split a module into one single-function module per top-level
    func, each a clone carrying the module's attributes; None when the
    module is not cleanly splittable (see :func:`shardable_functions`)
    or has fewer than two functions (nothing to fan out)."""
    from ..dialects import builtin

    tops = shardable_functions(payload)
    if tops is None or len(tops) < 2:
        return None
    shards: List[Operation] = []
    for function in tops:
        shard = builtin.module()
        shard.attributes.update(payload.attributes)
        shard.body.append(function.clone())
        shards.append(shard)
    return shards


def function_text(function: Operation) -> str:
    """``function`` printed alone in an attribute-less module, numbered
    from ``%0``/``^bb0``: the payload text of a function-tier sub-job
    (the engine cuts one per missing function off the module it has in
    hand) and the *normalized* form of an entry."""
    return module_text(Printer().print_op(function, "  "), {})


def function_text_digests(function_digest: str) -> Tuple[str, str]:
    """``(structural digest, attributes digest)`` of the module
    :func:`function_text` prints, from the function's digest alone: a
    digest is compositional, so nobody parses a shard to know them."""
    return module_digest({}, [function_digest]), NO_ATTRIBUTES_DIGEST


def function_entries(module: Operation
                     ) -> Optional[List[Tuple[str, str, Names]]]:
    """The function-tier view of one module: ``(entry text, structural
    digest of the function, names)`` per top-level function.

    The functions are printed through *one* printer session, function
    by function, each into an attribute-less module shell: an entry
    keeps the names it was printed with, and ``names`` records where
    they sit — ``(value_base, values, block_base, blocks)``, read off
    the printer's table sizes before and after. The entry bodies
    joined in the module's own shell *are* ``print_op(module)``;
    :func:`assemble_functions` does that join, and moves an entry to
    another position by the difference of the bases.

    None when ``module`` is not cleanly splittable (see
    :func:`shardable_functions`)."""
    tops = shardable_functions(module)
    if tops is None:
        return None
    printer = Printer()
    entries = []
    for function in tops:
        value_base = len(printer.value_names)
        block_base = len(printer.block_names)
        text = module_text(printer.print_op(function, "  "), {})
        entries.append((text, op_digest(function), (
            value_base, len(printer.value_names) - value_base,
            block_base, len(printer.block_names) - block_base)))
    return entries


def assemble_functions(module_attributes, entry_texts: List[str],
                       shell_attributes=None,
                       names: Optional[List[Names]] = None
                       ) -> Tuple[str, Tuple[int, int]]:
    """Splice function entries into the print of one module.

    The inverse of :func:`function_entries`, on text alone: the
    printer numbers ``%N``/``^bbN`` in first-encounter order and a
    top-level function sees no outer value, so a function's lines
    inside a module *are* its lines anywhere else with every name
    shifted by the difference of the name counts before it. Each entry
    loses its module shell (:func:`~repro.ir.printer.module_body`) and
    lands in the shell of a module carrying ``module_attributes``: as
    it is when ``names[i]`` — what :func:`function_entries` recorded —
    puts it at the running bases already, else shifted by the
    difference (:func:`~repro.ir.printer.move_names`). Without
    ``names`` every text is *normalized* (numbered from ``%0``/``^bb0``,
    see :func:`function_text` — the ``--jobs`` shards): each is shifted
    (:func:`~repro.ir.printer.shift_names`) and its counts are read
    off the text on the way. Nothing is parsed, so nothing is verified
    here: an entry is the print of IR its producer verified.

    Returns ``(text, (value names, block names))``. Raises
    ``ValueError`` for a text that is not an entry: its shell must be
    exactly that of a module carrying ``shell_attributes`` (none, for
    tier entries) around a non-empty body, and its first names the
    recorded bases (the counts are taken on trust).
    """
    bodies = []
    values = blocks = 0
    for index, text in enumerate(entry_texts):
        body = module_body(text, shell_attributes or {})
        if names is None:
            body, more_values, more_blocks = shift_names(body, values, blocks)
        else:
            body = move_names(body, names[index], values, blocks)
            _, more_values, _, more_blocks = names[index]
        bodies.append(body)
        values += more_values
        blocks += more_blocks
    return (module_text("\n".join(bodies), module_attributes),
            (values, blocks))


def reassemble_module(payload: Operation,
                      shard_texts: List[str]) -> Optional[str]:
    """Splice transformed shard modules back into one module carrying
    the original module attributes, in the original function order
    (see :func:`assemble_functions`).

    Returns None when any shard's last line is not the footer of the
    original payload: the schedule mutated the module op itself (a
    per-shard clone), which cannot be merged back faithfully — callers
    must fall back to the sequential whole-module path. This backstops
    :func:`is_func_shardable` against any future whitelist hole."""
    try:
        return assemble_functions(payload.attributes, shard_texts,
                                  payload.attributes)[0]
    except ValueError:
        return None
