"""The seams of the function tier: which jobs split per function, and
how function text is cut out of and spliced back into a module.

A payload module whose top level is nothing but call-free ``func.func``
ops (:func:`shardable_functions`) can be compiled one function at a
time — *if* the schedule provably distributes over functions.
:func:`is_func_shardable` is the conservative gate: every op of the
entry sequence must declare itself function-local
(``TransformOp.is_function_local()`` in :mod:`repro.core.dialect` —
navigation, annotation, loop restructuring, greedy pattern
application; a ``transform.match_op`` only when it selects *all*
matches, positional selection being inherently whole-module; a
``transform.get_parent_op`` only when it names a parent below the
module, since climbing to ``builtin.module`` would hand later
transforms the root of a single-function sub-job, whose mutations —
e.g. ``transform.annotate`` — would be lost in assembly). An op that
declares nothing is not function-local.

Silenceable failures are also whole-module state (they skip the rest
of the enclosing block for *every* function), so the engine only
stores and assembles entries of cleanly successful jobs.

The tier splits and joins modules on *text*: the printer numbers
``%N``/``^bbN`` in first-encounter order and a top-level function sees
no outer value, so a function's lines inside a module are its lines in
any other module with every name shifted by the difference of the name
counts before it. :func:`function_entries` takes each function's one
print (:func:`~repro.ir.hashing.printed`: from ``%0``, hashed for the
function's digest, then shifted to where it stands in the module) and
records where its names sit; :func:`assemble_functions` splices such
prints back into exactly ``print_op`` of a module without parsing —
shifting only the entries that moved (DESIGN.md §9). Its *normalized*
form (``names=None``: every text numbered from ``%0``) has no caller
left in ``src/`` since ``repro-opt --jobs`` went;
``perfbench/layers.py`` still times it, and it goes with the
benchmark-only PR (ROADMAP item 1).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.dialect import declared
from ..core.interpreter import find_entry, top_level_ops
from ..ir.core import Operation
from ..ir.hashing import NO_ATTRIBUTES_DIGEST, Names, module_digest, printed
from ..ir.printer import (
    Printer,
    module_body,
    module_text,
    move_names,
    shift_names,
)


def is_func_shardable(script: Operation) -> bool:
    """True when the schedule provably distributes over functions."""
    # The entry must be the script's only sequence and unnamed: macros
    # and named entry points may be matched positionally or included
    # with module-scoped arguments, so sharding stays out of them.
    entry = find_entry(script)
    if entry is None or entry.name != "transform.sequence" or any(
            op is not entry and op.name in ("transform.sequence",
                                            "transform.named_sequence")
            for op in top_level_ops(script)):
        return False
    for op in entry.walk():
        if op is entry:
            continue
        if op.name.startswith("transform.pattern."):
            continue  # apply_patterns body markers
        if not declared(op).is_function_local():
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
    if not tops or any(op.name != "func.func" for op in tops):
        return None
    if any(op.name in ("func.call", "llvm.call")
           for function in tops for op in function.walk()):
        return None
    return tops


def function_text(function: Operation) -> str:
    """``function`` printed alone in an attribute-less module, numbered
    from ``%0``/``^bb0``: the payload text of a function-tier sub-job
    (the engine cuts one per missing function off the module it has in
    hand) and the *normalized* form of an entry."""
    return module_text(Printer().print_op(function, "  "), {})


def function_text_digests(function_digest: str) -> Tuple[str, str]:
    """``(digest, attributes digest)`` of the module
    :func:`function_text` prints, from the function's digest alone: an
    all-function module's digest composes from its functions', so
    nobody parses or prints a shard to know them."""
    return module_digest({}, [function_digest]), NO_ATTRIBUTES_DIGEST


def function_entries(module: Operation, prints=None
                     ) -> Optional[List[Tuple[str, str, Names]]]:
    """The function-tier view of one module: ``(entry text, digest of
    the function, names)`` per top-level function.

    Each function is printed once (:func:`~repro.ir.hashing.printed`,
    whose ``prints`` of ``module`` a caller holding them passes in),
    for its digest and for its lines as they stand in the module's
    print, which an entry keeps in an attribute-less module shell;
    ``names`` records where they sit — ``(value_base, values,
    block_base, blocks)``. The entry bodies joined in the module's own
    shell *are* ``print_op(module)``; :func:`assemble_functions` does
    that join, and moves an entry to another position by the
    difference of the bases.

    None when ``module`` is not cleanly splittable (see
    :func:`shardable_functions`)."""
    if shardable_functions(module) is None:
        return None
    return [(module_text(text, {}), digest, names)
            for text, digest, names in prints or printed(module)[2]]


def assemble_functions(module_attributes, entry_texts: List[str],
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
    see :func:`function_text`): each is shifted
    (:func:`~repro.ir.printer.shift_names`) and its counts are read
    off the text on the way. Nothing is parsed, so nothing is verified
    here: an entry is the print of IR its producer verified.

    Returns ``(text, (value names, block names))``. Raises
    ``ValueError`` for a text that is not an entry: its shell must be
    exactly that of an attribute-less module around a non-empty body,
    and its first names the recorded bases (the counts are taken on
    trust).
    """
    bodies = []
    values = blocks = 0
    for index, text in enumerate(entry_texts):
        body = module_body(text, {})
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
