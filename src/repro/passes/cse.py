"""Common subexpression elimination over pure operations."""

from __future__ import annotations

from typing import Dict, Tuple

from ..ir.core import Block, Operation, Pure
from .manager import Pass, register_pass


def _op_key(op: Operation) -> Tuple:
    """A structural key: name, operand identities, attrs, result types."""
    attrs = tuple(
        (name, str(value))
        for name, value in sorted(op.attributes.items())
    )
    return (
        op.name,
        tuple(id(v) for v in op.operands),
        attrs,
        tuple(str(r.type) for r in op.results),
    )


def _cse_block(block: Block, seen: Dict[Tuple, Operation]) -> int:
    """Deduplicate within a block; nested regions get child scopes."""
    removed = 0
    for op in list(block.ops):
        if op.parent is None:
            continue
        # Recurse first so nested duplicates are folded before hashing.
        for region in op.regions:
            for nested in region.blocks:
                removed += _cse_block(nested, dict(seen))
        if not op.has_trait(Pure) or not op.results or op.regions:
            continue
        key = _op_key(op)
        existing = seen.get(key)
        if existing is not None:
            op.replace_all_uses_with(list(existing.results))
            op.erase()
            removed += 1
        else:
            seen[key] = op
    return removed


@register_pass
class CSEPass(Pass):
    """Eliminate duplicate pure operations (dominance via nesting scopes)."""

    NAME = "cse"
    DESCRIPTION = "common subexpression elimination"

    def run(self, op: Operation) -> None:
        for region in op.regions:
            for block in region.blocks:
                _cse_block(block, {})
