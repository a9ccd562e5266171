"""The single-walk pattern driver, like upstream's ``walkAndApplyPatterns``.

For pattern sets that reach their fixpoint in one visit, because no
pattern creates an op that a pattern of the set roots at. It takes a
pre-order snapshot of the ops under a root that some pattern roots at,
and tries the patterns rooted at each op still attached, once: it keeps
no worklist, folds nothing and never revisits an op.
"""

from __future__ import annotations

from typing import Sequence

from ..ir.core import Operation
from .greedy import FrozenPatternSet, _is_attached
from .pattern import PatternRewriter, RewritePattern


def walk_and_apply_patterns(root: Operation,
                            patterns: Sequence[RewritePattern]) -> None:
    """Apply ``patterns`` once to each op under ``root`` they root at.

    The root itself is not matched. Each op's patterns are tried in
    benefit order with the insertion point before the op, until one
    rewrites it; the ops a rewrite creates are not visited.
    """
    frozen = FrozenPatternSet(patterns)
    rewriter = PatternRewriter()
    snapshot = [op for op in root.walk()
                if op is not root and frozen.for_op_name(op.name)]
    for op in snapshot:
        if not _is_attached(op, root):
            continue
        rewriter.set_insertion_point_before(op)
        for pat in frozen.for_op_name(op.name):
            if pat.match_and_rewrite(op, rewriter):
                break
