"""Canonicalization: local simplification patterns + dead code elimination.

Dialects contribute patterns to :data:`CANONICALIZATION_PATTERNS`, each
rooted at the ops it rewrites; the pass runs them greedily, and the
driver erases the unused pure operations as it goes, mirroring MLIR's
``canonicalize``.
"""

from __future__ import annotations

from typing import List

from ..ir.core import Commutative, Operation
from ..rewrite.greedy import FrozenPatternSet, apply_patterns_greedily
from ..rewrite.pattern import PatternRewriter, RewritePattern, pattern
from .manager import Pass, register_pass

#: Patterns run by the canonicalize pass; extend via register_canonicalization.
CANONICALIZATION_PATTERNS: List[RewritePattern] = []

#: Frozen (bucketed, benefit-sorted) view of the registry, rebuilt only
#: when new patterns are registered.
_frozen_cache: tuple = (0, None)


def frozen_canonicalization_patterns() -> FrozenPatternSet:
    global _frozen_cache
    count, frozen = _frozen_cache
    if frozen is None or count != len(CANONICALIZATION_PATTERNS):
        frozen = FrozenPatternSet(CANONICALIZATION_PATTERNS)
        _frozen_cache = (len(CANONICALIZATION_PATTERNS), frozen)
    return frozen


def register_canonicalization(pat: RewritePattern) -> RewritePattern:
    CANONICALIZATION_PATTERNS.append(pat)
    return pat


def _constant_value(value) -> object:
    """The integer/float payload when defined by arith.constant, else None."""
    defining = value.defining_op()
    if defining is not None and defining.name == "arith.constant":
        return defining.value
    return None


_INT_FOLDS = {
    "arith.addi": lambda a, b: a + b,
    "arith.subi": lambda a, b: a - b,
    "arith.muli": lambda a, b: a * b,
    "arith.divsi": lambda a, b: int(a / b) if b else None,
    "arith.remsi": lambda a, b: a - int(a / b) * b if b else None,
    "arith.andi": lambda a, b: a & b,
    "arith.ori": lambda a, b: a | b,
    "arith.xori": lambda a, b: a ^ b,
    "arith.maxsi": max,
    "arith.minsi": min,
}

_FOLDS = {
    **_INT_FOLDS,
    "arith.addf": lambda a, b: a + b,
    "arith.subf": lambda a, b: a - b,
    "arith.mulf": lambda a, b: a * b,
    "arith.divf": lambda a, b: a / b if b else None,
    "arith.maximumf": max,
    "arith.minimumf": min,
}


@register_canonicalization
@pattern(frozenset(_FOLDS), label="fold-constant-arith")
def fold_constant_arith(op: Operation, rewriter: PatternRewriter) -> bool:
    """Fold binary arith ops whose operands are both constants."""
    if op.num_operands != 2:
        return False
    lhs = _constant_value(op.operand(0))
    rhs = _constant_value(op.operand(1))
    if lhs is None or rhs is None:
        return False
    result = _FOLDS[op.name](lhs, rhs)
    if result is None:
        return False
    from ..dialects import arith

    rewriter.set_insertion_point_before(op)
    folded = arith.constant(rewriter, result, op.results[0].type)
    rewriter.replace_op(op, [folded])
    return True


_IDENTITY_RIGHT = {
    "arith.addi": 0,
    "arith.subi": 0,
    "arith.muli": 1,
    "arith.divsi": 1,
    "arith.addf": 0.0,
    "arith.subf": 0.0,
    "arith.mulf": 1.0,
    "arith.divf": 1.0,
    "arith.ori": 0,
    "arith.xori": 0,
    "arith.shli": 0,
}


@register_canonicalization
@pattern(frozenset(_IDENTITY_RIGHT), label="fold-identity")
def fold_identity(op: Operation, rewriter: PatternRewriter) -> bool:
    """``x + 0 -> x``, ``x * 1 -> x`` and commuted variants."""
    identity = _IDENTITY_RIGHT[op.name]
    if op.num_operands != 2:
        return False
    rhs = _constant_value(op.operand(1))
    if rhs == identity:
        rewriter.replace_op(op, [op.operand(0)])
        return True
    if op.has_trait(Commutative):
        lhs = _constant_value(op.operand(0))
        if lhs == identity:
            rewriter.replace_op(op, [op.operand(1)])
            return True
    return False


@register_canonicalization
@pattern("arith.muli", label="fold-mul-zero")
def fold_mul_zero(op: Operation, rewriter: PatternRewriter) -> bool:
    """``x * 0 -> 0`` for integer multiplication."""
    for operand in op.operands:
        if _constant_value(operand) == 0:
            from ..dialects import arith

            rewriter.set_insertion_point_before(op)
            zero = arith.constant(rewriter, 0, op.results[0].type)
            rewriter.replace_op(op, [zero])
            return True
    return False


_CMPI_FOLDS = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "slt": lambda a, b: a < b,
    "sle": lambda a, b: a <= b,
    "sgt": lambda a, b: a > b,
    "sge": lambda a, b: a >= b,
    "ult": lambda a, b: a < b,
    "ule": lambda a, b: a <= b,
    "ugt": lambda a, b: a > b,
    "uge": lambda a, b: a >= b,
}


@register_canonicalization
@pattern("arith.cmpi", label="fold-constant-cmpi")
def fold_constant_cmpi(op: Operation, rewriter: PatternRewriter) -> bool:
    lhs = _constant_value(op.operand(0))
    rhs = _constant_value(op.operand(1))
    if lhs is None or rhs is None:
        return False
    predicate = op.predicate  # type: ignore[attr-defined]
    outcome = _CMPI_FOLDS[predicate](lhs, rhs)
    from ..dialects import arith
    from ..ir.types import I1

    rewriter.set_insertion_point_before(op)
    folded = arith.constant(rewriter, int(outcome), I1)
    rewriter.replace_op(op, [folded])
    return True


@register_canonicalization
@pattern("arith.select", label="fold-constant-select")
def fold_constant_select(op: Operation, rewriter: PatternRewriter) -> bool:
    cond = _constant_value(op.operand(0))
    if cond is None:
        return False
    rewriter.replace_op(op, [op.operand(1) if cond else op.operand(2)])
    return True


@register_canonicalization
@pattern("scf.for", label="drop-zero-trip-loop")
def drop_zero_trip_loop(op: Operation, rewriter: PatternRewriter) -> bool:
    """Remove loops with a statically empty iteration domain."""
    trip = op.trip_count()  # type: ignore[attr-defined]
    if trip != 0:
        return False
    rewriter.replace_op(op, list(op.init_args))  # type: ignore[attr-defined]
    return True


@register_canonicalization
@pattern("scf.if", label="fold-constant-if")
def fold_constant_if(op: Operation, rewriter: PatternRewriter) -> bool:
    """Inline the taken branch when the condition is constant."""
    cond = _constant_value(op.operand(0))
    if cond is None:
        return False
    taken = op.then_block if cond else op.else_block  # type: ignore[attr-defined]
    if taken is None:
        rewriter.erase_op(op)
        return True
    yield_op = taken.terminator
    yielded = list(yield_op.operands) if yield_op is not None else []
    if yield_op is not None:
        rewriter.erase_op(yield_op)
    rewriter.inline_block_before(taken, op)
    rewriter.replace_op(op, yielded)
    return True


@register_pass
class CanonicalizePass(Pass):
    """Greedy canonicalization, which erases dead pure ops as it goes,
    like MLIR's ``canonicalize``."""

    NAME = "canonicalize"
    DESCRIPTION = "apply canonicalization patterns and eliminate dead code"

    def run(self, op: Operation) -> None:
        apply_patterns_greedily(
            op, frozen_canonicalization_patterns(),
            profiler=self.options.get("profiler"),
        )
