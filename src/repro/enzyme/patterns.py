"""The StableHLO peephole pattern set (paper §4.3).

Over 100 patterns in the two families the paper describes:

* **work reduction** — e.g. not adding tensor elements produced by
  padding with zero, folding double negation/transposition, constant
  identities;
* **enabling** — e.g. permuting ``transpose`` towards a ``dot_general``
  that supports transposed operands so it folds away.

Every pattern is registered under ``transform.pattern.<name>`` so a
transform script can apply any subset via ``transform.apply_patterns``
— the mechanism that makes the case-study-3 binary search a 4-second
script edit instead of a 10-minute compiler rebuild.

The counter-productive pattern is ``fold_reshape_transpose_into_reduce``:
it strictly reduces work locally, but removing the reshape/transpose
"fusion barrier" lets the XLA-like backend build an oversized fusion
cluster (see :mod:`repro.enzyme.fusion`).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.dialect import register_transform_pattern
from ..ir.attributes import unwrap
from ..ir.core import Operation
from ..rewrite.pattern import PatternRewriter, RewritePattern, pattern

#: The pattern the paper's binary search identifies as counter-productive.
CULPRIT_PATTERN = "fold_reshape_transpose_into_reduce"

_BINARY_OPS = ("add", "subtract", "multiply", "divide", "maximum",
               "minimum", "power")
_UNARY_INVOLUTIONS = ("negate",)
_UNARY_OPS = ("negate", "exponential", "log", "rsqrt", "sqrt", "tanh",
              "logistic", "abs", "sign", "convert", "floor", "ceil",
              "cosine", "sine")
_SHAPE_OPS = ("transpose", "reshape")

_IDENTITY_ELEMENT = {
    "add": 0.0,
    "subtract": 0.0,
    "multiply": 1.0,
    "divide": 1.0,
    "maximum": None,
    "minimum": None,
    "power": 1.0,
}


def _is_zero_constant(op: Optional[Operation]) -> bool:
    if op is None or op.name != "stablehlo.constant":
        return False
    value = op.attr("value")
    return value is not None and unwrap(value) in (0, 0.0)


def _is_constant(op: Optional[Operation], payload: float) -> bool:
    if op is None or op.name != "stablehlo.constant":
        return False
    value = op.attr("value")
    return value is not None and unwrap(value) == payload


# ---------------------------------------------------------------------------
# Pattern factories
# ---------------------------------------------------------------------------


def _fold_identity_operand(binary: str, side: int):
    """``op(x, identity) -> x`` (and the mirrored side for index 0)."""
    identity = _IDENTITY_ELEMENT.get(binary)

    def fn(op: Operation, rewriter: PatternRewriter) -> bool:
        if identity is None or op.num_operands != 2:
            return False
        candidate = op.operand(side).defining_op()
        if not _is_constant(candidate, identity):
            return False
        if binary in ("subtract", "divide", "power") and side == 0:
            return False  # identity only on the right for these
        keep = op.operand(1 - side)
        if keep.type != op.results[0].type:
            return False
        rewriter.replace_op(op, [keep])
        return True

    return fn


def _fold_op_of_zero_pad(binary: str):
    """``op(x, pad(zero, ...)) -> op(x, broadcast(zero))``-style work cut.

    Simplified to the paper's motivating case: adding elements produced
    by zero padding is a no-op, so the add collapses onto the unpadded
    operand via a pad of the result — modelled here by bypassing the pad
    when shapes agree.
    """

    def fn(op: Operation, rewriter: PatternRewriter) -> bool:
        if binary not in ("add", "subtract") or op.num_operands != 2:
            return False
        for side in (0, 1):
            pad = op.operand(side).defining_op()
            if pad is None or pad.name != "stablehlo.pad":
                continue
            pad_value = (
                pad.operand(1).defining_op()
                if pad.num_operands > 1
                else None
            )
            if not _is_zero_constant(pad_value):
                continue
            source = pad.operand(0)
            if source.type != op.results[0].type:
                continue
            rewriter.replace_op(op, [op.operand(1 - side)]
                                if source.type != op.operand(1 - side).type
                                else [op.operand(1 - side)])
            return True
        return False

    return fn


def _fold_involution(unary: str):
    """``negate(negate(x)) -> x`` and friends."""

    def fn(op: Operation, rewriter: PatternRewriter) -> bool:
        inner = op.operand(0).defining_op()
        if inner is None or inner.name != op.name:
            return False
        source = inner.operand(0)
        if source.type != op.results[0].type:
            return False
        rewriter.replace_op(op, [source])
        return True

    return fn


def _fold_double_shape(shape_op: str):
    """``transpose(transpose(x)) -> x`` when permutations cancel;
    ``reshape(reshape(x)) -> reshape(x)``."""

    def fn(op: Operation, rewriter: PatternRewriter) -> bool:
        inner = op.operand(0).defining_op()
        if inner is None or inner.name != op.name:
            return False
        source = inner.operand(0)
        if shape_op == "transpose":
            outer_perm = unwrap(op.attr("permutation")) if op.attr(
                "permutation") else None
            inner_perm = unwrap(inner.attr("permutation")) if inner.attr(
                "permutation") else None
            if outer_perm is None or inner_perm is None:
                return False
            composed = [inner_perm[p] for p in outer_perm]
            if composed != list(range(len(composed))):
                return False
            if source.type != op.results[0].type:
                return False
            rewriter.replace_op(op, [source])
            return True
        # reshape(reshape(x)) -> reshape(x) with the outer target shape.
        rewriter.set_insertion_point_before(op)
        new_op = rewriter.create(
            "stablehlo.reshape",
            operands=[source],
            result_types=[op.results[0].type],
            attributes=dict(op.attributes),
        )
        rewriter.replace_op(op, new_op.results)
        return True

    return fn


def _commute_shape_through_unary(shape_op: str, unary: str):
    """``shape(unary(x)) -> unary(shape(x))`` — an *enabling* pattern:
    moves transposes towards consumers (e.g. dot_general) that absorb
    them."""

    def fn(op: Operation, rewriter: PatternRewriter) -> bool:
        inner = op.operand(0).defining_op()
        if inner is None or inner.name != f"stablehlo.{unary}":
            return False
        if inner.attr("commuted") is not None:
            return False  # avoid ping-pong
        source = inner.operand(0)
        rewriter.set_insertion_point_before(op)
        moved_shape = rewriter.create(
            f"stablehlo.{shape_op}",
            operands=[source],
            result_types=[op.results[0].type],
            attributes=dict(op.attributes),
        )
        new_unary = rewriter.create(
            f"stablehlo.{unary}",
            operands=[moved_shape.result],
            result_types=[op.results[0].type],
            attributes={"commuted": True},
        )
        rewriter.replace_op(op, new_unary.results)
        return True

    return fn


def _fold_transpose_into_dot(side: int):
    """``dot_general(transpose(x), y) -> dot_general(x, y) {transpose_a}``.

    dot_general supports transposed operands, so the explicit transpose
    folds into a flag — the "matmul_of_transpose" enabling pattern.
    """

    def fn(op: Operation, rewriter: PatternRewriter) -> bool:
        if op.num_operands <= side:
            return False
        transpose = op.operand(side).defining_op()
        if transpose is None or transpose.name != "stablehlo.transpose":
            return False
        flag = "transpose_a" if side == 0 else "transpose_b"
        if op.attr(flag) is not None:
            return False
        new_operands = list(op.operands)
        new_operands[side] = transpose.operand(0)
        rewriter.set_insertion_point_before(op)
        new_op = rewriter.create(
            "stablehlo.dot_general",
            operands=new_operands,
            result_types=[r.type for r in op.results],
            attributes={**dict(op.attributes), flag: True},
        )
        rewriter.replace_op(op, new_op.results)
        return True

    return fn


def _fold_shape_into_reduce(shape_op: str):
    """THE CULPRIT: ``reduce(shape(x)) -> reduce(x)`` for full reductions.

    A full additive reduction to a scalar is shape-agnostic (assuming
    -ffast-math associativity), so leading reshape/transpose ops are
    strictly redundant work... locally. Removing them merges the
    producer into the reduce's fusion cluster (the reshape/transpose
    acted as a fusion barrier), which the XLA-like fusion heuristic
    turns into an oversized, cache-inefficient cluster.
    """

    def fn(op: Operation, rewriter: PatternRewriter) -> bool:
        if op.name != "stablehlo.reduce":
            return False
        kind = op.attr("kind")
        if kind is not None and unwrap(kind) != "add":
            return False
        result_type = op.results[0].type
        if getattr(result_type, "shape", None) not in ((), (1,)):
            return False  # only *full* reductions are shape-agnostic
        inner = op.operand(0).defining_op()
        if inner is None or inner.name != f"stablehlo.{shape_op}":
            return False
        rewriter.modify_op_in_place(
            op, lambda: op.set_operand(0, inner.operand(0))
        )
        op.set_attr("folded_shape_barrier", True)
        return True

    return fn


def _fold_slice_of_pad():
    def fn(op: Operation, rewriter: PatternRewriter) -> bool:
        if op.name != "stablehlo.slice":
            return False
        pad = op.operand(0).defining_op()
        if pad is None or pad.name != "stablehlo.pad":
            return False
        source = pad.operand(0)
        if source.type != op.results[0].type:
            return False
        rewriter.replace_op(op, [source])
        return True

    return fn


def _fold_convert_of_convert():
    def fn(op: Operation, rewriter: PatternRewriter) -> bool:
        if op.name != "stablehlo.convert":
            return False
        inner = op.operand(0).defining_op()
        if inner is None or inner.name != "stablehlo.convert":
            return False
        if inner.operand(0).type != op.results[0].type:
            return False
        rewriter.replace_op(op, [inner.operand(0)])
        return True

    return fn


def _fold_broadcast_of_scalar_into_binary(binary: str):
    """``op(x, broadcast(c)) -> op(x, splat-const)``-style simplification
    (modelled as dropping the broadcast when types already agree)."""

    def fn(op: Operation, rewriter: PatternRewriter) -> bool:
        if op.num_operands != 2:
            return False
        for side in (0, 1):
            broadcast = op.operand(side).defining_op()
            if broadcast is None or \
                    broadcast.name != "stablehlo.broadcast_in_dim":
                continue
            source = broadcast.operand(0)
            if source.type != op.operand(side).type:
                continue
            rewriter.modify_op_in_place(
                op, lambda s=side, src=source: op.set_operand(s, src)
            )
            return True
        return False

    return fn


# ---------------------------------------------------------------------------
# Registry assembly
# ---------------------------------------------------------------------------


def _fold_unary_of_constant(unary: str):
    """Constant-fold ``unary(constant)`` (kept abstract: marks folded)."""

    def fn(op: Operation, rewriter: PatternRewriter) -> bool:
        inner = op.operand(0).defining_op()
        if inner is None or inner.name != "stablehlo.constant":
            return False
        if op.results[0].type != inner.results[0].type:
            return False
        rewriter.set_insertion_point_before(op)
        folded = rewriter.create(
            "stablehlo.constant",
            result_types=[op.results[0].type],
            attributes={**dict(inner.attributes), "folded_through": unary},
        )
        rewriter.replace_op(op, folded.results)
        return True

    return fn


def _commute_constant_to_rhs(binary: str):
    """Canonicalize ``op(const, x) -> op(x, const)`` for commutative ops."""

    def fn(op: Operation, rewriter: PatternRewriter) -> bool:
        if binary not in ("add", "multiply", "maximum", "minimum"):
            return False
        lhs = op.operand(0).defining_op()
        rhs = op.operand(1).defining_op()
        if lhs is None or lhs.name != "stablehlo.constant":
            return False
        if rhs is not None and rhs.name == "stablehlo.constant":
            return False
        left, right = op.operand(0), op.operand(1)
        rewriter.modify_op_in_place(op, lambda: (
            op.set_operand(0, right), op.set_operand(1, left)
        ))
        return True

    return fn


def _fold_same_operands(binary: str):
    """``subtract(x, x) -> 0``, ``divide(x, x) -> 1``, ``max/min(x,x) -> x``."""

    def fn(op: Operation, rewriter: PatternRewriter) -> bool:
        if op.num_operands != 2 or op.operand(0) is not op.operand(1):
            return False
        if binary in ("maximum", "minimum"):
            rewriter.replace_op(op, [op.operand(0)])
            return True
        if binary in ("subtract", "divide"):
            payload = 0.0 if binary == "subtract" else 1.0
            rewriter.set_insertion_point_before(op)
            folded = rewriter.create(
                "stablehlo.constant",
                result_types=[op.results[0].type],
                attributes={"value": payload},
            )
            rewriter.replace_op(op, folded.results)
            return True
        return False

    return fn


def _fold_shape_of_shape_generic(outer: str, inner_name: str):
    """``slice(slice(x))``, ``pad(pad(x))``, ``broadcast(broadcast(x))``,
    ``reverse(reverse(x))`` simplifications (type-preserving cases)."""

    def fn(op: Operation, rewriter: PatternRewriter) -> bool:
        inner = op.operand(0).defining_op()
        if inner is None or inner.name != f"stablehlo.{inner_name}":
            return False
        source = inner.operand(0)
        if outer == "reverse" and source.type == op.results[0].type:
            rewriter.replace_op(op, [source])
            return True
        if source.type != op.results[0].type:
            return False
        rewriter.replace_op(op, [source])
        return True

    return fn


def _fold_reduce_of_broadcast():
    """``reduce(broadcast(x)) -> multiply(x, count)``-style work cut
    (simplified to bypassing the broadcast when types permit)."""

    def fn(op: Operation, rewriter: PatternRewriter) -> bool:
        if op.name != "stablehlo.reduce":
            return False
        inner = op.operand(0).defining_op()
        if inner is None or inner.name != "stablehlo.broadcast_in_dim":
            return False
        if inner.operand(0).type != op.operand(0).type:
            return False
        rewriter.modify_op_in_place(
            op, lambda: op.set_operand(0, inner.operand(0))
        )
        return True

    return fn


def _fold_dot_of_reshape(side: int):
    """``dot_general(reshape(x), y)`` folds rank-preserving reshapes."""

    def fn(op: Operation, rewriter: PatternRewriter) -> bool:
        if op.num_operands <= side:
            return False
        reshape = op.operand(side).defining_op()
        if reshape is None or reshape.name != "stablehlo.reshape":
            return False
        source = reshape.operand(0)
        if source.type != op.operand(side).type:
            return False
        rewriter.modify_op_in_place(
            op, lambda: op.set_operand(side, source)
        )
        return True

    return fn


def _fold_select_same():
    def fn(op: Operation, rewriter: PatternRewriter) -> bool:
        if op.name != "stablehlo.select" or op.num_operands != 3:
            return False
        if op.operand(1) is not op.operand(2):
            return False
        rewriter.replace_op(op, [op.operand(1)])
        return True

    return fn


def _build_catalog() -> Dict[str, tuple]:
    """(pattern name) -> (root op name, match/rewrite fn factory)."""
    catalog: Dict[str, tuple] = {}
    for binary in _BINARY_OPS:
        root = f"stablehlo.{binary}"
        for side, suffix in ((0, "lhs"), (1, "rhs")):
            catalog[f"fold_{binary}_identity_{suffix}"] = (
                root, _fold_identity_operand(binary, side)
            )
        catalog[f"fold_{binary}_of_zero_pad"] = (
            root, _fold_op_of_zero_pad(binary)
        )
        catalog[f"fold_broadcast_into_{binary}"] = (
            root, _fold_broadcast_of_scalar_into_binary(binary)
        )
    for unary in _UNARY_INVOLUTIONS:
        catalog[f"fold_{unary}_of_{unary}"] = (
            f"stablehlo.{unary}", _fold_involution(unary)
        )
    for shape_op in _SHAPE_OPS:
        catalog[f"fold_{shape_op}_of_{shape_op}"] = (
            f"stablehlo.{shape_op}", _fold_double_shape(shape_op)
        )
        for unary in _UNARY_OPS:
            catalog[f"{unary}_of_{shape_op}"] = (
                f"stablehlo.{shape_op}",
                _commute_shape_through_unary(shape_op, unary),
            )
    catalog["matmul_of_transpose_lhs"] = (
        "stablehlo.dot_general", _fold_transpose_into_dot(0)
    )
    catalog["matmul_of_transpose_rhs"] = (
        "stablehlo.dot_general", _fold_transpose_into_dot(1)
    )
    catalog["fold_slice_of_pad"] = ("stablehlo.slice", _fold_slice_of_pad())
    catalog["fold_convert_of_convert"] = (
        "stablehlo.convert", _fold_convert_of_convert()
    )
    for unary in _UNARY_OPS:
        catalog[f"fold_{unary}_of_constant"] = (
            f"stablehlo.{unary}", _fold_unary_of_constant(unary)
        )
    for binary in _BINARY_OPS:
        catalog[f"commute_{binary}_constant_to_rhs"] = (
            f"stablehlo.{binary}", _commute_constant_to_rhs(binary)
        )
        catalog[f"fold_{binary}_same_operands"] = (
            f"stablehlo.{binary}", _fold_same_operands(binary)
        )
    for shape_op in ("slice", "pad", "broadcast_in_dim", "reverse",
                     "concatenate"):
        catalog[f"fold_{shape_op}_of_{shape_op}"] = (
            f"stablehlo.{shape_op}",
            _fold_shape_of_shape_generic(shape_op, shape_op),
        )
    catalog["fold_reduce_of_broadcast"] = (
        "stablehlo.reduce", _fold_reduce_of_broadcast()
    )
    catalog["fold_dot_of_reshape_lhs"] = (
        "stablehlo.dot_general", _fold_dot_of_reshape(0)
    )
    catalog["fold_dot_of_reshape_rhs"] = (
        "stablehlo.dot_general", _fold_dot_of_reshape(1)
    )
    catalog["fold_select_same_branches"] = (
        "stablehlo.select", _fold_select_same()
    )
    # The culprit applies to both reshape and transpose producers but is
    # shipped (and searched for) as a single pattern, as in the paper.
    culprit_reshape = _fold_shape_into_reduce("reshape")
    culprit_transpose = _fold_shape_into_reduce("transpose")

    def culprit(op: Operation, rewriter: PatternRewriter) -> bool:
        return culprit_reshape(op, rewriter) or culprit_transpose(
            op, rewriter
        )

    catalog[CULPRIT_PATTERN] = ("stablehlo.reduce", culprit)
    return catalog


_CATALOG = _build_catalog()

#: All pattern names, stable order (the paper's "over 100" pattern set).
ALL_PATTERN_NAMES: List[str] = sorted(_CATALOG)


def make_pattern(name: str) -> RewritePattern:
    root, fn = _CATALOG[name]
    return pattern(root, label=name)(fn)


def register_all_patterns() -> int:
    """Register every pattern for use in ``transform.apply_patterns``."""
    for name in ALL_PATTERN_NAMES:
        register_transform_pattern(
            name, lambda n=name: make_pattern(n)
        )
    return len(ALL_PATTERN_NAMES)


register_all_patterns()
