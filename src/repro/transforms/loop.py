"""Loop transformations: tiling, splitting, unrolling, interchange, ...

All functions operate on ``scf.for`` operations and raise
:class:`LoopTransformError` when a precondition fails — the transform
interpreter maps these to *silenceable* errors (paper §3), so
``transform.alternatives`` can recover from them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.builder import Builder
from ..ir.core import Operation, Value


class LoopTransformError(Exception):
    """A loop transformation precondition failed (silenceable)."""


def _require_for(loop: Operation, what: str) -> None:
    if loop.name != "scf.for":
        raise LoopTransformError(f"{what} requires an scf.for, got {loop.name}")
    if loop.parent is None:
        raise LoopTransformError(f"{what}: loop is detached from the IR")


def _constant_bounds(loop: Operation, what: str) -> Tuple[int, int, int]:
    bounds = loop.constant_bounds()  # type: ignore[attr-defined]
    if bounds is None:
        raise LoopTransformError(f"{what} requires constant loop bounds")
    return bounds


def _clone_body_at(loop: Operation, builder: Builder,
                   iv_value: Value, iter_values: Sequence[Value]) -> List[Value]:
    """Clone the loop body at the builder, returning the yielded values."""
    value_map: Dict[Value, Value] = {loop.induction_var: iv_value}  # type: ignore[attr-defined]
    for old_arg, new_value in zip(loop.iter_args, iter_values):  # type: ignore[attr-defined]
        value_map[old_arg] = new_value
    yielded: List[Value] = list(iter_values)
    for op in loop.body.ops:  # type: ignore[attr-defined]
        if op.name == "scf.yield":
            yielded = [value_map.get(v, v) for v in op.operands]
            continue
        builder.insert(op.clone(value_map))
    return yielded


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------


def split_loop(loop: Operation, divisor: int) -> Tuple[Operation, Operation]:
    """Split a loop into a part whose trip count is divisible by
    ``divisor`` and a remainder loop (paper Fig. 1 line 6, Fig. 8 line 3).

    Returns ``(main, rest)``. The main loop runs
    ``lb .. lb + (trip // divisor) * divisor * step`` and the rest loop
    covers the remaining iterations. Iteration arguments are threaded
    from main into rest.
    """
    from ..dialects import arith, scf

    _require_for(loop, "loop splitting")
    if divisor <= 0:
        raise LoopTransformError("split divisor must be positive")
    lb, ub, step = _constant_bounds(loop, "loop splitting")
    trip = max(0, -(-(ub - lb) // step))
    main_trips = (trip // divisor) * divisor
    split_point = lb + main_trips * step

    builder = Builder.before(loop)
    split_bound = arith.index_constant(builder, split_point)

    inits = list(loop.init_args)  # type: ignore[attr-defined]
    main = scf.for_(builder, loop.lower_bound, split_bound, loop.step, inits)  # type: ignore[attr-defined]
    main_body = Builder.at_end(main.body)
    main_yields = _clone_body_at(
        loop, main_body, main.induction_var, list(main.iter_args)
    )
    scf.yield_(main_body, main_yields)

    rest = scf.for_(builder, split_bound, loop.upper_bound, loop.step,  # type: ignore[attr-defined]
                    list(main.results))
    rest_body = Builder.at_end(rest.body)
    rest_yields = _clone_body_at(
        loop, rest_body, rest.induction_var, list(rest.iter_args)
    )
    scf.yield_(rest_body, rest_yields)

    loop.replace_all_uses_with(list(rest.results))
    loop.erase()
    return main, rest


# ---------------------------------------------------------------------------
# Tiling
# ---------------------------------------------------------------------------


def tile_loop(loop: Operation, tile_size: int) -> Tuple[Operation, Operation]:
    """Strip-mine a single loop by ``tile_size``: returns (outer, inner).

    The trip count must be divisible by the tile size (use
    :func:`split_loop` first otherwise — exactly the composition in the
    paper's Fig. 1/Fig. 8).
    """
    from ..dialects import arith, scf

    _require_for(loop, "loop tiling")
    if tile_size <= 0:
        raise LoopTransformError("tile size must be positive")
    lb, ub, step = _constant_bounds(loop, "loop tiling")
    trip = max(0, -(-(ub - lb) // step))
    if trip % tile_size != 0:
        raise LoopTransformError(
            f"trip count {trip} not divisible by tile size {tile_size}; "
            "split the loop first"
        )

    builder = Builder.before(loop)
    outer_step = arith.index_constant(builder, tile_size * step)
    inits = list(loop.init_args)  # type: ignore[attr-defined]
    outer = scf.for_(builder, loop.lower_bound, loop.upper_bound,  # type: ignore[attr-defined]
                     outer_step, inits)

    outer_body = Builder.at_end(outer.body)
    zero = arith.index_constant(outer_body, 0)
    inner_ub = arith.index_constant(outer_body, tile_size * step)
    inner_step = arith.index_constant(outer_body, step)
    inner = scf.for_(outer_body, zero, inner_ub, inner_step,
                     list(outer.iter_args))

    inner_body = Builder.at_end(inner.body)
    iv = arith.addi(inner_body, outer.induction_var, inner.induction_var)
    yields = _clone_body_at(loop, inner_body, iv, list(inner.iter_args))
    scf.yield_(inner_body, yields)
    scf.yield_(Builder.at_end(outer.body), list(inner.results))

    loop.replace_all_uses_with(list(outer.results))
    loop.erase()
    return outer, inner


def _perfect_nest(loop: Operation, depth: int) -> List[Operation]:
    """The perfectly nested loops rooted at ``loop`` (length ``depth``).

    Pure index computations (e.g. the ``addi`` reconstructing tiled
    induction variables) are tolerated between nest levels; any other
    side-effecting op breaks perfection.
    """
    from ..ir.core import Pure

    nest = [loop]
    current = loop
    while len(nest) < depth:
        body_ops = [
            op for op in current.body.ops if op.name != "scf.yield"  # type: ignore[attr-defined]
        ]
        loops = [op for op in body_ops if op.name == "scf.for"]
        others = [op for op in body_ops if op.name != "scf.for"]
        if len(loops) != 1 or any(not op.has_trait(Pure) for op in others):
            raise LoopTransformError(
                f"expected a perfect loop nest of depth {depth}"
            )
        current = loops[0]
        nest.append(current)
    return nest


def tile_loop_nest(root: Operation,
                   tile_sizes: Sequence[int]) -> Tuple[List[Operation], List[Operation]]:
    """Tile a perfect loop nest, producing all tile loops outside all
    point loops: ``(i, j) -> (i0, j0, i1, j1)``.

    Returns ``(tile_loops, point_loops)``. A tile size of 0 leaves the
    corresponding loop untiled (a no-op in that dimension, matching the
    paper's "tiling by 0 is a no-op" simplification rule).
    """
    from ..dialects import arith, scf

    _require_for(root, "nest tiling")
    sizes = list(tile_sizes)
    nest = _perfect_nest(root, len(sizes))
    bounds = [_constant_bounds(l, "nest tiling") for l in nest]
    for (lb, ub, step), size in zip(bounds, sizes):
        trip = max(0, -(-(ub - lb) // step))
        if size < 0:
            raise LoopTransformError("negative tile size")
        if size and trip % size != 0:
            raise LoopTransformError(
                f"trip count {trip} not divisible by tile size {size}"
            )
    if any(len(l.init_args) for l in nest):  # type: ignore[attr-defined]
        raise LoopTransformError("nest tiling does not support iter_args")

    innermost = nest[-1]
    builder = Builder.before(root)

    tile_loops: List[Operation] = []
    point_loops: List[Operation] = []
    iv_values: List[Value] = []

    # Build the tile loops (outer band).
    for (lb, ub, step), size in zip(bounds, sizes):
        effective = size if size else 1
        lb_value = arith.index_constant(builder, lb)
        ub_value = arith.index_constant(builder, ub)
        step_value = arith.index_constant(
            builder, (size * step) if size else step
        )
        tile_loop_op = scf.for_(builder, lb_value, ub_value, step_value)
        tile_loops.append(tile_loop_op)
        builder = Builder.at_end(tile_loop_op.body)

    # Build the point loops (inner band) inside the innermost tile loop.
    for index, ((lb, ub, step), size) in enumerate(zip(bounds, sizes)):
        if not size:
            iv_values.append(tile_loops[index].induction_var)
            continue
        zero = arith.index_constant(builder, 0)
        extent = arith.index_constant(builder, size * step)
        step_value = arith.index_constant(builder, step)
        point_loop = scf.for_(builder, zero, extent, step_value)
        point_loops.append(point_loop)
        builder = Builder.at_end(point_loop.body)
        iv = arith.addi(
            builder, tile_loops[index].induction_var,
            point_loop.induction_var,
        )
        iv_values.append(iv)

    # Clone the innermost body with remapped induction variables.
    value_map: Dict[Value, Value] = {
        loop.induction_var: iv  # type: ignore[attr-defined]
        for loop, iv in zip(nest, iv_values)
    }
    for op in innermost.body.ops:  # type: ignore[attr-defined]
        if op.name == "scf.yield":
            continue
        builder.insert(op.clone(value_map))

    # Terminate every created loop body.
    for created in [*tile_loops, *point_loops]:
        body = created.body
        if not body.ops or body.ops[-1].name != "scf.yield":
            scf.yield_(Builder.at_end(body))

    root.erase()
    return tile_loops, point_loops


# ---------------------------------------------------------------------------
# Unrolling
# ---------------------------------------------------------------------------


def unroll_loop(loop: Operation, factor: Optional[int] = None,
                full: bool = False) -> None:
    """Unroll a loop fully or by ``factor``.

    Full unrolling requires constant bounds; the loop op is erased and
    its body is repeated once per iteration (so the handle to it is
    *invalidated* — the static error of Fig. 1 line 11).
    """
    from ..dialects import arith, scf

    _require_for(loop, "loop unrolling")
    lb, ub, step = _constant_bounds(loop, "loop unrolling")
    trip = max(0, -(-(ub - lb) // step))

    if full:
        builder = Builder.before(loop)
        current: List[Value] = list(loop.init_args)  # type: ignore[attr-defined]
        for iteration in range(trip):
            iv = arith.index_constant(builder, lb + iteration * step)
            current = _clone_body_at(loop, builder, iv, current)
        loop.replace_all_uses_with(current)
        loop.erase()
        return

    if factor is None or factor <= 0:
        raise LoopTransformError("partial unrolling requires a factor > 0")
    if factor == 1:
        return  # unroll by 1 is a no-op (paper §3.4 simplification rule)
    if trip % factor != 0:
        raise LoopTransformError(
            f"trip count {trip} not divisible by unroll factor {factor}"
        )

    builder = Builder.before(loop)
    new_step = arith.index_constant(builder, step * factor)
    inits = list(loop.init_args)  # type: ignore[attr-defined]
    new_loop = scf.for_(builder, loop.lower_bound, loop.upper_bound,  # type: ignore[attr-defined]
                        new_step, inits)
    body_builder = Builder.at_end(new_loop.body)
    current = list(new_loop.iter_args)
    for copy in range(factor):
        offset = arith.index_constant(body_builder, copy * step)
        iv = arith.addi(body_builder, new_loop.induction_var, offset)
        current = _clone_body_at(loop, body_builder, iv, current)
    scf.yield_(Builder.at_end(new_loop.body), current)
    loop.replace_all_uses_with(list(new_loop.results))
    loop.erase()


# ---------------------------------------------------------------------------
# Interchange, peeling, hoisting, fusion
# ---------------------------------------------------------------------------


def interchange_loops(outer: Operation, inner: Operation) -> None:
    """Swap two perfectly nested loops in place.

    The inner loop's bounds must not depend on the outer induction
    variable, and neither loop may carry iteration arguments.
    """
    _require_for(outer, "loop interchange")
    _require_for(inner, "loop interchange")
    if inner.parent is None or inner.parent.parent_op is not outer:
        raise LoopTransformError(
            "interchange requires directly nested loops"
        )
    body_ops = [
        op for op in outer.body.ops if op.name != "scf.yield"  # type: ignore[attr-defined]
    ]
    if body_ops != [inner]:
        raise LoopTransformError("interchange requires a perfect nest")
    if outer.init_args or inner.init_args:  # type: ignore[attr-defined]
        raise LoopTransformError("interchange does not support iter_args")
    for bound in inner.operands[:3]:
        defining = bound.defining_op()
        if defining is not None and outer.is_ancestor_of(defining):
            raise LoopTransformError(
                "inner loop bounds depend on the outer loop"
            )
        if bound is outer.induction_var:  # type: ignore[attr-defined]
            raise LoopTransformError(
                "inner loop bounds depend on the outer induction variable"
            )

    outer_bounds = list(outer.operands[:3])
    inner_bounds = list(inner.operands[:3])
    for index, value in enumerate(inner_bounds):
        outer.set_operand(index, value)
    for index, value in enumerate(outer_bounds):
        inner.set_operand(index, value)
    # Swap the roles of the induction variables by swapping their uses.
    outer_iv = outer.induction_var  # type: ignore[attr-defined]
    inner_iv = inner.induction_var  # type: ignore[attr-defined]
    outer_uses = list(outer_iv.uses)
    inner_uses = list(inner_iv.uses)
    for use in outer_uses:
        use.set(inner_iv)
    for use in inner_uses:
        use.set(outer_iv)


def peel_loop(loop: Operation) -> Tuple[Operation, Operation]:
    """Peel the last partial iteration block: split at the largest
    step-aligned point (equivalent to splitting by the step multiple).
    """
    _require_for(loop, "loop peeling")
    lb, ub, step = _constant_bounds(loop, "loop peeling")
    if step <= 1:
        raise LoopTransformError("peeling needs a step greater than 1")
    return split_loop(loop, 1)


def hoist_loop_invariants_to(loop: Operation,
                             target: Optional[Operation] = None) -> int:
    """Hoist loop-invariant pure ops out of ``loop``.

    With a ``target`` function, hoisted ops are moved to its entry block
    (paper Fig. 1 line 3: ``loop.hoist from %outer to %func``);
    otherwise they land immediately before the loop.
    """
    from ..passes.licm import hoist_loop_invariants

    _require_for(loop, "hoisting")
    count = hoist_loop_invariants(loop)
    if target is not None and count:
        if not target.regions or not target.regions[0].blocks:
            raise LoopTransformError("hoist target has no entry block")
        entry = target.regions[0].entry_block
        block = loop.parent
        assert block is not None
        if block is not entry:
            # Move the freshly hoisted ops (now just before the loop) to
            # the target's entry block when their operands allow it.
            moved = 0
            following = block.ops[0]
            while following is not loop:
                op, following = following, following.next_op
                defined_locally = any(
                    operand.defining_op() is not None
                    and operand.defining_op().parent is block
                    for operand in op.operands
                )
                if defined_locally or not op.results:
                    continue
                entry.insert(moved, op)
                moved += 1
    return count


def fuse_sibling_loops(first: Operation, second: Operation) -> Operation:
    """Fuse two adjacent loops with identical bounds into one."""
    from ..dialects import scf

    _require_for(first, "loop fusion")
    _require_for(second, "loop fusion")
    if first.parent is not second.parent:
        raise LoopTransformError("fusion requires sibling loops")
    if [v for v in first.operands[:3]] != [v for v in second.operands[:3]]:
        if (first.constant_bounds() is None  # type: ignore[attr-defined]
                or first.constant_bounds() != second.constant_bounds()):  # type: ignore[attr-defined]
            raise LoopTransformError("fusion requires identical bounds")
    if first.init_args or second.init_args:  # type: ignore[attr-defined]
        raise LoopTransformError("fusion does not support iter_args")
    # All ops between the two loops must not depend on the first loop.
    block = first.parent
    assert block is not None
    between = first.next_op if first.is_before_in_block(second) else second
    while between is not second:
        if between.name != "scf.for":
            raise LoopTransformError("loops are not adjacent")
        between = between.next_op

    yield_op = first.body.ops[-1]  # type: ignore[attr-defined]
    insert_builder = Builder.before(yield_op)
    value_map: Dict[Value, Value] = {
        second.induction_var: first.induction_var  # type: ignore[attr-defined]
    }
    for op in second.body.ops:  # type: ignore[attr-defined]
        if op.name == "scf.yield":
            continue
        insert_builder.insert(op.clone(value_map))
    second.erase()
    return first
