"""Function inlining.

Used both as a payload optimization and — crucially for §3.4 of the
paper — to expand ``transform.include`` macros: a named transform
sequence is a function-like op, so :func:`inline_call` splices its body
at an include exactly as it splices a ``func.func`` body at a
``func.call``, and :func:`detect_recursion` checks either call graph for
cycles. Callees are resolved by :func:`repro.ir.context.find_callee`;
``core.script_transforms.expand_includes`` is this inliner applied to
transform IR. As in MLIR, every inlined op is located
``callsite(<its location in the callee> at <the call>)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..ir.builder import Builder
from ..ir.context import find_callee
from ..ir.core import Block, Operation, Value
from ..ir.location import CallSiteLoc
from .manager import Pass, register_pass


class InliningError(Exception):
    pass


def _return_op(body: Block) -> Optional[Operation]:
    """The op through which a callee body hands back its values."""
    last = body.ops[-1] if body.ops else None
    if last is not None and last.name in ("func.return", "transform.yield"):
        return last
    return None


def arity_mismatch(call_op: Operation, body: Block) -> Optional[str]:
    """Which count a call and its callee's body disagree on —
    ``"argument"`` or ``"result"`` — or None when they agree: the one
    rule the inliner, the interpreter and lint apply to a call."""
    if len(body.args) != call_op.num_operands:
        return "argument"
    returned = _return_op(body)
    if (returned.num_operands if returned else 0) != len(call_op.results):
        return "result"
    return None


def inline_call(call_op: Operation, callee: Operation) -> None:
    """Inline ``callee``'s single-block body at ``call_op``.

    Arguments are substituted for block parameters; the terminator's
    operands replace the call results. Each inlined op, nested ones
    included, is located at the call site of its callee location.
    """
    if not callee.regions or not callee.regions[0].blocks:
        raise InliningError(f"cannot inline declaration {callee.name}")
    if len(callee.regions[0].blocks) != 1:
        raise InliningError("multi-block inlining is not supported")
    body = callee.regions[0].entry_block
    mismatch = arity_mismatch(call_op, body)
    if mismatch is not None:
        raise InliningError(f"call {mismatch} count mismatch")

    value_map: Dict[Value, Value] = dict(zip(body.args, call_op.operands))
    builder = Builder.before(call_op)
    returned = _return_op(body)
    for op in body.ops:
        if op is returned:
            continue
        for inlined in builder.insert(op.clone(value_map)).walk():
            inlined.location = CallSiteLoc(inlined.location,
                                           call_op.location)
    call_op.replace_all_uses_with(
        [value_map.get(v, v) for v in returned.operands] if returned else [])
    call_op.erase()


def detect_recursion(module: Operation, callable_name: str = "func.func",
                     call_name: str = "func.call",
                     callee_attr: str = "callee") -> Optional[Operation]:
    """The call that closes a cycle in the call graph under ``module``
    — a ``call_name`` op re-entering a ``callable_name`` op already on
    its own call path — or None when the graph is acyclic."""
    calls: Dict[Operation, List[Operation]] = {
        caller: list(caller.walk_ops(call_name))
        for caller in module.walk_ops(callable_name)
    }
    path: Set[Operation] = set()
    done: Set[Operation] = set()

    def visit(caller: Operation) -> Optional[Operation]:
        path.add(caller)
        for call in calls[caller]:
            callee = find_callee(call, callee_attr)
            if callee in path:
                return call
            if callee in calls and callee not in done:
                cycle = visit(callee)
                if cycle is not None:
                    return cycle
        path.discard(caller)
        done.add(caller)
        return None

    for caller in calls:
        cycle = None if caller in done else visit(caller)
        if cycle is not None:
            return cycle
    return None


@register_pass
class InlinerPass(Pass):
    """Inline every ``func.call`` whose callee is a defined function
    annotated with an ``inline`` unit attribute."""

    NAME = "inline"
    DESCRIPTION = "inline function calls"

    def run(self, op: Operation) -> None:
        if detect_recursion(op) is not None:
            raise InliningError("recursive call graph; refusing to inline")
        changed = True
        while changed:
            changed = False
            for call_op in list(op.walk_ops("func.call")):
                if call_op.parent is None:
                    continue
                callee = find_callee(call_op)
                if callee is None or not callee.regions[0].blocks:
                    continue
                if callee.attr("inline") is None:
                    continue
                inline_call(call_op, callee)
                changed = True
