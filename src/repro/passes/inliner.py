"""Function inlining.

Used both as a payload optimization and — crucially for §3.4 of the
paper — to expand ``transform.include`` macros: a named transform
sequence is a function-like op, so :func:`inline_call` splices its body
at an include exactly as it splices a ``func.func`` body at a
``func.call``, and :func:`detect_recursion` checks either call graph for
cycles. Callees are resolved by :func:`repro.ir.context.find_callee`;
``core.script_transforms.expand_includes`` is this inliner applied to
transform IR.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..ir.builder import Builder
from ..ir.context import find_callee
from ..ir.core import Operation, Value
from .manager import Pass, register_pass


class InliningError(Exception):
    pass


def inline_call(call_op: Operation, callee: Operation) -> None:
    """Inline ``callee``'s single-block body at ``call_op``.

    Arguments are substituted for block parameters; the terminator's
    operands replace the call results.
    """
    if not callee.regions or not callee.regions[0].blocks:
        raise InliningError(f"cannot inline declaration {callee.name}")
    if len(callee.regions[0].blocks) != 1:
        raise InliningError("multi-block inlining is not supported")

    value_map: Dict[Value, Value] = {}
    body = callee.regions[0].entry_block
    if len(body.args) != call_op.num_operands:
        raise InliningError("call argument count mismatch")
    for arg, actual in zip(body.args, call_op.operands):
        value_map[arg] = actual

    target = call_op.parent
    assert target is not None
    builder = Builder.before(call_op)
    returned = []
    for op in body.ops:
        if op is body.ops[-1] and op.name in (
            "func.return", "transform.yield"
        ):
            returned = [value_map.get(v, v) for v in op.operands]
            continue
        builder.insert(op.clone(value_map))
    call_op.replace_all_uses_with(returned)
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
    """Inline every ``func.call`` whose callee is a defined function.

    With ``always=False`` (default) only callees annotated with an
    ``inline`` unit attribute are expanded.
    """

    NAME = "inline"
    DESCRIPTION = "inline function calls"

    def __init__(self, always: bool = False, **options) -> None:
        super().__init__(always=always, **options)
        self.always = bool(always)

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
                if not self.always and callee.attr("inline") is None:
                    continue
                inline_call(call_op, callee)
                changed = True
