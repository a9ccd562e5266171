"""A reference interpreter for payload IR.

Executes ``func``/``scf``/``arith``/``memref``/``cf`` programs on numpy
buffers. Its purpose is *semantic validation*: after a transform script
rewrites a program, running both versions here must produce identical
buffers — the property-test backbone for every loop transformation.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..ir.context import find_callee
from ..ir.core import Block, Operation
from ..ir.types import MemRefType


class ExecutionError(Exception):
    pass


_INT_BINOPS = {
    "arith.addi": lambda a, b: a + b,
    "arith.subi": lambda a, b: a - b,
    "arith.muli": lambda a, b: a * b,
    "arith.divsi": lambda a, b: int(a / b),
    "arith.remsi": lambda a, b: a - int(a / b) * b,
    "arith.andi": lambda a, b: a & b,
    "arith.ori": lambda a, b: a | b,
    "arith.xori": lambda a, b: a ^ b,
    "arith.maxsi": max,
    "arith.minsi": min,
    "arith.shli": lambda a, b: a << b,
    "arith.shrsi": lambda a, b: a >> b,
}

_FLOAT_BINOPS = {
    "arith.addf": lambda a, b: a + b,
    "arith.subf": lambda a, b: a - b,
    "arith.mulf": lambda a, b: a * b,
    "arith.divf": lambda a, b: a / b,
    "arith.maximumf": max,
    "arith.minimumf": min,
}

_CMPI = {
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


class _ReturnSignal(Exception):
    def __init__(self, values: List[object]):
        self.values = values


class PayloadInterpreter:
    """Executes functions of a payload module."""

    def __init__(self, module: Operation, max_steps: int = 50_000_000):
        self.module = module
        self.max_steps = max_steps
        self.steps = 0

    # -- public API -----------------------------------------------------------

    def run(self, function_name: str, *args) -> List[object]:
        """Invoke ``function_name`` with numpy arrays / scalars."""
        from ..ir.context import SymbolTable

        func_op = SymbolTable(self.module).lookup(function_name)
        if func_op is None:
            raise ExecutionError(f"no function named {function_name!r}")
        return self._call_function(func_op, list(args))

    # -- execution ----------------------------------------------------------

    def _call_function(self, func_op: Operation,
                       args: List[object]) -> List[object]:
        if func_op.attr("microkernel") is not None or not func_op.regions[0].blocks:
            return self._run_external(func_op, args)
        entry = func_op.regions[0].entry_block
        if len(entry.args) != len(args):
            raise ExecutionError(
                f"function expects {len(entry.args)} args, got {len(args)}"
            )
        env: Dict[int, object] = {
            id(formal): actual for formal, actual in zip(entry.args, args)
        }
        try:
            self._run_cfg(entry, env)
        except _ReturnSignal as signal:
            return signal.values
        return []

    def _run_external(self, func_op: Operation,
                      args: List[object]) -> List[object]:
        """Microkernel declarations execute as numpy matmuls."""
        name = func_op.attr("sym_name")
        if name is not None and "smm" in name.value:  # type: ignore[union-attr]
            a, b, c = args
            c += a @ b
            return []
        raise ExecutionError(
            f"cannot execute declaration {getattr(name, 'value', '?')}"
        )

    def _run_cfg(self, block: Block, env: Dict[int, object]) -> None:
        """Run a CFG region starting at ``block`` until func.return."""
        current: Optional[Block] = block
        incoming: List[object] = []
        while current is not None:
            for formal, actual in zip(current.args, incoming):
                env[id(formal)] = actual
            next_block, incoming = self._run_block_ops(current, env)
            current = next_block

    def _run_block_ops(self, block: Block, env: Dict[int, object]):
        for op in block.ops:
            self.steps += 1
            if self.steps > self.max_steps:
                raise ExecutionError("interpreter step budget exceeded")
            name = op.name
            if name == "func.return":
                raise _ReturnSignal([env[id(v)] for v in op.operands])
            if name == "cf.br":
                return op.successors[0], [env[id(v)] for v in op.operands]
            if name == "cf.cond_br":
                condition = env[id(op.operand(0))]
                if condition:
                    return op.true_dest, [env[id(v)] for v in op.true_args]  # type: ignore[attr-defined]
                return op.false_dest, [env[id(v)] for v in op.false_args]  # type: ignore[attr-defined]
            self._execute_op(op, env)
        return None, []

    def _execute_op(self, op: Operation, env: Dict[int, object]) -> None:
        name = op.name
        if name == "arith.constant":
            env[id(op.results[0])] = op.value  # type: ignore[attr-defined]
            return
        if name in _INT_BINOPS:
            lhs, rhs = (env[id(v)] for v in op.operands)
            env[id(op.results[0])] = _INT_BINOPS[name](lhs, rhs)
            return
        if name in _FLOAT_BINOPS:
            lhs, rhs = (env[id(v)] for v in op.operands)
            env[id(op.results[0])] = _FLOAT_BINOPS[name](lhs, rhs)
            return
        if name == "arith.cmpi":
            lhs, rhs = (env[id(v)] for v in op.operands)
            env[id(op.results[0])] = _CMPI[op.predicate](lhs, rhs)  # type: ignore[attr-defined]
            return
        if name == "arith.select":
            condition, true_value, false_value = (
                env[id(v)] for v in op.operands
            )
            env[id(op.results[0])] = true_value if condition else false_value
            return
        if name in ("arith.index_cast", "arith.sitofp", "arith.extf",
                    "arith.truncf", "arith.extsi", "arith.trunci"):
            env[id(op.results[0])] = env[id(op.operand(0))]
            return
        if name == "memref.alloc" or name == "memref.alloca":
            ref_type = op.results[0].type
            assert isinstance(ref_type, MemRefType)
            env[id(op.results[0])] = np.zeros(
                ref_type.shape, dtype=np.float64
            )
            return
        if name == "memref.dealloc":
            return
        if name == "memref.load":
            array = env[id(op.memref)]  # type: ignore[attr-defined]
            indices = tuple(int(env[id(v)]) for v in op.indices)  # type: ignore[attr-defined]
            env[id(op.results[0])] = array[indices]
            return
        if name == "memref.store":
            array = env[id(op.memref)]  # type: ignore[attr-defined]
            indices = tuple(int(env[id(v)]) for v in op.indices)  # type: ignore[attr-defined]
            array[indices] = env[id(op.value)]  # type: ignore[attr-defined]
            return
        if name == "memref.subview":
            self._execute_subview(op, env)
            return
        if name == "memref.copy":
            source, dest = (env[id(v)] for v in op.operands)
            np.copyto(dest, source)
            return
        if name == "scf.for":
            self._execute_for(op, env)
            return
        if name == "scf.if":
            self._execute_if(op, env)
            return
        if name == "scf.forall":
            self._execute_forall(op, env)
            return
        if name == "scf.yield":
            return  # handled by the structured-op executors
        if name == "func.call":
            callee = find_callee(op)
            if callee is None:
                raise ExecutionError(f"unresolved callee {op.callee!r}")  # type: ignore[attr-defined]
            results = self._call_function(
                callee, [env[id(v)] for v in op.operands]
            )
            for result, value in zip(op.results, results):
                env[id(result)] = value
            return
        if name == "affine.apply" or name == "affine.min":
            map_ = op.map  # type: ignore[attr-defined]
            operands = [int(env[id(v)]) for v in op.operands]
            dims = operands[: map_.num_dims]
            symbols = operands[map_.num_dims :]
            values = map_.evaluate(dims, symbols)
            env[id(op.results[0])] = (
                min(values) if name == "affine.min" else values[0]
            )
            return
        raise ExecutionError(f"interpreter does not support '{name}'")

    def _execute_subview(self, op: Operation, env: Dict[int, object]) -> None:
        source = env[id(op.source)]  # type: ignore[attr-defined]
        dynamic = [int(env[id(v)]) for v in op.dynamic_operands]  # type: ignore[attr-defined]
        cursor = 0

        def resolve(entries) -> List[int]:
            nonlocal cursor
            out = []
            for entry in entries:
                if entry == -1:
                    out.append(dynamic[cursor])
                    cursor += 1
                else:
                    out.append(entry)
            return out

        offsets = resolve(op.static_offsets)  # type: ignore[attr-defined]
        sizes = resolve(op.static_sizes)  # type: ignore[attr-defined]
        strides = resolve(op.static_strides)  # type: ignore[attr-defined]
        slices = tuple(
            slice(offset, offset + size * stride, stride)
            for offset, size, stride in zip(offsets, sizes, strides)
        )
        env[id(op.results[0])] = source[slices]

    def _execute_for(self, op: Operation, env: Dict[int, object]) -> None:
        lb = int(env[id(op.operand(0))])
        ub = int(env[id(op.operand(1))])
        step = int(env[id(op.operand(2))])
        if step <= 0:
            raise ExecutionError("scf.for requires a positive step")
        carried = [env[id(v)] for v in op.operands[3:]]
        body = op.regions[0].entry_block
        for iv in range(lb, ub, step):
            env[id(body.args[0])] = iv
            for formal, value in zip(body.args[1:], carried):
                env[id(formal)] = value
            for body_op in body.ops:
                if body_op.name == "scf.yield":
                    carried = [env[id(v)] for v in body_op.operands]
                    break
                self._execute_op(body_op, env)
                self.steps += 1
                if self.steps > self.max_steps:
                    raise ExecutionError("interpreter step budget exceeded")
        for result, value in zip(op.results, carried):
            env[id(result)] = value

    def _execute_if(self, op: Operation, env: Dict[int, object]) -> None:
        condition = env[id(op.operand(0))]
        region = op.regions[0] if condition else (
            op.regions[1] if len(op.regions) > 1 else None
        )
        yielded: List[object] = []
        if region is not None and region.blocks:
            for body_op in region.entry_block.ops:
                if body_op.name == "scf.yield":
                    yielded = [env[id(v)] for v in body_op.operands]
                    break
                self._execute_op(body_op, env)
        for result, value in zip(op.results, yielded):
            env[id(result)] = value

    def _execute_forall(self, op: Operation, env: Dict[int, object]) -> None:
        bounds = [int(env[id(v)]) for v in op.operands]
        body = op.regions[0].entry_block
        indices = [0] * len(bounds)

        def recurse(depth: int) -> None:
            if depth == len(bounds):
                for formal, value in zip(body.args, indices):
                    env[id(formal)] = value
                for body_op in body.ops:
                    if body_op.name == "scf.yield":
                        break
                    self._execute_op(body_op, env)
                return
            for position in range(bounds[depth]):
                indices[depth] = position
                recurse(depth + 1)

        recurse(0)
