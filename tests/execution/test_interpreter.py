"""Tests for the payload reference interpreter."""

import numpy as np
import pytest

from repro.dialects import arith, builtin, cf, func, memref as md, scf
from repro.execution.interpreter import ExecutionError, PayloadInterpreter
from repro.execution.workloads import (
    build_batch_matmul_module,
    build_matmul_module,
    reference_matmul,
)
from repro.ir import Block, Builder, F64, I1, I32, INDEX
from repro.ir.types import memref


def simple_func(arg_types=(), result_types=()):
    module = builtin.module()
    f = func.func("f", list(arg_types), list(result_types))
    module.body.append(f)
    return module, f, Builder.at_end(f.body)


class TestScalars:
    def test_arith(self):
        module, f, b = simple_func(result_types=[I32])
        two = arith.constant(b, 2, I32)
        three = arith.constant(b, 3, I32)
        total = arith.addi(b, two, three)
        product = arith.muli(b, total, total)
        func.return_(b, [product])
        assert PayloadInterpreter(module).run("f") == [25]

    def test_cmp_select(self):
        module, f, b = simple_func(result_types=[I32])
        two = arith.constant(b, 2, I32)
        three = arith.constant(b, 3, I32)
        less = arith.cmpi(b, "slt", two, three)
        chosen = arith.select(b, less, two, three)
        func.return_(b, [chosen])
        assert PayloadInterpreter(module).run("f") == [2]

    def test_float_ops(self):
        module, f, b = simple_func(result_types=[F64])
        x = arith.constant(b, 7.0, F64)
        y = arith.constant(b, 2.0, F64)
        func.return_(b, [arith.divf(b, x, y)])
        assert PayloadInterpreter(module).run("f") == [3.5]


class TestControlFlow:
    def test_loop_with_iter_args(self):
        module, f, b = simple_func(result_types=[F64])
        lb = arith.index_constant(b, 0)
        ub = arith.index_constant(b, 5)
        step = arith.index_constant(b, 1)
        init = arith.constant(b, 0.0, F64)
        one = arith.constant(b, 1.0, F64)
        loop = scf.for_(b, lb, ub, step, [init])
        body = Builder.at_end(loop.body)
        updated = arith.addf(body, loop.iter_args[0], one)
        scf.yield_(body, [updated])
        func.return_(b, [loop.results[0]])
        assert PayloadInterpreter(module).run("f") == [5.0]

    def test_if_else(self):
        module, f, b = simple_func([I1], [INDEX])
        if_op = scf.if_(b, f.body.args[0], [INDEX], with_else=True)
        tb = Builder.at_end(if_op.then_block)
        scf.yield_(tb, [arith.index_constant(tb, 1)])
        eb = Builder.at_end(if_op.else_block)
        scf.yield_(eb, [arith.index_constant(eb, 2)])
        func.return_(b, [if_op.results[0]])
        assert PayloadInterpreter(module).run("f", True) == [1]
        assert PayloadInterpreter(module).run("f", False) == [2]

    def test_cfg_branches(self):
        module, f, b = simple_func([I1], [INDEX])
        then_block = Block()
        else_block = Block()
        merge = Block([INDEX])
        f.regions[0].add_block(then_block)
        f.regions[0].add_block(else_block)
        f.regions[0].add_block(merge)
        cf.cond_br(b, f.body.args[0], then_block, else_block)
        tb = Builder.at_end(then_block)
        cf.br(tb, merge, [arith.index_constant(tb, 10)])
        eb = Builder.at_end(else_block)
        cf.br(eb, merge, [arith.index_constant(eb, 20)])
        func.return_(Builder.at_end(merge), [merge.args[0]])
        assert PayloadInterpreter(module).run("f", True) == [10]
        assert PayloadInterpreter(module).run("f", False) == [20]

    def test_forall(self):
        module, f, b = simple_func([memref(3, 3, element_type=F64)])
        c3 = arith.index_constant(b, 3)
        forall = scf.forall(b, [c3, c3])
        body = Builder.at_end(forall.body)
        one = arith.constant(body, 1.0, F64)
        md.store(body, one, f.body.args[0], forall.induction_vars)
        scf.yield_(body)
        func.return_(b)
        buffer = np.zeros((3, 3))
        PayloadInterpreter(module).run("f", buffer)
        assert (buffer == 1.0).all()


class TestMemory:
    def test_alloc_load_store(self):
        module, f, b = simple_func(result_types=[F64])
        buffer = md.alloc(b, memref(4, element_type=F64))
        i = arith.index_constant(b, 2)
        value = arith.constant(b, 9.0, F64)
        md.store(b, value, buffer, [i])
        loaded = md.load(b, buffer, [i])
        func.return_(b, [loaded])
        assert PayloadInterpreter(module).run("f") == [9.0]

    def test_subview_is_a_view(self):
        module, f, b = simple_func([memref(8, 8, element_type=F64)])
        view = md.subview(b, f.body.args[0], [2, 2], [2, 2], [1, 1])
        zero = arith.index_constant(b, 0)
        value = arith.constant(b, 5.0, F64)
        md.store(b, value, view, [zero, zero])
        func.return_(b)
        buffer = np.zeros((8, 8))
        PayloadInterpreter(module).run("f", buffer)
        assert buffer[2, 2] == 5.0
        assert buffer.sum() == 5.0

    def test_subview_dynamic_offset(self):
        module, f, b = simple_func(
            [memref(8, 8, element_type=F64), INDEX]
        )
        view = md.subview(b, f.body.args[0],
                          [f.body.args[1], 0], [2, 2], [1, 1])
        zero = arith.index_constant(b, 0)
        value = arith.constant(b, 5.0, F64)
        md.store(b, value, view, [zero, zero])
        func.return_(b)
        buffer = np.zeros((8, 8))
        PayloadInterpreter(module).run("f", buffer, 3)
        assert buffer[3, 0] == 5.0


class TestPrograms:
    def test_matmul(self):
        module = build_matmul_module(5, 4, 3)
        a, b, c, expected = reference_matmul(5, 4, 3)
        PayloadInterpreter(module).run("matmul", a, b, c)
        assert np.allclose(c, expected)

    def test_batch_matmul(self):
        module = build_batch_matmul_module(2, 3, 3, 3)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2, 3, 3))
        b = rng.standard_normal((2, 3, 3))
        c = np.zeros((2, 3, 3))
        PayloadInterpreter(module).run("batch_matmul", a, b, c)
        assert np.allclose(c, a @ b)

    def test_lowered_cfg_matmul_matches(self):
        """The program still computes the same thing after scf->cf."""
        from repro.passes import PassManager

        module = build_matmul_module(4, 4, 4)
        PassManager(["convert-scf-to-cf"]).run(module)
        a, b, c, expected = reference_matmul(4, 4, 4)
        PayloadInterpreter(module).run("matmul", a, b, c)
        assert np.allclose(c, expected)


class TestErrors:
    def test_unknown_function(self):
        module = builtin.module()
        with pytest.raises(ExecutionError, match="no function"):
            PayloadInterpreter(module).run("ghost")

    def test_arg_count_mismatch(self):
        module, _f, b = simple_func([I32])
        func.return_(b)
        with pytest.raises(ExecutionError, match="expects 1 args"):
            PayloadInterpreter(module).run("f")

    def test_step_budget(self):
        module, f, b = simple_func()
        lb = arith.index_constant(b, 0)
        ub = arith.index_constant(b, 10_000_000)
        step = arith.index_constant(b, 1)
        loop = scf.for_(b, lb, ub, step)
        body = Builder.at_end(loop.body)
        arith.index_constant(body, 1)
        scf.yield_(body)
        func.return_(b)
        interp = PayloadInterpreter(module, max_steps=1000)
        with pytest.raises(ExecutionError, match="budget"):
            interp.run("f")

    def test_unsupported_op(self):
        module, _f, b = simple_func()
        b.create("tosa.add")
        func.return_(b)
        with pytest.raises(ExecutionError, match="does not support"):
            PayloadInterpreter(module).run("f")
