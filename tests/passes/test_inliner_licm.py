"""Tests for the inliner and loop-invariant code motion."""

import pytest

from repro.dialects import arith, builtin, func, scf
from repro.ir import Builder, I32, INDEX
from repro.ir.context import SymbolTable
from repro.ir.location import CallSiteLoc, FileLineColLoc
from repro.passes import PassManager
from repro.passes.inliner import InliningError, detect_recursion, inline_call
from repro.passes.licm import hoist_loop_invariants, is_loop_invariant


def make_callee(module, name="callee", mark_inline=True):
    callee = func.func(name, [I32], [I32])
    if mark_inline:
        callee.set_attr("inline", True)
    module.body.append(callee)
    builder = Builder.at_end(callee.body)
    doubled = arith.addi(builder, callee.body.args[0],
                         callee.body.args[0])
    func.return_(builder, [doubled])
    return callee


class TestInliner:
    def build_caller(self, mark_inline=True):
        module = builtin.module()
        make_callee(module, mark_inline=mark_inline)
        caller = func.func("caller", [I32], [I32])
        module.body.append(caller)
        builder = Builder.at_end(caller.body)
        call = func.call(builder, "callee", [caller.body.args[0]], [I32])
        func.return_(builder, [call.results[0]])
        return module, caller

    def test_inlines_marked_callee(self):
        module, caller = self.build_caller()
        PassManager(["inline"]).run(module)
        names = [op.name for op in caller.walk()]
        assert "func.call" not in names
        assert "arith.addi" in names

    def test_skips_unmarked_by_default(self):
        module, caller = self.build_caller(mark_inline=False)
        PassManager(["inline"]).run(module)
        assert any(op.name == "func.call" for op in caller.walk())

    def test_inline_call_wires_results(self):
        module, caller = self.build_caller()
        call = next(caller.walk_ops("func.call"))
        from repro.ir.context import SymbolTable

        callee = SymbolTable(module).lookup("callee")
        inline_call(call, callee)
        ret = caller.body.ops[-1]
        assert ret.name == "func.return"
        assert ret.operand(0).defining_op().name == "arith.addi"

    def test_inlined_ops_are_located_at_the_call_site(self):
        def at(line):
            return FileLineColLoc("payload.mlir", line, 1)

        module = builtin.module()
        leaf = make_callee(module, "leaf")
        next(leaf.walk_ops("arith.addi")).location = at(1)
        for name, callee, line in (("mid", "leaf", 2), ("caller", "mid", 3)):
            function = func.func(name, [I32], [I32])
            function.set_attr("inline", True)
            module.body.append(function)
            builder = Builder.at_end(function.body)
            call = func.call(builder, callee, [function.body.args[0]], [I32])
            call.location = at(line)
            func.return_(builder, [call.results[0]])
        PassManager(["inline"]).run(module)
        caller = SymbolTable(module).lookup("caller")
        added = next(caller.walk_ops("arith.addi")).location
        # Two expansions, two frames: callsite(callsite(1 at 2) at 3).
        assert added == CallSiteLoc(CallSiteLoc(at(1), at(2)), at(3))

    def test_result_count_mismatch_is_an_inlining_error(self):
        module, caller = self.build_caller()
        call = next(caller.walk_ops("func.call"))
        bare = func.call(Builder.before(call), "callee",
                         [caller.body.args[0]])
        with pytest.raises(InliningError, match="result count mismatch"):
            inline_call(bare, SymbolTable(module).lookup("callee"))

    def test_inline_declaration_fails(self):
        module = builtin.module()
        declaration = func.func("ext", [I32], [I32], declaration=True)
        module.body.append(declaration)
        caller = func.func("caller", [I32], [I32])
        module.body.append(caller)
        builder = Builder.at_end(caller.body)
        call = func.call(builder, "ext", [caller.body.args[0]], [I32])
        func.return_(builder, [call.results[0]])
        with pytest.raises(InliningError):
            inline_call(call, declaration)

    def test_recursion_detected(self):
        module = builtin.module()
        rec = func.func("rec", [I32], [I32])
        rec.set_attr("inline", True)
        module.body.append(rec)
        builder = Builder.at_end(rec.body)
        call = func.call(builder, "rec", [rec.body.args[0]], [I32])
        func.return_(builder, [call.results[0]])
        assert detect_recursion(module)
        with pytest.raises(InliningError, match="recursive"):
            PassManager(["inline"]).run(module)

    def test_mutual_recursion_detected(self):
        module = builtin.module()
        for name, other in (("a", "b"), ("b", "a")):
            f = func.func(name, [], [])
            module.body.append(f)
            builder = Builder.at_end(f.body)
            func.call(builder, other)
            func.return_(builder)
        assert detect_recursion(module)


class TestLICM:
    def build_loop_with_invariant(self):
        module = builtin.module()
        f = func.func("f", [INDEX])
        module.body.append(f)
        builder = Builder.at_end(f.body)
        lb = arith.index_constant(builder, 0)
        ub = arith.index_constant(builder, 8)
        step = arith.index_constant(builder, 1)
        loop = scf.for_(builder, lb, ub, step)
        body = Builder.at_end(loop.body)
        invariant = arith.addi(body, f.body.args[0], f.body.args[0])
        variant = arith.addi(body, loop.induction_var, invariant)
        body.create("test.sink", operands=[variant])
        scf.yield_(body)
        func.return_(builder)
        return module, f, loop, invariant, variant

    def test_is_loop_invariant(self):
        _module, _f, loop, invariant, variant = \
            self.build_loop_with_invariant()
        assert is_loop_invariant(invariant.defining_op(), loop)
        assert not is_loop_invariant(variant.defining_op(), loop)

    def test_hoist_moves_invariant_out(self):
        module, f, loop, invariant, _variant = \
            self.build_loop_with_invariant()
        count = hoist_loop_invariants(loop)
        assert count == 1
        assert invariant.defining_op().parent is f.body

    def test_pass_runs_on_nested_loops(self):
        module = builtin.module()
        f = func.func("f", [INDEX])
        module.body.append(f)
        builder = Builder.at_end(f.body)
        lb = arith.index_constant(builder, 0)
        ub = arith.index_constant(builder, 4)
        step = arith.index_constant(builder, 1)
        outer = scf.for_(builder, lb, ub, step)
        outer_builder = Builder.at_end(outer.body)
        inner = scf.for_(outer_builder, lb, ub, step)
        inner_builder = Builder.at_end(inner.body)
        invariant = arith.addi(inner_builder, f.body.args[0],
                               f.body.args[0])
        inner_builder.create("test.sink", operands=[invariant])
        scf.yield_(inner_builder)
        scf.yield_(Builder.at_end(outer.body))
        func.return_(builder)
        PassManager(["loop-invariant-code-motion"]).run(module)
        # sink uses the value inside, so computation must be before
        # the *outer* loop now... the sink keeps it anchored inside.
        assert invariant.defining_op().parent is not inner.body

    def test_side_effecting_not_hoisted(self):
        from repro.dialects import memref as memref_dialect
        from repro.ir.types import memref

        module = builtin.module()
        f = func.func("f", [])
        module.body.append(f)
        builder = Builder.at_end(f.body)
        lb = arith.index_constant(builder, 0)
        ub = arith.index_constant(builder, 4)
        step = arith.index_constant(builder, 1)
        loop = scf.for_(builder, lb, ub, step)
        body = Builder.at_end(loop.body)
        ref = memref_dialect.alloc(body, memref(4))
        body.create("test.sink", operands=[ref])
        scf.yield_(body)
        func.return_(builder)
        hoist_loop_invariants(loop)
        assert ref.defining_op().parent is loop.body
