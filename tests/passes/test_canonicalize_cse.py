"""Tests for canonicalization, DCE and CSE."""

import pytest

from repro.dialects import arith, builtin, func, scf
from repro.ir import Builder, F64, I1, I32, INDEX
from repro.ir.core import Pure
from repro.mlmodels import MODEL_SPECS, build_model
from repro.passes import PassManager
from repro.passes.tosa_pipeline import TOSA_TO_LINALG_PIPELINE
from repro.rewrite import apply_patterns_greedily, pattern
from tests.passes.test_lowerings import FIXED_PIPELINE, build_subview_payload


def make_func(arg_types=()):
    module = builtin.module()
    f = func.func("f", list(arg_types), [])
    module.body.append(f)
    return module, f, Builder.at_end(f.body)


def constants_in(module):
    return [
        op.value for op in module.walk() if op.name == "arith.constant"
    ]


class TestConstantFolding:
    def test_addi_folds(self):
        module, f, b = make_func()
        a = arith.constant(b, 2, I32)
        c = arith.constant(b, 3, I32)
        added = arith.addi(b, a, c)
        keep = b.create("test.keep", operands=[added])
        func.return_(b)
        PassManager(["canonicalize"]).run(module)
        assert keep.operand(0).defining_op().value == 5
        assert not any(op.name == "arith.addi" for op in module.walk())

    def test_float_folds(self):
        module, f, b = make_func()
        a = arith.constant(b, 2.0, F64)
        c = arith.constant(b, 4.0, F64)
        prod = arith.mulf(b, a, c)
        b.create("test.keep", operands=[prod])
        func.return_(b)
        PassManager(["canonicalize"]).run(module)
        assert 8.0 in constants_in(module)

    def test_division_by_zero_not_folded(self):
        module, f, b = make_func()
        a = arith.constant(b, 2, I32)
        zero = arith.constant(b, 0, I32)
        divided = arith.divsi(b, a, zero)
        b.create("test.keep", operands=[divided])
        func.return_(b)
        PassManager(["canonicalize"]).run(module)
        assert any(op.name == "arith.divsi" for op in module.walk())

    def test_cmpi_folds(self):
        module, f, b = make_func()
        a = arith.constant(b, 2, I32)
        c = arith.constant(b, 3, I32)
        cmp = arith.cmpi(b, "slt", a, c)
        b.create("test.keep", operands=[cmp])
        func.return_(b)
        PassManager(["canonicalize"]).run(module)
        assert not any(op.name == "arith.cmpi" for op in module.walk())


class TestIdentities:
    def test_add_zero(self):
        module, f, b = make_func((I32,))
        zero = arith.constant(b, 0, I32)
        result = arith.addi(b, f.body.args[0], zero)
        keep = b.create("test.keep", operands=[result])
        func.return_(b)
        PassManager(["canonicalize"]).run(module)
        assert keep.operand(0) is f.body.args[0]

    def test_commuted_add_zero(self):
        module, f, b = make_func((I32,))
        zero = arith.constant(b, 0, I32)
        result = arith.addi(b, zero, f.body.args[0])
        keep = b.create("test.keep", operands=[result])
        func.return_(b)
        PassManager(["canonicalize"]).run(module)
        assert keep.operand(0) is f.body.args[0]

    def test_sub_zero_not_commuted(self):
        module, f, b = make_func((I32,))
        zero = arith.constant(b, 0, I32)
        result = arith.subi(b, zero, f.body.args[0])  # 0 - x != x
        keep = b.create("test.keep", operands=[result])
        func.return_(b)
        PassManager(["canonicalize"]).run(module)
        assert keep.operand(0).defining_op().name == "arith.subi"

    def test_mul_zero(self):
        module, f, b = make_func((I32,))
        zero = arith.constant(b, 0, I32)
        result = arith.muli(b, f.body.args[0], zero)
        keep = b.create("test.keep", operands=[result])
        func.return_(b)
        PassManager(["canonicalize"]).run(module)
        assert keep.operand(0).defining_op().value == 0

    def test_select_constant_cond(self):
        module, f, b = make_func((I32, I32))
        true_const = arith.constant(b, 1, I1)
        chosen = arith.select(b, true_const, f.body.args[0],
                              f.body.args[1])
        keep = b.create("test.keep", operands=[chosen])
        func.return_(b)
        PassManager(["canonicalize"]).run(module)
        assert keep.operand(0) is f.body.args[0]


class TestControlFlowFolds:
    def test_zero_trip_loop_removed(self):
        module, f, b = make_func()
        lb = arith.index_constant(b, 5)
        ub = arith.index_constant(b, 5)
        step = arith.index_constant(b, 1)
        loop = scf.for_(b, lb, ub, step)
        scf.yield_(Builder.at_end(loop.body))
        func.return_(b)
        PassManager(["canonicalize"]).run(module)
        assert not any(op.name == "scf.for" for op in module.walk())

    def test_constant_if_inlines_taken_branch(self):
        module, f, b = make_func()
        cond = arith.constant(b, 1, I1)
        if_op = scf.if_(b, cond, result_types=[INDEX], with_else=True)
        tb = Builder.at_end(if_op.then_block)
        then_value = arith.index_constant(tb, 10)
        scf.yield_(tb, [then_value])
        eb = Builder.at_end(if_op.else_block)
        else_value = arith.index_constant(eb, 20)
        scf.yield_(eb, [else_value])
        keep = b.create("test.keep", operands=[if_op.results[0]])
        func.return_(b)
        PassManager(["canonicalize"]).run(module)
        assert keep.operand(0).defining_op().value == 10
        assert not any(op.name == "scf.if" for op in module.walk())


def trivially_dead(module):
    return [op for op in module.walk() if op.has_trait(Pure) and op.results
            and not any(result.has_uses() for result in op.results)]


class TestDCE:
    """The greedy driver erases dead pure ops as it pops them; there is
    no sweep after it."""

    def test_unused_pure_chain_removed(self):
        module, f, b = make_func()
        a = arith.constant(b, 1, I32)
        c = arith.constant(b, 2, I32)
        arith.addi(b, a, c)  # unused
        func.return_(b)
        PassManager(["canonicalize"]).run(module)
        assert len(f.body.ops) == 1  # only func.return

    def test_side_effecting_ops_kept(self):
        from repro.dialects import memref as memref_dialect
        from repro.ir.types import memref

        module, f, b = make_func()
        memref_dialect.alloc(b, memref(4))  # side-effecting, unused
        func.return_(b)
        PassManager(["canonicalize"]).run(module)
        assert any(op.name == "memref.alloc" for op in module.walk())

    def test_a_use_erased_with_a_region_frees_its_definer(self):
        # The untaken branch is the only user of %two; it goes with the
        # folded scf.if.
        module, f, b = make_func()
        cond = arith.constant(b, 1, I1)
        two = arith.index_constant(b, 2)
        if_op = scf.if_(b, cond, result_types=[INDEX], with_else=True)
        tb = Builder.at_end(if_op.then_block)
        scf.yield_(tb, [arith.index_constant(tb, 10)])
        eb = Builder.at_end(if_op.else_block)
        scf.yield_(eb, [two])
        b.create("test.keep", operands=[if_op.results[0]])
        func.return_(b)
        PassManager(["canonicalize"]).run(module)
        assert constants_in(module) == [10]

    def test_an_operand_dropped_in_place_frees_its_definer(self):
        module, f, b = make_func([I32])
        doubled = arith.addi(b, f.body.args[0], f.body.args[0])
        keep = b.create("test.keep", operands=[doubled])
        func.return_(b)

        @pattern("test.keep")
        def use_the_argument(op, rewriter):
            if op.operand(0) is f.body.args[0]:
                return False
            rewriter.modify_op_in_place(
                op, lambda: op.set_operand(0, f.body.args[0]))
            return True

        assert apply_patterns_greedily(module, [use_the_argument])
        assert [op.name for op in f.body.ops] == ["test.keep", "func.return"]
        assert keep.operand(0) is f.body.args[0]

    @pytest.mark.parametrize("model", sorted(MODEL_SPECS))
    def test_no_dead_pure_op_outlives_canonicalize_on_a_model(self, model):
        module = build_model(model)
        for name in TOSA_TO_LINALG_PIPELINE:
            PassManager([name]).run(module)
            if name == "canonicalize":
                assert trivially_dead(module) == []

    @pytest.mark.parametrize("dynamic_offset", [False, True])
    def test_no_dead_pure_op_outlives_canonicalize_on_table2(
            self, dynamic_offset):
        module = build_subview_payload(dynamic_offset)
        PassManager(["canonicalize"]).run(module)
        assert trivially_dead(module) == []
        PassManager([*FIXED_PIPELINE, "canonicalize"]).run(module)
        assert trivially_dead(module) == []


class TestCSE:
    def test_duplicate_constants_merged(self):
        module, f, b = make_func()
        a = arith.constant(b, 7, I32)
        c = arith.constant(b, 7, I32)
        keep = b.create("test.keep", operands=[a, c])
        func.return_(b)
        PassManager(["cse"]).run(module)
        assert keep.operand(0) is keep.operand(1)
        assert constants_in(module) == [7]

    def test_different_constants_kept(self):
        module, f, b = make_func()
        arith_a = arith.constant(b, 1, I32)
        arith_b = arith.constant(b, 2, I32)
        b.create("test.keep", operands=[arith_a, arith_b])
        func.return_(b)
        PassManager(["cse"]).run(module)
        assert sorted(constants_in(module)) == [1, 2]

    def test_impure_ops_not_merged(self):
        from repro.dialects import memref as memref_dialect
        from repro.ir.types import memref

        module, f, b = make_func()
        first = memref_dialect.alloc(b, memref(4))
        second = memref_dialect.alloc(b, memref(4))
        b.create("test.keep", operands=[first, second])
        func.return_(b)
        PassManager(["cse"]).run(module)
        assert sum(
            1 for op in module.walk() if op.name == "memref.alloc"
        ) == 2

    def test_nested_scope_can_reuse_outer(self):
        module, f, b = make_func()
        outer_const = arith.constant(b, 3, I32)
        lb = arith.index_constant(b, 0)
        ub = arith.index_constant(b, 2)
        step = arith.index_constant(b, 1)
        loop = scf.for_(b, lb, ub, step)
        loop_builder = Builder.at_end(loop.body)
        inner_const = arith.constant(loop_builder, 3, I32)
        keep = loop_builder.create("test.keep", operands=[inner_const])
        scf.yield_(loop_builder)
        func.return_(b)
        PassManager(["cse"]).run(module)
        assert keep.operand(0) is outer_const
