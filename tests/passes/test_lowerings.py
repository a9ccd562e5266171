"""Tests for the Table-2 lowering passes (and case study 2's scenarios)."""

import pytest

from repro.dialects import arith, builtin, func, memref as memref_dialect, scf
from repro.ir import Builder, F32, I1, INDEX
from repro.ir.printer import print_op
from repro.ir.types import memref
from repro.passes import PassManager
from repro.rewrite.conversion import ConversionError

#: The broken pipeline of §4.2, exactly as in the paper.
BROKEN_PIPELINE = [
    "convert-scf-to-cf",
    "convert-arith-to-llvm",
    "convert-cf-to-llvm",
    "convert-func-to-llvm",
    "expand-strided-metadata",
    "finalize-memref-to-llvm",
    "reconcile-unrealized-casts",
]

#: The ad-hoc fix: lower-affine (+ re-run arith lowering) after (5).
FIXED_PIPELINE = (
    BROKEN_PIPELINE[:5]
    + ["lower-affine", "convert-arith-to-llvm"]
    + BROKEN_PIPELINE[5:]
)


def build_subview_payload(dynamic_offset: bool):
    """The case-study-2 function: subview + forall store of 42."""
    module = builtin.module()
    arg_types = [memref(64, 64)] + ([INDEX] if dynamic_offset else [])
    f = func.func("view", arg_types)
    module.body.append(f)
    builder = Builder.at_end(f.body)
    offset = f.body.args[1] if dynamic_offset else 0
    view = memref_dialect.subview(
        builder, f.body.args[0], [offset, 0], [4, 4], [1, 1]
    )
    c4 = arith.index_constant(builder, 4)
    forall = scf.forall(builder, [c4, c4])
    body = Builder.at_end(forall.body)
    value = arith.constant(body, 42.0, F32)
    memref_dialect.store(body, value, view, forall.induction_vars)
    scf.yield_(body)
    func.return_(builder)
    module.verify()
    return module


def op_names(module):
    return {op.name for op in module.walk() if op is not module}


class TestSCFToCF:
    def build_loop_module(self):
        module = builtin.module()
        f = func.func("f", [])
        module.body.append(f)
        builder = Builder.at_end(f.body)
        lb = arith.index_constant(builder, 0)
        ub = arith.index_constant(builder, 4)
        step = arith.index_constant(builder, 1)
        loop = scf.for_(builder, lb, ub, step)
        scf.yield_(Builder.at_end(loop.body))
        func.return_(builder)
        return module, f

    def test_loop_becomes_cfg(self):
        module, f = self.build_loop_module()
        PassManager(["convert-scf-to-cf"]).run(module)
        names = op_names(module)
        assert "scf.for" not in names
        assert "cf.br" in names
        assert "cf.cond_br" in names
        # entry, cond, body, continuation
        assert len(f.regions[0].blocks) == 4

    def test_nested_loops(self):
        module = builtin.module()
        f = func.func("f", [])
        module.body.append(f)
        builder = Builder.at_end(f.body)
        lb = arith.index_constant(builder, 0)
        ub = arith.index_constant(builder, 4)
        step = arith.index_constant(builder, 1)
        outer = scf.for_(builder, lb, ub, step)
        outer_body = Builder.at_end(outer.body)
        inner = scf.for_(outer_body, lb, ub, step)
        scf.yield_(Builder.at_end(inner.body))
        scf.yield_(Builder.at_end(outer.body))
        func.return_(builder)
        PassManager(["convert-scf-to-cf"]).run(module)
        assert "scf.for" not in op_names(module)
        assert len(f.regions[0].blocks) == 7

    def test_loop_results_via_block_args(self):
        module = builtin.module()
        f = func.func("f", [], [F32])
        module.body.append(f)
        builder = Builder.at_end(f.body)
        lb = arith.index_constant(builder, 0)
        ub = arith.index_constant(builder, 4)
        step = arith.index_constant(builder, 1)
        init = arith.constant(builder, 0.0, F32)
        loop = scf.for_(builder, lb, ub, step, [init])
        body = Builder.at_end(loop.body)
        doubled = arith.addf(body, loop.iter_args[0], loop.iter_args[0])
        scf.yield_(body, [doubled])
        func.return_(builder, [loop.results[0]])
        PassManager(["convert-scf-to-cf"]).run(module)
        module.verify()
        ret = [op for op in module.walk() if op.name == "func.return"][0]
        # The returned value now comes from a block argument.
        from repro.ir.core import BlockArgument

        assert isinstance(ret.operand(0), BlockArgument)

    def test_a_loop_anchor_keeps_itself(self):
        """Run on an ``scf.for`` (``apply_registered_pass`` on a matched
        loop), the pass refuses before it writes anything: lowering
        what the loop holds would leave blocks in its single-block
        body."""
        module, f = self.build_loop_module()
        loop = next(module.walk_ops("scf.for"))
        inner = scf.for_(Builder.before(loop.body.ops[-1]), *loop.operands)
        scf.yield_(Builder.at_end(inner.body))
        before = print_op(module)
        with pytest.raises(ValueError, match="cannot run on scf.for"):
            PassManager(["convert-scf-to-cf"]).run(loop)
        assert print_op(module) == before
        assert loop.parent is f.body
        module.verify()

    def test_outermost_first_past_a_long_chain_of_siblings(self):
        """Each lowering moves the ops after it into a new block; when
        the driver counted moved ops as created, it met the twelfth
        sibling past its depth bound and left the loops a forall there
        becomes for the next round. The loop nested in that forall must
        wait for them: lowered first, it would split the body its outer
        loop lowers whole."""
        module, f = self.build_loop_module()
        lb, ub, step = next(module.walk_ops("scf.for")).operands
        builder = Builder.before(f.body.ops[-1])
        for _ in range(10):
            scf.yield_(Builder.at_end(scf.for_(builder, lb, ub, step).body))
        forall = scf.forall(builder, [ub])
        nested = scf.for_(Builder.at_end(forall.regions[0].entry_block),
                          lb, ub, step)
        scf.yield_(Builder.at_end(nested.body))
        PassManager(["convert-scf-to-cf"]).run(module)
        module.verify()
        assert not [name for name in op_names(module)
                    if name.startswith("scf.")]
        # 12 loops from 4 blocks to 3 more each, the forall's outer
        # loop, its nested loop.
        assert len(f.regions[0].blocks) == 1 + 3 * 13

    def test_a_moved_sibling_is_not_legalized_again(self, monkeypatch):
        """Lowering a loop moves every later sibling into the new
        continuation block. A moved op is not one the attempt created,
        so the driver asks about each op once: with 14 sibling loops it
        asked about twice as many."""
        from repro.rewrite.conversion import ConversionTarget

        module, f = self.build_loop_module()
        lb, ub, step = next(module.walk_ops("scf.for")).operands
        builder = Builder.before(f.body.ops[-1])
        for _ in range(13):
            scf.yield_(Builder.at_end(scf.for_(builder, lb, ub, step).body))
        asked = []
        legality = ConversionTarget.legality

        def counting(target, op):
            asked.append(op)
            return legality(target, op)

        monkeypatch.setattr(ConversionTarget, "legality", counting)
        PassManager(["convert-scf-to-cf"]).run(module)
        module.verify()
        assert "scf.for" not in op_names(module)
        assert len(f.regions[0].blocks) == 1 + 3 * 14
        assert len(asked) <= 1.1 * len(set(asked))

    def test_scf_if_lowering(self):
        module = builtin.module()
        f = func.func("f", [I1])
        module.body.append(f)
        builder = Builder.at_end(f.body)
        if_op = scf.if_(builder, f.body.args[0], with_else=True)
        then_builder = Builder.at_end(if_op.then_block)
        then_builder.create("test.then")
        scf.yield_(then_builder)
        else_builder = Builder.at_end(if_op.else_block)
        else_builder.create("test.else")
        scf.yield_(else_builder)
        func.return_(builder)
        PassManager(["convert-scf-to-cf"]).run(module)
        names = op_names(module)
        assert "scf.if" not in names
        assert "cf.cond_br" in names
        assert "test.then" in names and "test.else" in names


class TestFullPipeline:
    def test_static_offset_succeeds(self):
        module = build_subview_payload(dynamic_offset=False)
        PassManager(BROKEN_PIPELINE).run(module)
        names = op_names(module)
        assert all(name.startswith("llvm.") for name in names), names

    def test_dynamic_offset_fails_with_papers_error(self):
        module = build_subview_payload(dynamic_offset=True)
        with pytest.raises(ConversionError) as excinfo:
            PassManager(BROKEN_PIPELINE).run(module)
        assert (
            "failed to legalize operation "
            "'builtin.unrealized_conversion_cast' that was explicitly "
            "marked illegal"
        ) in str(excinfo.value)

    def test_dynamic_offset_fixed_pipeline_succeeds(self):
        module = build_subview_payload(dynamic_offset=True)
        PassManager(FIXED_PIPELINE).run(module)
        names = op_names(module)
        assert all(name.startswith("llvm.") for name in names), names

    def test_expand_strided_metadata_introduces_affine_apply(self):
        module = build_subview_payload(dynamic_offset=True)
        PassManager(["expand-strided-metadata"]).run(module)
        names = op_names(module)
        assert "affine.apply" in names
        assert "memref.subview" not in names
        assert "memref.reinterpret_cast" in names

    def test_expand_skips_trivial_subviews(self):
        module = build_subview_payload(dynamic_offset=False)
        PassManager(["expand-strided-metadata"]).run(module)
        names = op_names(module)
        assert "affine.apply" not in names
        # The trivial (zero-offset, unit-stride) subview passes through
        # untouched — it satisfies memref.subview.constr already.
        assert "memref.subview" in names


class TestFinalizeMemRefToLLVM:
    #: ``memref.copy(%a, %b)``: data movement, and no result to forward.
    COPY = """
"builtin.module"() ({
  "func.func"() ({
  ^bb0(%a: memref<4xf32>, %b: memref<4xf32>):
    "memref.copy"(%a, %b) : (memref<4xf32>, memref<4xf32>) -> ()
    "func.return"() : () -> ()
  }) {function_type = (memref<4xf32>, memref<4xf32>) -> (), sym_name = "copy"} : () -> ()
}) : () -> ()"""

    def test_a_copy_stays_illegal_instead_of_vanishing(self):
        # Upstream calls the ``memrefCopy`` runtime function; without
        # that lowering the conversion must fail, not drop the copy.
        from repro.ir import parse

        module = parse(self.COPY)
        with pytest.raises(ConversionError,
                           match="failed to legalize operation 'memref.copy'"):
            PassManager(["convert-func-to-llvm",
                         "finalize-memref-to-llvm"]).run(module)

    def test_a_cast_still_forwards_its_source(self):
        from repro.ir import parse

        module = parse(self.COPY.replace(
            '"memref.copy"(%a, %b) : (memref<4xf32>, memref<4xf32>) -> ()',
            '%c = "memref.cast"(%a) : (memref<4xf32>) -> memref<?xf32>'))
        PassManager(["convert-func-to-llvm", "finalize-memref-to-llvm",
                     "reconcile-unrealized-casts"]).run(module)
        assert op_names(module) == {"llvm.func", "llvm.return"}


class TestLowerAffine:
    def test_apply_becomes_arith(self):
        from repro.dialects import affine as affine_dialect
        from repro.ir.affine import AffineMap, symbol

        module = builtin.module()
        f = func.func("f", [INDEX])
        module.body.append(f)
        builder = Builder.at_end(f.body)
        map_ = AffineMap(0, 1, (symbol(0) * 64 + 8,))
        result = affine_dialect.apply(builder, map_, [f.body.args[0]])
        builder.create("test.keep", operands=[result])
        func.return_(builder)
        PassManager(["lower-affine"]).run(module)
        names = op_names(module)
        assert "affine.apply" not in names
        assert "arith.muli" in names and "arith.addi" in names

    def test_min_becomes_minsi(self):
        from repro.dialects import affine as affine_dialect
        from repro.ir.affine import AffineMap, dim

        module = builtin.module()
        f = func.func("f", [INDEX, INDEX])
        module.body.append(f)
        builder = Builder.at_end(f.body)
        map_ = AffineMap(2, 0, (dim(0), dim(1)))
        result = affine_dialect.min_(builder, map_, list(f.body.args))
        builder.create("test.keep", operands=[result])
        func.return_(builder)
        PassManager(["lower-affine"]).run(module)
        assert "arith.minsi" in op_names(module)


class TestReconcile:
    def test_cancelling_pair_removed(self):
        from repro.ir import I64, Operation

        module = builtin.module()
        f = func.func("f", [INDEX], [INDEX])
        module.body.append(f)
        builder = Builder.at_end(f.body)
        to_i64 = builder.create(
            "builtin.unrealized_conversion_cast",
            operands=[f.body.args[0]], result_types=[I64],
        )
        back = builder.create(
            "builtin.unrealized_conversion_cast",
            operands=[to_i64.result], result_types=[INDEX],
        )
        func.return_(builder, [back.result])
        PassManager(["reconcile-unrealized-casts"]).run(module)
        ret = f.body.ops[-1]
        assert ret.operand(0) is f.body.args[0]
        assert "builtin.unrealized_conversion_cast" not in op_names(module)

    def test_leftover_cast_raises(self):
        from repro.ir import I64

        module = builtin.module()
        f = func.func("f", [INDEX], [])
        module.body.append(f)
        builder = Builder.at_end(f.body)
        cast = builder.create(
            "builtin.unrealized_conversion_cast",
            operands=[f.body.args[0]], result_types=[I64],
        )
        builder.create("test.keep", operands=[cast.result])
        func.return_(builder)
        with pytest.raises(ConversionError, match="failed to legalize"):
            PassManager(["reconcile-unrealized-casts"]).run(module)

    def test_unused_cast_erased(self):
        from repro.ir import I64

        module = builtin.module()
        f = func.func("f", [INDEX], [])
        module.body.append(f)
        builder = Builder.at_end(f.body)
        builder.create(
            "builtin.unrealized_conversion_cast",
            operands=[f.body.args[0]], result_types=[I64],
        )
        func.return_(builder)
        PassManager(["reconcile-unrealized-casts"]).run(module)
        assert "builtin.unrealized_conversion_cast" not in op_names(module)
