"""Tests for the dialect conversion framework."""

from contextlib import nullcontext

import pytest

from repro.dialects import builtin, func
from repro.core.state import TransformState
from repro.core.transaction import PayloadTransaction
from repro.ir import Block, Builder, I32, I64, IndexType, Operation
from repro.ir.core import UndoLog
from repro.ir.printer import print_op
from repro.ir.types import INDEX, LLVMPointerType, MemRefType, Type, memref
from repro.rewrite.conversion import (
    ConversionError,
    ConversionTarget,
    ConversionRewriter,
    TypeConverter,
    apply_conversion,
)
from repro.mlmodels import MODEL_SPECS, build_model
from repro.passes import PASS_REGISTRY, PassManager
from repro.passes.tosa_pipeline import TOSA_TO_LINALG_PIPELINE
from repro.rewrite.pattern import _FunctionPattern, pattern
from tests.passes.test_lowerings import (BROKEN_PIPELINE, FIXED_PIPELINE,
                                        build_subview_payload)


class TestTypeConverter:
    def make(self):
        converter = TypeConverter()

        def index_to_i64(t: Type):
            return I64 if isinstance(t, IndexType) else None

        converter.add_conversion(index_to_i64)
        return converter

    def test_converts_registered(self):
        converter = self.make()
        assert converter.convert_type(INDEX) == I64

    def test_identity_for_unregistered(self):
        converter = self.make()
        assert converter.convert_type(I32) == I32

    def test_last_registered_wins(self):
        converter = self.make()
        converter.add_conversion(
            lambda t: I32 if isinstance(t, IndexType) else None
        )
        assert converter.convert_type(INDEX) == I32


class TestConversionTarget:
    def test_dialect_legality(self):
        target = ConversionTarget()
        target.add_legal_dialect("llvm")
        target.add_illegal_dialect("arith")
        assert target.legality(Operation.create("llvm.add")) is True
        assert target.legality(Operation.create("arith.addi",)) is False
        assert target.legality(Operation.create("scf.yield")) is None

    def test_op_overrides_dialect(self):
        target = ConversionTarget()
        target.add_legal_dialect("arith")
        target.add_illegal_op("arith.addi")
        addi, constant = (Operation.create("arith.addi"),
                          Operation.create("arith.constant"))
        assert target.legality(addi) is False
        assert target.legality(constant) is True
        assert target.explicitly_illegal(addi)
        assert not target.explicitly_illegal(constant)


def build_index_module():
    module = builtin.module()
    f = func.func("f", [INDEX], [INDEX])
    module.body.append(f)
    builder = Builder.at_end(f.body)
    doubled = builder.create(
        "test.double", operands=[f.body.args[0]], result_types=[INDEX]
    )
    func.return_(builder, [doubled.results[0]])
    return module, f


class TestApplyConversion:
    def make_converter(self):
        converter = TypeConverter()
        converter.add_conversion(
            lambda t: I64 if isinstance(t, IndexType) else None
        )
        return converter

    def test_casts_materialized_on_type_change(self):
        module, f = build_index_module()
        converter = self.make_converter()
        target = ConversionTarget()
        target.add_illegal_op("test.double")
        target.add_legal_dialect("llvm", "builtin")

        @pattern("test.double")
        def convert(op, rewriter):
            operands = rewriter.remapped_operands(op)
            new_op = rewriter.create(
                "llvm.add", operands=operands * 2 if len(operands) == 1
                else operands, result_types=[I64],
            )
            rewriter.replace_op(op, new_op.results)
            return True

        apply_conversion(module, [convert], target, converter)
        names = [op.name for op in module.walk()]
        assert "llvm.add" in names
        assert "test.double" not in names
        assert "builtin.unrealized_conversion_cast" in names

    def test_unconvertible_illegal_op_raises(self):
        module, _f = build_index_module()
        target = ConversionTarget()
        target.add_illegal_op("test.double")
        with pytest.raises(ConversionError, match="failed to legalize"):
            apply_conversion(module, [], target)

    def test_unknown_ops_left_alone(self):
        module, _f = build_index_module()
        target = ConversionTarget()  # nothing illegal
        apply_conversion(module, [], target)
        assert any(op.name == "test.double" for op in module.walk())

    def test_error_carries_op(self):
        module, _f = build_index_module()
        target = ConversionTarget()
        target.add_illegal_op("test.double")
        try:
            apply_conversion(module, [], target)
        except ConversionError as error:
            assert error.op is not None
            assert error.op.name == "test.double"

    def test_block_signature_conversion(self):
        module, f = build_index_module()
        converter = self.make_converter()
        rewriter = ConversionRewriter(converter)
        rewriter.convert_block_signature(f.body)
        assert f.body.args[0].type == I64
        first = f.body.ops[0]
        assert first.name == "builtin.unrealized_conversion_cast"
        assert first.results[0].type == INDEX


def build_ops_module(*names):
    """A function whose body holds one result-less op per name, then
    ``func.return``; returns the module and those ops."""
    module = builtin.module()
    f = func.func("f", [], [])
    module.body.append(f)
    builder = Builder.at_end(f.body)
    ops = [builder.create(name) for name in names]
    func.return_(builder)
    return module, ops


def names_in(module):
    return [op.name for op in module.walk() if op is not module]


class TestOneVisitDriver:
    def test_an_op_in_a_region_filled_after_insertion_is_legalized(self):
        module, _ = build_ops_module("test.outer")
        target = ConversionTarget()
        target.add_illegal_op("test.outer", "test.inner")
        target.add_legal_dialect("legal")

        @pattern("test.outer")
        def wrap(op, rewriter):
            wrapper = rewriter.create("legal.wrapper", regions=1)
            body = wrapper.regions[0].add_block(Block())
            Builder.at_end(body).create("test.inner")
            rewriter.erase_op(op)
            return True

        @pattern("test.inner")
        def lower_inner(op, rewriter):
            rewriter.create("legal.inner")
            rewriter.erase_op(op)
            return True

        apply_conversion(module, [wrap, lower_inner], target)
        assert names_in(module) == [
            "func.func", "legal.wrapper", "legal.inner", "func.return"]

    def test_an_op_that_failed_converts_once_another_lets_it(self):
        module, _ = build_ops_module("test.waits", "test.unblocks")
        target = ConversionTarget()
        target.add_illegal_dialect("test")
        target.add_legal_dialect("legal")
        converted = []

        @pattern("test.waits")
        def lower_waits(op, rewriter):
            if not converted:
                return False
            rewriter.create("legal.waited")
            rewriter.erase_op(op)
            return True

        @pattern("test.unblocks")
        def lower_unblocks(op, rewriter):
            rewriter.create("legal.unblocked")
            rewriter.erase_op(op)
            converted.append(op.name)
            return True

        apply_conversion(module, [lower_waits, lower_unblocks], target)
        assert names_in(module) == [
            "func.func", "legal.waited", "legal.unblocked", "func.return"]

    def test_a_dialect_both_legal_and_illegal_still_raises(self):
        module, (op,) = build_ops_module("test.both")
        target = ConversionTarget()
        target.add_legal_dialect("test")
        target.add_illegal_dialect("test")
        with pytest.raises(ConversionError) as raised:
            apply_conversion(module, [], target)
        assert raised.value.op is op
        assert str(raised.value) == ("failed to legalize operation "
                                     "'test.both' that was explicitly "
                                     "marked illegal")

    def test_the_error_names_the_first_illegal_op_in_pre_order(self):
        # The first is stuck (its dialect is legal too); the second is
        # one no pattern converts.
        module, (first, _second) = build_ops_module("both.first",
                                                     "test.second")
        target = ConversionTarget()
        target.add_illegal_dialect("both", "test")
        target.add_legal_dialect("both")
        with pytest.raises(ConversionError) as raised:
            apply_conversion(module, [], target)
        assert raised.value.op is first


class TestEveryCreatedOpIsReported:
    """The conversion driver legalizes the ops an attempt's undo log
    names as inserted (``UndoLog.inserted``), however a pattern built
    them. On Table 1's and Table 2's pipelines, every op a conversion
    leaves that was not there before is one the log named, and every op
    a successful attempt of a registered pass's declared pattern created
    is one its ``generates`` names, or a materialized cast: the derived
    postconditions hold, on either driver."""

    @pytest.fixture
    def unreported(self, monkeypatch):
        """The names of the ops created but not named by every
        conversion the test runs, the ``(pattern, op name)`` of every
        op a declared pattern created without generating it, the roots
        converted and the declared patterns that succeeded."""
        import repro.passes.manager as manager

        declared = {pat for cls in PASS_REGISTRY.values()
                    for pat in cls.PATTERNS}
        found, undeclared, runs, named, successes = [], [], [], [], []
        inserted = UndoLog.inserted
        match_and_rewrite = _FunctionPattern.match_and_rewrite

        def matching(pat, op, rewriter):
            with UndoLog() as attempt:
                matched = match_and_rewrite(pat, op, rewriter)
            if matched and pat in declared:
                successes.append(pat)
                undeclared.extend(
                    (pat.label, new.name) for new in inserted(attempt)
                    if new.name not in pat.generates
                    and new.name != "builtin.unrealized_conversion_cast")
            return matched

        def recorded(log):
            ops = inserted(log)
            named.extend(ops)
            return ops

        def checked(root, *args):
            before = set(root.walk())
            named.clear()
            apply_conversion(root, *args)
            runs.append(root)
            covered = set(named)
            found.extend(op.name for op in root.walk()
                         if op not in before and op not in covered)

        monkeypatch.setattr(UndoLog, "inserted", recorded)
        monkeypatch.setattr(_FunctionPattern, "match_and_rewrite", matching)
        monkeypatch.setattr(manager, "apply_conversion", checked)
        return found, undeclared, runs, successes

    @pytest.mark.parametrize("model", sorted(MODEL_SPECS))
    def test_table1_pipeline_on_a_model(self, unreported, model):
        PassManager(TOSA_TO_LINALG_PIPELINE).run(build_model(model))
        found, undeclared, runs, successes = unreported
        assert runs and successes and found == [] and undeclared == []

    @pytest.mark.parametrize("dynamic_offset", [False, True])
    def test_table2_pipeline(self, unreported, dynamic_offset):
        """The broken pipeline, which fails on the dynamic offset, and
        the fixed one."""
        with pytest.raises(ConversionError) if dynamic_offset else nullcontext():
            PassManager(BROKEN_PIPELINE).run(
                build_subview_payload(dynamic_offset))
        PassManager(FIXED_PIPELINE).run(build_subview_payload(dynamic_offset))
        found, undeclared, runs, successes = unreported
        assert runs and successes and found == [] and undeclared == []

    def test_the_check_names_an_undeclared_affine_apply(self, unreported,
                                                        monkeypatch):
        """Case study 2's leak, taken out of the pattern's ``generates``,
        is an op the pattern created without generating it."""
        from repro.passes.lowerings import expand_subview

        monkeypatch.setattr(expand_subview, "generates",
                            expand_subview.generates - {"affine.apply"})
        PassManager(FIXED_PIPELINE).run(build_subview_payload(True))
        _, undeclared, _, _ = unreported
        assert undeclared == [("expand-subview", "affine.apply")]


def legal_target():
    """Dialect ``test`` illegal, dialect ``legal`` legal."""
    target = ConversionTarget()
    target.add_illegal_dialect("test")
    target.add_legal_dialect("legal")
    return target


@pattern("test.op")
def lower_op(op, rewriter):
    rewriter.create("legal.op")
    rewriter.erase_op(op)
    return True


class TestAnAttemptIsATransaction:
    """Each pattern tries under its own undo log: a success legalizes
    every op it inserted, a ``False`` or a raise leaves the IR as the
    attempt found it, and an enclosing transaction undoes a whole
    conversion."""

    @pytest.mark.parametrize("helper_has_a_pattern", [True, False])
    def test_a_helper_built_past_the_rewriter_is_legalized(
            self, helper_has_a_pattern):
        module, _ = build_ops_module("test.op")

        @pattern("test.op")
        def with_helper(op, rewriter):
            Builder.before(op).create("test.helper")
            return lower_op.match_and_rewrite(op, rewriter)

        @pattern("test.helper")
        def lower_helper(op, rewriter):
            rewriter.create("legal.helper")
            rewriter.erase_op(op)
            return True

        if not helper_has_a_pattern:
            with pytest.raises(ConversionError, match="'test.helper'"):
                apply_conversion(module, [with_helper], legal_target())
            return
        apply_conversion(module, [with_helper, lower_helper], legal_target())
        assert names_in(module) == [
            "func.func", "legal.helper", "legal.op", "func.return"]

    def test_a_pattern_that_writes_then_declines_leaves_nothing(self):
        module, _ = build_ops_module("test.op")
        found = []

        @pattern("test.op", benefit=2)
        def declines(op, rewriter):
            found.append(print_op(module))
            rewriter.create("legal.dead")
            op.set_attr("touched", 1)
            return False

        @pattern("test.op")
        def converts(op, rewriter):
            found.append(print_op(module))
            return lower_op.match_and_rewrite(op, rewriter)

        apply_conversion(module, [declines, converts], legal_target())
        assert found[0] == found[1]
        assert names_in(module) == ["func.func", "legal.op", "func.return"]

    def test_a_pattern_that_raises_is_undone_and_propagates(self):
        module, _ = build_ops_module("test.op")
        before = print_op(module)

        @pattern("test.op", benefit=2)
        def crashes(op, rewriter):
            rewriter.create("legal.half")
            op.set_attr("touched", 1)
            raise ZeroDivisionError("half-rewritten")

        with pytest.raises(ZeroDivisionError, match="half-rewritten"):
            apply_conversion(module, [crashes, lower_op], legal_target())
        assert print_op(module) == before

    def test_a_rolled_back_transaction_undoes_a_conversion(self):
        from repro.testing.fuzz import _identity

        payload = build_subview_payload(False)
        before, objects = print_op(payload), _identity(payload)
        transaction = PayloadTransaction(TransformState(payload))
        PassManager(FIXED_PIPELINE).run(payload)
        assert print_op(payload) != before
        transaction.rollback()
        assert print_op(payload) == before
        assert _identity(payload) == objects


class TestSharedOps:
    """``ConversionRewriter.get_or_create`` shares one operand-free
    ``Pure`` op per block: the first one made, or one the walk saw
    before the op being converted, and never one a rollback removed."""

    @staticmethod
    def _zero(rewriter):
        return rewriter.get_or_create("arith.constant", [I32], {"value": 0})

    @pattern("test.op", generates={"arith.constant", "legal.op"})
    def converts(op, rewriter):
        zero = TestSharedOps._zero(rewriter)
        rewriter.create("legal.op", operands=[zero.result])
        rewriter.erase_op(op)
        return True

    @staticmethod
    def _zeros(module):
        ops = [op for op in module.walk() if op is not module]
        uses = [op.operand(0).owner for op in ops if op.name == "legal.op"]
        return [op for op in ops if op.name == "arith.constant"], uses

    def test_later_ops_reuse_the_first_one_made(self):
        module, _ = build_ops_module("test.op", "test.op", "test.op")
        apply_conversion(module, [self.converts], legal_target())
        zeros, uses = self._zeros(module)
        assert len(zeros) == 1 and uses == zeros * 3
        assert names_in(module)[1] == "arith.constant"

    @pytest.mark.parametrize("before", [True, False],
                             ids=["before", "after"])
    def test_an_op_the_walk_saw_is_reused_only_past_it(self, before):
        module, (first, _) = build_ops_module("test.op", "test.op")
        anchor = (Builder.before if before else Builder.after)(first)
        seen = anchor.create("arith.constant", result_types=[I32],
                             attributes={"value": 0})
        apply_conversion(module, [self.converts], legal_target())
        zeros, uses = self._zeros(module)
        if before:
            assert zeros == [seen] and uses == [seen] * 2
        else:
            # The first op made its own, where ``cse`` would keep it,
            # and the second reuses that one.
            assert zeros[1] is seen and uses == [zeros[0]] * 2

    def test_a_rolled_back_op_is_dropped_and_not_reused(self):
        module, _ = build_ops_module("test.op", "test.op")
        made, tables = [], []

        @pattern("test.op", benefit=2, generates={"arith.constant"})
        def declines(op, rewriter):
            made.append(self._zero(rewriter))
            return False

        @pattern("test.op", generates={"arith.constant", "legal.op"})
        def converts(op, rewriter):
            tables.append([shared for shared, _ in rewriter.shared.values()])
            return self.converts.match_and_rewrite(op, rewriter)

        apply_conversion(module, [declines, converts], legal_target())
        zeros, uses = self._zeros(module)
        # The first attempt made a zero, and its rollback removed the
        # zero and its entry: the converter made another. On the
        # second op both patterns reuse that one.
        assert made[0].parent is None and made[0] not in zeros
        assert tables == [[], zeros] and made[1:] == zeros
        assert len(zeros) == 1 and uses == zeros * 2

    def test_an_enclosing_rollback_undoes_shared_ops_past_a_retry(self):
        # The second round starts from an empty table; an enclosing
        # log replays the first round's entries against it.
        module, _ = build_ops_module("test.a", "test.b")
        before = print_op(module)

        @pattern("test.a", generates={"arith.constant", "legal.op"})
        def after_b(op, rewriter):
            if any(other.name == "test.b" for other in op.parent.ops):
                return False
            return self.converts.match_and_rewrite(op, rewriter)

        @pattern("test.b", generates={"arith.constant", "legal.op"})
        def converts_b(op, rewriter):
            return self.converts.match_and_rewrite(op, rewriter)

        with UndoLog() as log:
            apply_conversion(module, [after_b, converts_b], legal_target())
            zeros, uses = self._zeros(module)
            assert len(zeros) == 2 and uses == zeros
            log.rollback()
        assert print_op(module) == before

    def test_without_a_position_nothing_is_shared(self):
        module, (op,) = build_ops_module("test.op")
        rewriter = ConversionRewriter(None)
        rewriter.set_insertion_point_before(op)
        assert self._zero(rewriter) is not self._zero(rewriter)
        assert rewriter.shared == {}
