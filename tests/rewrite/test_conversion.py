"""Tests for the dialect conversion framework."""

import pytest

from repro.dialects import builtin, func
from repro.ir import Block, Builder, I32, I64, IndexType, Operation
from repro.ir.types import INDEX, LLVMPointerType, MemRefType, Type, memref
from repro.rewrite.conversion import (
    ConversionError,
    ConversionTarget,
    ConversionRewriter,
    TypeConverter,
    apply_conversion,
)
from repro.mlmodels import MODEL_SPECS, build_model
from repro.passes import PassManager
from repro.passes.tosa_pipeline import TOSA_TO_LINALG_PIPELINE
from repro.rewrite.pattern import RewriteListener, pattern
from tests.passes.test_lowerings import FIXED_PIPELINE, build_subview_payload


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


class _Reported(RewriteListener):
    """Every op a conversion's rewriter reported inserted."""

    def __init__(self):
        self.ops = []

    def notify_op_inserted(self, op):
        self.ops.append(op)


class TestEveryCreatedOpIsReported:
    """The driver legalizes what a pattern created from the rewriter's
    insert reports, so an op a pattern builds past the rewriter (with
    a plain ``Builder``, outside any op it inserted) would escape
    legalization. No lowering of Table 1's pipeline or Table 2's may
    do that."""

    @pytest.fixture
    def unreported(self, monkeypatch):
        """The names of the ops created but not reported by every
        conversion the test runs, and how many conversions ran."""
        import repro.passes.lowerings as lowerings
        import repro.passes.tosa_pipeline as tosa_pipeline

        found, runs = [], []

        def checked(root, patterns, target, type_converter=None,
                    extra_listeners=()):
            before = set(root.walk())
            reported = _Reported()
            apply_conversion(root, patterns, target, type_converter,
                             [reported, *extra_listeners])
            runs.append(root)
            covered = {nested for op in reported.ops for nested in op.walk()}
            found.extend(op.name for op in root.walk()
                         if op not in before and op not in covered)

        for module in (lowerings, tosa_pipeline):
            monkeypatch.setattr(module, "apply_conversion", checked)
        return found, runs

    @pytest.mark.parametrize("model", sorted(MODEL_SPECS))
    def test_table1_pipeline_on_a_model(self, unreported, model):
        PassManager(TOSA_TO_LINALG_PIPELINE).run(build_model(model))
        found, runs = unreported
        assert runs and found == []

    @pytest.mark.parametrize("dynamic_offset", [False, True])
    def test_table2_pipeline(self, unreported, dynamic_offset):
        PassManager(FIXED_PIPELINE).run(build_subview_payload(dynamic_offset))
        found, runs = unreported
        assert runs and found == []
