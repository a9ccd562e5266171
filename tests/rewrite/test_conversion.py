"""Tests for the dialect conversion framework."""

import pytest

from repro.dialects import builtin, func
from repro.ir import Builder, I32, I64, IndexType, Operation
from repro.ir.types import INDEX, LLVMPointerType, MemRefType, Type, memref
from repro.rewrite.conversion import (
    ConversionError,
    ConversionTarget,
    ConversionRewriter,
    TypeConverter,
    apply_conversion,
)
from repro.rewrite.pattern import pattern


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
