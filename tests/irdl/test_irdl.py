"""Tests for IRDL definitions and generated constraint verifiers."""

import pytest

from repro.dialects import arith, memref as memref_dialect
from repro.ir import Block, Builder, I32, Operation
from repro.ir.attributes import DenseIntAttr
from repro.ir.types import DYNAMIC, memref
from repro.irdl import (
    AttributeDef,
    Cardinality,
    MEMREF_SUBVIEW,
    MEMREF_SUBVIEW_CONSTRAINED,
    OperandDef,
    OperationDef,
    ResultDef,
    TypeNameConstraint,
    lookup_def,
    verify_op,
)


@pytest.fixture
def builder():
    return Builder.at_end(Block())


def make_subview(builder, offsets, sizes, strides):
    ref = memref_dialect.alloc(builder, memref(16, 16))
    return memref_dialect.subview(
        builder, ref, offsets, sizes, strides
    ).defining_op()


class TestCardinality:
    def test_exactly(self):
        c = Cardinality(2, 2)
        assert c.check(2) is None
        assert c.check(1) is not None
        assert c.check(3) is not None

    def test_zero(self):
        c = Cardinality.zero()
        assert c.check(0) is None
        assert "at most 0" in c.check(1)

    def test_unbounded(self):
        c = Cardinality(min=1)
        assert c.check(100) is None
        assert c.check(0) is not None


class TestConstraints:
    def test_type_name(self):
        constraint = TypeNameConstraint("MemRefType")
        assert constraint.check(memref(4)) is None
        assert constraint.check(I32) is not None


class TestGeneratedVerifier:
    def test_missing_attribute_reported(self):
        definition = OperationDef(
            "test.op", attributes=[AttributeDef("size")]
        )
        op = Operation.create("test.op")
        violations = verify_op(op, definition)
        assert any("missing required attribute" in str(v)
                   for v in violations)

    def test_optional_attribute_ok(self):
        definition = OperationDef(
            "test.op",
            attributes=[AttributeDef("size", optional=True)],
        )
        assert verify_op(Operation.create("test.op"), definition) == []

    def test_fixed_operand_type_checked(self):
        definition = OperationDef(
            "test.op",
            operands=[OperandDef("in", TypeNameConstraint("MemRefType"))],
        )
        scalar = Operation.create("test.c", result_types=[I32])
        op = Operation.create("test.op", operands=[scalar.result])
        violations = verify_op(op, definition)
        assert any("expected MemRefType" in str(v) for v in violations)

    def test_too_few_operands(self):
        definition = OperationDef(
            "test.op", operands=[OperandDef("a"), OperandDef("b")]
        )
        violations = verify_op(Operation.create("test.op"), definition)
        assert violations

    def test_extra_operands_without_variadic(self):
        definition = OperationDef("test.op", operands=[OperandDef("a")])
        value = Operation.create("test.c", result_types=[I32]).result
        op = Operation.create("test.op", operands=[value, value])
        assert any(
            "unexpected extra" in str(v)
            for v in verify_op(op, definition)
        )


class TestSubviewDefs:
    """The Fig. 3 pair: plain vs constrained memref.subview."""

    def test_registered(self):
        assert lookup_def("memref.subview") is MEMREF_SUBVIEW
        assert lookup_def("memref.subview.constr") is \
            MEMREF_SUBVIEW_CONSTRAINED

    def test_spec_name_keeps_real_op_name(self):
        """'we do not actually introduce a new operation' (Fig. 3)."""
        assert MEMREF_SUBVIEW_CONSTRAINED.op_name == "memref.subview"
        assert MEMREF_SUBVIEW_CONSTRAINED.name == "memref.subview.constr"

    def test_plain_def_accepts_dynamic_subview(self, builder):
        offset = arith.index_constant(builder, 2)
        subview = make_subview(builder, [offset, 0], [4, 4], [1, 1])
        assert verify_op(subview, MEMREF_SUBVIEW) == []

    def test_constrained_rejects_dynamic_subview(self, builder):
        offset = arith.index_constant(builder, 2)
        subview = make_subview(builder, [offset, 0], [4, 4], [1, 1])
        violations = verify_op(subview, MEMREF_SUBVIEW_CONSTRAINED)
        assert violations
        assert any("at most 0" in str(v) for v in violations)

    def test_constrained_rejects_nonzero_static_offsets(self, builder):
        subview = make_subview(builder, [4, 0], [4, 4], [1, 1])
        violations = verify_op(subview, MEMREF_SUBVIEW_CONSTRAINED)
        assert any("zero offsets" in str(v) for v in violations)

    def test_constrained_accepts_trivial_subview(self, builder):
        subview = make_subview(builder, [0, 0], [4, 4], [1, 1])
        assert verify_op(subview, MEMREF_SUBVIEW_CONSTRAINED) == []

    def test_semantic_escape_hatch(self, builder):
        """The CPPConstraint analog: rank consistency of dense attrs."""
        ref = memref_dialect.alloc(builder, memref(16,))
        bad = Operation.create(
            "memref.subview",
            operands=[ref],
            result_types=[memref(4,)],
            attributes={
                "static_offsets": DenseIntAttr((0, 0)),  # rank 2!
                "static_sizes": DenseIntAttr((4,)),
                "static_strides": DenseIntAttr((1,)),
            },
        )
        violations = verify_op(bad, MEMREF_SUBVIEW)
        assert any("ranks differ" in str(v) for v in violations)


class TestConstrainedCopy:
    def test_copy_overrides_named_declarations(self):
        base = OperationDef(
            "test.op",
            operands=[OperandDef("data"),
                      OperandDef("extras", variadic=True)],
        )
        constrained = base.constrained_copy(
            extras=OperandDef("extras", variadic=True,
                              cardinality=Cardinality.zero()),
        )
        assert constrained.name == "test.op.constr"
        value = Operation.create("test.c", result_types=[I32]).result
        ok = Operation.create("test.op", operands=[value])
        bad = Operation.create("test.op", operands=[value, value])
        assert verify_op(ok, constrained) == []
        assert verify_op(bad, constrained)

    def test_base_def_unchanged_by_copy(self):
        value = Operation.create("test.c", result_types=[I32]).result
        op = Operation.create(
            "memref.subview",
            operands=[
                memref_dialect.alloc(
                    Builder.at_end(Block()), memref(8,)
                ),
                value,
            ],
            result_types=[memref(4,)],
            attributes={
                "static_offsets": DenseIntAttr((DYNAMIC,)),
                "static_sizes": DenseIntAttr((4,)),
                "static_strides": DenseIntAttr((1,)),
            },
        )
        assert verify_op(op, MEMREF_SUBVIEW) == []
