"""Tests for linalg, tosa, stablehlo, tensor, vector, affine dialects."""

import pytest

from repro.dialects import (
    affine as affine_dialect,
    arith,
    linalg,
    stablehlo as hlo,
    tensor as tensor_dialect,
    tosa,
    vector as vector_dialect,
)
from repro.ir import Block, Builder, F32, INDEX, Operation
from repro.ir.affine import AffineMap, dim as affine_dim
from repro.ir.types import memref, tensor, vector


@pytest.fixture
def builder():
    return Builder.at_end(Block())


class TestLinalg:
    def test_generic_structure(self, builder):
        t = tensor(4, 4)
        a = tensor_dialect.empty(builder, t)
        out = tensor_dialect.empty(builder, t)
        generic = linalg.generic(builder, [a], [out],
                                 ["parallel", "parallel"], [t])
        assert generic.n_inputs == 1
        assert generic.inputs == [a]
        assert generic.operands[generic.n_inputs:] == [out]
        assert generic.iterator_types == ["parallel", "parallel"]
        assert len(generic.body.args) == 2
        assert generic.body.args[0].type == F32

    def test_generic_verifier_arg_count(self, builder):
        t = tensor(4, 4)
        a = tensor_dialect.empty(builder, t)
        bad = Operation.create(
            "linalg.generic", operands=[a], result_types=[t],
            attributes={"n_inputs": 1, "iterator_types": ["parallel"]},
            regions=1,
        )
        bad.regions[0].add_block(Block())
        with pytest.raises(ValueError, match="scalar argument"):
            bad.verify_op()

    def test_named_ops_split_operands(self, builder):
        t = tensor(4, 4)
        a = tensor_dialect.empty(builder, t)
        b = tensor_dialect.empty(builder, t)
        init = tensor_dialect.empty(builder, t)
        op = linalg.matmul(builder, a, b, init, [t])
        assert op.inputs == [a, b]
        assert op.operands[len(op.inputs):] == [init]

    def test_fill(self, builder):
        t = tensor(4, 4)
        zero = arith.constant(builder, 0.0, F32)
        init = tensor_dialect.empty(builder, t)
        fill = linalg.fill(builder, zero, init, [t])
        assert fill.inputs == [zero]


class TestTosa:
    def test_builder(self, builder):
        t = tensor(2, 2)
        a = tosa.const(builder, t)
        b = tosa.op(builder, "add", [a, a], t)
        assert b.defining_op().name == "tosa.add"

    def test_unknown_op_rejected(self, builder):
        t = tensor(2, 2)
        a = tosa.const(builder, t)
        with pytest.raises(ValueError, match="unknown tosa op"):
            tosa.op(builder, "frobnicate", [a], t)

    def test_all_ops_registered(self):
        from repro.ir.core import OP_REGISTRY

        for short in tosa.ALL_OPS:
            assert f"tosa.{short}" in OP_REGISTRY


class TestStablehlo:
    def test_reduce_builds_combiner_region(self, builder):
        t = tensor(8)
        operand = builder.create(
            "stablehlo.constant", result_types=[t],
            attributes={"value": 0.0},
        ).result
        init = builder.create(
            "stablehlo.constant", result_types=[tensor(1)],
            attributes={"value": 0.0},
        ).result
        result = hlo.reduce(builder, operand, init, [0], tensor(1))
        reduce_op = result.defining_op()
        assert reduce_op.name == "stablehlo.reduce"
        body = reduce_op.regions[0].entry_block
        assert len(body.args) == 2
        assert body.ops[-1].name == "stablehlo.return"

    def test_reduce_kind(self, builder):
        t = tensor(8)
        operand = hlo.op(builder, "abs", [
            hlo.op(builder, "iota", [], t)
        ], t)
        init = hlo.op(builder, "iota", [], tensor(1))
        result = hlo.reduce(builder, operand, init, [0], tensor(1),
                            kind="maximum")
        body = result.defining_op().regions[0].entry_block
        assert body.ops[0].name == "stablehlo.maximum"


class TestVector:
    def test_load_store(self, builder):
        base = builder.create(
            "memref.alloc", result_types=[memref(64)]
        ).result
        i = arith.index_constant(builder, 0)
        v = vector_dialect.load(builder, vector(8), base, [i])
        assert v.type == vector(8)
        vector_dialect.store(builder, v, base, [i])

    def test_fma(self, builder):
        base = builder.create(
            "memref.alloc", result_types=[memref(64)]
        ).result
        i = arith.index_constant(builder, 0)
        v = vector_dialect.load(builder, vector(8), base, [i])
        assert vector_dialect.fma(builder, v, v, v).type == vector(8)


class TestAffineDialect:
    def test_apply(self, builder):
        i = arith.index_constant(builder, 5)
        map_ = AffineMap(1, 0, (affine_dim(0) * 4,))
        result = affine_dialect.apply(builder, map_, [i])
        assert result.type == INDEX
        result.defining_op().verify_op()

    def test_apply_requires_single_result_map(self, builder):
        i = arith.index_constant(builder, 5)
        two = AffineMap(1, 0, (affine_dim(0), affine_dim(0)))
        from repro.ir.attributes import AffineMapAttr

        bad = Operation.create(
            "affine.apply", operands=[i], result_types=[INDEX],
            attributes={"map": AffineMapAttr(two)},
        )
        with pytest.raises(ValueError, match="single-result"):
            bad.verify_op()

    def test_operand_arity_check(self, builder):
        map_ = AffineMap(2, 0, (affine_dim(0),))
        from repro.ir.attributes import AffineMapAttr

        bad = Operation.create(
            "affine.min", operands=[], result_types=[INDEX],
            attributes={"map": AffineMapAttr(map_)},
        )
        with pytest.raises(ValueError, match="expected 2 operands"):
            bad.verify_op()

    def test_min_builder(self, builder):
        i = arith.index_constant(builder, 5)
        map_ = AffineMap(1, 0, (affine_dim(0), affine_dim(0) + 1))
        result = affine_dialect.min_(builder, map_, [i])
        assert result.defining_op().name == "affine.min"
