"""Tests for the TOSA -> Linalg pipeline (Table 1's workload)."""

import pytest

from repro.dialects import builtin, func, tosa
from repro.ir import Builder
from repro.ir.types import F32, tensor
from repro.passes import PassManager
from repro.passes.tosa_pipeline import TOSA_TO_LINALG_PIPELINE


def make_graph(build_body):
    module = builtin.module()
    t = tensor(4, 8, element_type=F32)
    f = func.func("main", [t], [t])
    module.body.append(f)
    builder = Builder.at_end(f.body)
    result = build_body(builder, f.body.args[0], t)
    func.return_(builder, [result])
    module.verify()
    return module


def names(module):
    return {op.name for op in module.walk() if op is not module}


class TestDecompositions:
    def test_softmax(self):
        module = make_graph(
            lambda b, x, t: tosa.op(b, "softmax", [x], t)
        )
        PassManager(["tosa-optional-decompositions"]).run(module)
        got = names(module)
        assert "tosa.softmax" not in got
        assert {"tosa.exp", "tosa.reduce_sum", "tosa.reciprocal",
                "tosa.mul"} <= got

    def test_fully_connected(self):
        def body(b, x, t):
            weights = tosa.const(b, tensor(8, 8, element_type=F32))
            bias = tosa.const(b, tensor(8, element_type=F32))
            return tosa.op(b, "fully_connected", [x, weights, bias], t)

        module = make_graph(body)
        PassManager(["tosa-optional-decompositions"]).run(module)
        got = names(module)
        assert "tosa.fully_connected" not in got
        assert "tosa.matmul" in got
        assert "tosa.transpose" in got


class TestBroadcastable:
    def test_rank_mismatch_gets_reshape(self):
        def body(b, x, t):
            bias = tosa.const(b, tensor(8, element_type=F32))
            return tosa.op(b, "add", [x, bias], t)

        module = make_graph(body)
        PassManager(["tosa-make-broadcastable"]).run(module)
        assert "tosa.reshape" in names(module)
        add = next(module.walk_ops("tosa.add"))
        assert add.operand(1).type.rank == 2

    def test_equal_ranks_untouched(self):
        module = make_graph(
            lambda b, x, t: tosa.op(b, "add", [x, x], t)
        )
        PassManager(["tosa-make-broadcastable"]).run(module)
        assert "tosa.reshape" not in names(module)


class TestConversions:
    def test_elementwise_to_generic(self):
        module = make_graph(
            lambda b, x, t: tosa.op(b, "add", [x, x], t)
        )
        PassManager(["tosa-to-linalg"]).run(module)
        got = names(module)
        assert "tosa.add" not in got
        assert "linalg.generic" in got
        generic = next(module.walk_ops("linalg.generic"))
        assert generic.iterator_types == ["parallel", "parallel"]
        body_names = [op.name for op in generic.body.ops]
        assert "arith.addf" in body_names
        assert body_names[-1] == "linalg.yield"

    def test_reduce_to_linalg_reduce(self):
        def body(b, x, t):
            reduced = tensor(4, 1, element_type=F32)
            return tosa.op(b, "reduce_max", [x], reduced, axis=1)

        module = builtin.module()
        t = tensor(4, 8, element_type=F32)
        f = func.func("main", [t], [tensor(4, 1, element_type=F32)])
        module.body.append(f)
        builder = Builder.at_end(f.body)
        result = body(builder, f.body.args[0], t)
        func.return_(builder, [result])
        PassManager(["tosa-to-linalg"]).run(module)
        got = names(module)
        assert "linalg.reduce" in got
        reduce = next(module.walk_ops("linalg.reduce"))
        assert any(
            op.name == "arith.maximumf" for op in reduce.body.ops
        )

    def test_matmul_to_named(self):
        def body(b, x, t):
            other = tosa.const(b, tensor(8, 4, element_type=F32))
            return tosa.op(b, "matmul", [x, other],
                           tensor(4, 4, element_type=F32))

        module = builtin.module()
        t = tensor(4, 8, element_type=F32)
        f = func.func("main", [t], [tensor(4, 4, element_type=F32)])
        module.body.append(f)
        builder = Builder.at_end(f.body)
        result = body(builder, f.body.args[0], t)
        func.return_(builder, [result])
        PassManager(["tosa-to-linalg-named"]).run(module)
        got = names(module)
        assert "linalg.batch_matmul" in got
        assert "linalg.fill" in got and "tensor.empty" in got

    def test_const_to_arith(self):
        module = make_graph(
            lambda b, x, t: tosa.const(b, t)
        )
        PassManager(["tosa-to-arith"]).run(module)
        got = names(module)
        assert "tosa.const" not in got
        assert "arith.constant" in got

    def test_reshape_to_tensor(self):
        def body(b, x, t):
            return tosa.op(b, "reshape", [x],
                           tensor(32, element_type=F32), new_shape=[32])

        module = builtin.module()
        t = tensor(4, 8, element_type=F32)
        f = func.func("main", [t], [tensor(32, element_type=F32)])
        module.body.append(f)
        builder = Builder.at_end(f.body)
        result = body(builder, f.body.args[0], t)
        func.return_(builder, [result])
        PassManager(["tosa-to-tensor"]).run(module)
        assert "tensor.reshape" in names(module)


class TestFullPipeline:
    def test_pipeline_order(self):
        manager = PassManager(TOSA_TO_LINALG_PIPELINE)
        assert [pass_.NAME for pass_ in manager.passes] == list(
            TOSA_TO_LINALG_PIPELINE)

    @pytest.mark.parametrize("model", ["squeezenet", "whisper_decoder"])
    def test_models_lower_fully(self, model):
        from repro.mlmodels import build_model, count_ops

        module = build_model(model)
        PassManager(TOSA_TO_LINALG_PIPELINE).run(module)
        assert count_ops(module, "tosa.") == 0
        remaining = names(module)
        allowed_prefixes = ("linalg.", "tensor.", "arith.", "func.")
        assert all(
            name.startswith(allowed_prefixes) for name in remaining
        ), remaining
