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


class TestDriverWork:
    """What the rewrite drivers do on whisper_decoder through Table 1's
    pipeline, counted call by call rather than timed."""

    @pytest.fixture(scope="class")
    def work(self):
        from repro.mlmodels import build_model
        from repro.rewrite.conversion import ConversionTarget
        from repro.rewrite.pattern import _FunctionPattern

        asked, calls = [], []
        legality = ConversionTarget.legality
        match_and_rewrite = _FunctionPattern.match_and_rewrite

        def counting_legality(target, op):
            asked.append(op)
            return legality(target, op)

        def counting_match(pat, op, rewriter):
            calls.append((pat, op.name))
            return match_and_rewrite(pat, op, rewriter)

        module = build_model("whisper_decoder")
        work = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ConversionTarget, "legality", counting_legality)
            patch.setattr(_FunctionPattern, "match_and_rewrite",
                          counting_match)
            for name in TOSA_TO_LINALG_PIPELINE:
                before = [op.name for op in module.walk()]
                del asked[:], calls[:]
                PassManager([name]).run(module)
                work.append((name, before, list(asked), list(calls)))
        return work

    def test_conversion_asks_legality_about_each_op_once(self, work):
        conversions = [(name, asked) for name, _, asked, _ in work if asked]
        assert [name for name, _ in conversions] == [
            "tosa-to-linalg-named", "tosa-to-linalg", "tosa-to-tensor"]
        for name, asked in conversions:
            # A whole-tree sweep per round asked about 2.5 times per op.
            assert len(asked) <= 1.1 * len({id(op) for op in asked}), name

    def test_canonicalize_calls_patterns_only_where_they_root(self, work):
        from repro.passes.canonicalize import CANONICALIZATION_PATTERNS

        assert all(pat.root_name is not None
                   for pat in CANONICALIZATION_PATTERNS)
        runs = [(before, calls) for name, before, _, calls in work
                if name == "canonicalize"]
        assert len(runs) == 2
        for before, calls in runs:
            assert all(pat.roots_at(name) for pat, name in calls)
            # Nothing rewrites on whisper, so each rooted op is tried
            # once by each pattern rooted at it.
            assert len(calls) == sum(
                pat.roots_at(name) for name in before[1:]
                for pat in CANONICALIZATION_PATTERNS)
