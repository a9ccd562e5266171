"""Cross-module integration scenarios: the full system working together."""

import numpy as np
import pytest

from repro.analysis import analyze_script, check_transform_script
from repro.core import (
    DynamicConditionChecker,
    TransformInterpreter,
    dialect as transform,
    expand_includes,
    payload_op_specs,
    pipeline_to_transform_script,
)
from repro.execution.interpreter import PayloadInterpreter
from repro.execution.workloads import (
    build_matmul_module,
    reference_matmul,
)
from repro.ir import Builder, Operation
from repro.ir.parser import parse
from repro.ir.printer import print_op
from repro.passes.manager import PassManager


class TestTextualEndToEnd:
    """Payload and script exist only as text, like real mlir files."""

    def test_text_script_transforms_text_payload(self):
        payload = parse(print_op(build_matmul_module(36, 32, 32)))
        script, builder, root = transform.sequence()
        loop = transform.match_op(builder, root, "scf.for",
                                  position="first")
        main, rest = transform.loop_split(builder, loop, 32)
        transform.loop_tile(builder, main, [32, 32])
        transform.loop_unroll(builder, rest, full=True)
        transform.yield_(builder)
        reparsed_script = parse(print_op(script))

        result = TransformInterpreter().apply(reparsed_script, payload)
        assert result.succeeded
        a, b, c, expected = reference_matmul(36, 32, 32)
        PayloadInterpreter(payload).run("matmul", a, b, c)
        assert np.allclose(c, expected)

    def test_transformed_ir_roundtrips_and_reruns(self):
        payload = build_matmul_module(8, 8, 8)
        script, builder, root = transform.sequence()
        loop = transform.match_op(builder, root, "scf.for",
                                  position="first")
        transform.loop_tile(builder, loop, [4])
        transform.yield_(builder)
        TransformInterpreter().apply(script, payload)
        reparsed = parse(print_op(payload))
        reparsed.verify()
        a, b, c, expected = reference_matmul(8, 8, 8, seed=5)
        PayloadInterpreter(reparsed).run("matmul", a, b, c)
        assert np.allclose(c, expected)


class TestFullCompilationFlow:
    """TOSA model -> linalg -> loops -> tiled -> LLVM, one script."""

    def build_script(self):
        script, builder, root = transform.sequence()
        # Stage 1: the Table-1 pipeline, pass by pass.
        current = root
        for name in ("tosa-optional-decompositions", "canonicalize",
                     "tosa-make-broadcastable", "tosa-to-linalg-named",
                     "tosa-to-linalg", "tosa-to-arith",
                     "tosa-to-tensor", "canonicalize", "cse"):
            current = transform.apply_registered_pass(
                builder, current, name
            )
        transform.yield_(builder)
        return script

    def test_tosa_model_through_transform_script(self):
        from repro.mlmodels import build_model, count_ops

        payload = build_model("squeezenet")
        script = self.build_script()
        result = TransformInterpreter().apply(script, payload)
        assert result.succeeded
        assert count_ops(payload, "tosa.") == 0
        assert count_ops(payload, "linalg.") > 0

    def test_matmul_lowered_tiled_offloaded_and_lowered_to_llvm(self):
        """linalg.matmul -> loops -> split/tile -> microkernel ->
        full LLVM lowering — a single script drives all of it."""
        from repro.dialects import builtin, func, linalg
        from repro.ir.types import memref

        payload = builtin.module()
        f = func.func("kernel", [memref(64, 64), memref(64, 64),
                                 memref(64, 64)])
        payload.body.append(f)
        fb = Builder.at_end(f.body)
        linalg.matmul(fb, *f.body.args)
        func.return_(fb)

        script, builder, root = transform.sequence()
        matmul = transform.match_op(builder, root, "linalg.matmul",
                                    position="first")
        loops = builder.create(
            "transform.structured.lower_to_loops",
            operands=[matmul], result_types=[transform.ANY_OP],
        ).results[0]
        outer, inner = transform.loop_tile(builder, loops, [32, 32])
        alts = transform.alternatives(builder, 2)
        attempt = Builder.at_end(alts.regions[0].entry_block)
        transform.to_library(attempt, inner, "libxsmm")
        transform.yield_(attempt)
        # Stage 3: all the way down to LLVM.
        current = root
        for name in ("convert-scf-to-cf", "convert-arith-to-llvm",
                     "convert-cf-to-llvm", "convert-func-to-llvm",
                     "expand-strided-metadata", "lower-affine",
                     "convert-arith-to-llvm", "finalize-memref-to-llvm",
                     "reconcile-unrealized-casts"):
            current = transform.apply_registered_pass(
                builder, current, name
            )
        transform.yield_(builder)

        result = TransformInterpreter().apply(script, payload)
        assert result.succeeded
        names = {op.name for op in payload.walk() if op is not payload}
        assert all(name.startswith("llvm.") for name in names), names

    def test_static_checks_accept_the_full_flow_script(self):
        script = self.build_script()
        assert analyze_script(script, may_alias=False) == []


class TestSafetyNetsCompose:
    def test_checked_interpreter_on_generated_pipeline(self):
        from tests.passes.test_lowerings import (
            FIXED_PIPELINE,
            build_subview_payload,
        )

        payload = build_subview_payload(dynamic_offset=True)
        script = pipeline_to_transform_script(FIXED_PIPELINE)
        report = check_transform_script(
            script, payload_op_specs(payload), ["llvm.*"]
        )
        assert report.ok
        checker = DynamicConditionChecker(fatal=True)
        checker.apply(script, payload)
        assert checker.violations == []

    def test_simplify_then_run_equals_run(self):
        def run(pre_simplify):
            payload = build_matmul_module(8, 8, 8)
            script, builder, root = transform.sequence()
            loop = transform.match_op(builder, root, "scf.for",
                                      position="first")
            transform.param_constant(builder, 3)  # dead
            outer, inner = transform.loop_tile(builder, loop, [4])
            transform.loop_unroll(builder, inner, factor=1)  # no-op
            transform.yield_(builder)
            if pre_simplify:
                PassManager(["canonicalize", "cse"]).run(script)
            TransformInterpreter().apply(script, payload)
            return print_op(payload)

        assert run(False) == run(True)

    def test_macro_expansion_then_invalidation_analysis(self):
        """Static analysis sees through expanded macros."""
        module = Operation.create("builtin.module", regions=1)
        module.regions[0].add_block()
        macro, macro_builder, macro_args = transform.named_sequence(
            "consume_it", n_args=1
        )
        transform.loop_unroll(macro_builder, macro_args[0], full=True)
        transform.yield_(macro_builder)
        module.regions[0].entry_block.append(macro)
        seq, builder, root = transform.sequence()
        loop = transform.match_op(builder, root, "scf.for",
                                  position="first")
        transform.include(builder, "consume_it", [loop])
        transform.print_(builder, loop)  # use-after-consume, hidden
        transform.yield_(builder)
        module.regions[0].entry_block.append(seq)

        # Before expansion the include hides the consumption...
        expand_includes(module)
        # ...after expansion the analysis catches it.
        issues = analyze_script(module, may_alias=False)
        assert len(issues) == 1
        assert issues[0].use_op.name == "transform.print"


class TestInterpreterAgainstCostModel:
    def test_cost_model_and_interpreter_agree_on_winner(self):
        """For small instances we can *run* both schedules: the one the
        cost model prefers must not be slower in interpreted steps."""
        from repro.execution.costmodel import CostModel

        def build(tiled):
            payload = build_matmul_module(32, 32, 16)
            if tiled:
                script, builder, root = transform.sequence()
                loop = transform.match_op(builder, root, "scf.for",
                                          position="first")
                transform.loop_tile(builder, loop, [8, 8])
                transform.yield_(builder)
                TransformInterpreter().apply(script, payload)
            return payload

        plain, tiled = build(False), build(True)
        cost_plain = CostModel().estimate_module(plain)
        cost_tiled = CostModel().estimate_module(tiled)
        # Semantics identical either way:
        a, b, c, expected = reference_matmul(32, 32, 16)
        PayloadInterpreter(tiled).run("matmul", a, b, c)
        assert np.allclose(c, expected)
        # The model sees the tiling benefit on this footprint:
        assert cost_tiled != cost_plain
