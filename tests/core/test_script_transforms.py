"""Tests for transformations *of* transform scripts (§3.4)."""

import pytest

from repro.core import (
    ScriptTransformError,
    dialect as transform,
    expand_includes,
    infer_ad_dialects,
)
from repro.core.interpreter import TransformInterpreter
from repro.execution.workloads import build_matmul_module
from repro.ir import Builder, Operation
from repro.ir.printer import print_op
from repro.passes.manager import PassManager
from repro.service.worker import bind_parameters


def script_module():
    module = Operation.create("builtin.module", regions=1)
    module.regions[0].add_block()
    return module


class TestIncludeExpansion:
    def build_macro_script(self):
        module = script_module()
        macro, macro_builder, macro_args = transform.named_sequence(
            "tile_it", n_args=1
        )
        loop = transform.match_op(macro_builder, macro_args[0],
                                  "scf.for", position="first")
        transform.loop_tile(macro_builder, loop, [4])
        transform.yield_(macro_builder)
        module.regions[0].entry_block.append(macro)
        seq, builder, root = transform.sequence()
        transform.include(builder, "tile_it", [root])
        transform.yield_(builder)
        module.regions[0].entry_block.append(seq)
        return module, seq

    def test_expands_inline(self):
        module, seq = self.build_macro_script()
        count = expand_includes(module)
        assert count == 1
        body_names = [op.name for op in seq.body.ops]
        assert "transform.include" not in body_names
        assert "transform.match_op" in body_names
        assert "transform.loop.tile" in body_names

    def test_expanded_script_still_runs(self):
        # The unnamed sequence is the entry although the macro comes
        # first, both as written and expanded: same status, same bytes.
        from repro.ir.printer import print_op

        def run(expand):
            module, _seq = self.build_macro_script()
            if expand:
                expand_includes(module)
            payload = build_matmul_module(8, 4, 4)
            result = TransformInterpreter().apply(module, payload)
            return result.kind, print_op(payload)

        as_written = run(expand=False)
        assert as_written == run(expand=True)
        assert as_written[1] != print_op(build_matmul_module(8, 4, 4))

    def test_nested_includes(self):
        module = script_module()
        block = module.regions[0].entry_block
        inner, inner_builder, inner_args = transform.named_sequence(
            "inner", n_args=1
        )
        transform.print_(inner_builder, inner_args[0], "hi")
        transform.yield_(inner_builder)
        block.append(inner)
        outer, outer_builder, outer_args = transform.named_sequence(
            "outer", n_args=1
        )
        transform.include(outer_builder, "inner", [outer_args[0]])
        transform.yield_(outer_builder)
        block.append(outer)
        seq, builder, root = transform.sequence()
        transform.include(builder, "outer", [root])
        transform.yield_(builder)
        block.append(seq)
        assert expand_includes(module) >= 2
        assert not list(module.walk_ops("transform.include"))

    def test_recursion_rejected(self):
        module = script_module()
        block = module.regions[0].entry_block
        rec, rec_builder, rec_args = transform.named_sequence(
            "rec", n_args=1
        )
        transform.include(rec_builder, "rec", [rec_args[0]])
        transform.yield_(rec_builder)
        block.append(rec)
        with pytest.raises(ScriptTransformError, match="recursive"):
            expand_includes(module)

    def test_unknown_include_rejected(self):
        module = script_module()
        seq, builder, root = transform.sequence()
        transform.include(builder, "ghost", [root])
        transform.yield_(builder)
        module.regions[0].entry_block.append(seq)
        with pytest.raises(ScriptTransformError, match="unknown"):
            expand_includes(module)


def _dead_add_payload():
    """A function holding an ``arith.addi`` nothing uses."""
    from repro.dialects import arith, builtin, func

    payload = builtin.module()
    function = func.func("dead_add", [])
    payload.body.append(function)
    body = Builder.at_end(function.body)
    one = arith.index_constant(body, 1)
    arith.addi(body, one, one)
    func.return_(body)
    return payload


class TestSimplification:
    def test_unroll_by_one_removed(self):
        script, builder, root = transform.sequence()
        loop = transform.match_op(builder, root, "scf.for",
                                  position="first")
        transform.loop_unroll(builder, loop, factor=1)
        transform.print_(builder, loop)
        transform.yield_(builder)
        PassManager(["canonicalize", "cse"]).run(script)
        assert not list(script.walk_ops("transform.loop.unroll"))

    def test_full_unroll_kept(self):
        script, builder, root = transform.sequence()
        loop = transform.match_op(builder, root, "scf.for",
                                  position="first")
        transform.loop_unroll(builder, loop, full=True)
        transform.yield_(builder)
        PassManager(["canonicalize", "cse"]).run(script)
        assert list(script.walk_ops("transform.loop.unroll"))

    def test_dead_match_removed(self):
        script, builder, root = transform.sequence()
        transform.match_op(builder, root, "scf.for")  # unused
        transform.yield_(builder)
        PassManager(["canonicalize", "cse"]).run(script)
        assert not list(script.walk_ops("transform.match_op"))

    def test_used_match_kept(self):
        script, builder, root = transform.sequence()
        loop = transform.match_op(builder, root, "scf.for",
                                  position="first")
        transform.print_(builder, loop)
        transform.yield_(builder)
        PassManager(["canonicalize", "cse"]).run(script)
        assert list(script.walk_ops("transform.match_op"))

    def test_duplicate_params_shared(self):
        """Two unbound equal constants are one; an equal bound one
        stays apart."""
        script, builder, root = transform.sequence()
        first = transform.param_constant(builder, 8)
        second = transform.param_constant(builder, 8)
        bound = builder.create(
            "transform.param.constant", result_types=[transform.PARAM_I64],
            attributes={"value": 8, "binding": "tile"}).result
        transform.annotate(builder, root, "tile", bound)
        loop = transform.match_op(builder, root, "scf.for",
                                  position="first")
        main, rest = transform.loop_split(builder, loop, first)
        transform.loop_tile(builder, main, second)
        transform.yield_(builder)
        PassManager(["canonicalize", "cse"]).run(script)
        params = list(script.walk_ops("transform.param.constant"))
        assert [param.attr("binding") is None for param in params] \
            == [True, False]

    def test_bound_params_are_not_shared(self):
        script, builder, root = transform.sequence()
        for binding in ("tile_m", "tile_n"):
            param = builder.create(
                "transform.param.constant", result_types=[transform.PARAM_I64],
                attributes={"value": 4, "binding": binding}).result
            transform.annotate(builder, root, binding, param)
        transform.yield_(builder)
        PassManager(["canonicalize", "cse"]).run(script)
        assert len(list(script.walk_ops("transform.param.constant"))) == 2
        assert bind_parameters(script, {"tile_m": 16, "tile_n": 32}) == 2
        payload = build_matmul_module(8, 4, 4)
        TransformInterpreter().apply(script, payload)
        assert (payload.attr("tile_m").value,
                payload.attr("tile_n").value) == (16, 32)

    def test_empty_apply_patterns_is_kept(self):
        """It still runs the greedy driver, which erases dead pure
        payload ops: erasing it would keep an unused ``arith.addi``."""
        def run(normalize):
            payload = _dead_add_payload()
            script, builder, root = transform.sequence()
            transform.apply_patterns(builder, root, [])
            transform.yield_(builder)
            if normalize:
                PassManager(["canonicalize", "cse"]).run(script)
                assert list(script.walk_ops("transform.apply_patterns"))
            TransformInterpreter().apply(script, payload)
            return print_op(payload)

        assert run(True) == run(False)
        assert "arith.addi" not in run(False)

    def test_only_param_constant_is_pure(self):
        """``num_payload_ops`` reads the mapping where it stands: two
        reads around an ``apply_patterns`` that erases the matched op
        are not common subexpressions."""
        script, builder, root = transform.sequence()
        adds = transform.match_op(builder, root, "arith.addi")
        counts = []
        for index in range(2):
            if index:
                transform.apply_patterns(builder, root, [])
            counts.append(builder.create(
                "transform.num_payload_ops", operands=[adds],
                result_types=[transform.PARAM_I64]).result)
        for index, count in enumerate(counts):
            transform.annotate(builder, root, f"n{index}", count)
        transform.yield_(builder)
        PassManager(["canonicalize", "cse"]).run(script)
        assert len(list(script.walk_ops("transform.num_payload_ops"))) == 2
        payload = _dead_add_payload()
        TransformInterpreter().apply(script, payload)
        assert (payload.attr("n0").value, payload.attr("n1").value) == (1, 0)

    def test_empty_alternatives_removed(self):
        script, builder, root = transform.sequence()
        transform.alternatives(builder, 2)
        transform.yield_(builder)
        PassManager(["canonicalize", "cse"]).run(script)
        assert not list(script.walk_ops("transform.alternatives"))

    def test_simplified_script_equivalent(self):
        """Simplification must not change what the script does."""
        def build(simplify):
            payload = build_matmul_module(8, 4, 4)
            script, builder, root = transform.sequence()
            loop = transform.match_op(builder, root, "scf.for",
                                      position="first")
            outer, inner = transform.loop_tile(builder, loop, [4])
            transform.loop_unroll(builder, inner, factor=1)  # no-op
            transform.yield_(builder)
            if simplify:
                PassManager(["canonicalize", "cse"]).run(script)
            TransformInterpreter().apply(script, payload)
            return [
                op.name for op in payload.walk()
            ].count("scf.for")

        assert build(False) == build(True)


def _unused_positional_match(builder, root):
    transform.match_op(builder, root, "scf.for", position="first")


def _unused_get_parent(builder, root):
    functions = transform.match_op(builder, root, "func.func")
    builder.create("transform.get_parent_op", operands=[functions],
                   result_types=[transform.ANY_OP],
                   attributes={"op_name": "scf.for"})
    transform.print_(builder, functions)


def _unused_cast(builder, root):
    functions = transform.match_op(builder, root, "func.func")
    builder.create("transform.cast", operands=[functions],
                   result_types=[transform.OperationHandleType("scf.for")])
    transform.print_(builder, functions)


class TestSimplificationKeepsTheOutcome:
    """An unused op that fails silenceably as written skips the rest of
    its block; erasing it would run the rest (ISSUE 23: the erasable
    set had drifted from the failure model)."""

    @staticmethod
    def run(build, simplify):
        from repro.dialects import arith, builtin, func
        from repro.ir.printer import print_op

        payload = builtin.module()
        function = func.func("loop_free", [])
        payload.body.append(function)
        body = Builder.at_end(function.body)
        arith.constant(body, 1.0)
        func.return_(body)
        script, builder, root = transform.sequence()
        build(builder, root)
        transform.annotate(builder, root, "reached")
        transform.yield_(builder)
        if simplify:
            PassManager(["canonicalize", "cse"]).run(script)
        result = TransformInterpreter().apply(script, payload)
        return result.is_silenceable, print_op(payload)

    @pytest.mark.parametrize("build", [
        _unused_positional_match, _unused_get_parent, _unused_cast,
    ])
    def test_unused_op_that_fails_is_not_erased(self, build):
        silenceable, output = self.run(build, simplify=False)
        assert silenceable and "reached" not in output
        assert self.run(build, simplify=True) == (silenceable, output)

    @pytest.mark.parametrize("sizes", [[0], [0, 0]])
    def test_tile_by_zero_is_not_folded(self, sizes):
        # As written a lone zero size fails silenceably and a zero nest
        # is rebuilt; forwarding the handle changed both outcomes.
        from repro.ir.printer import print_op

        def run(simplify):
            payload = build_matmul_module(8, 4, 4)
            script, builder, root = transform.sequence()
            loop = transform.match_op(builder, root, "scf.for",
                                      position="first")
            transform.loop_tile(builder, loop, sizes)
            transform.annotate(builder, root, "reached")
            transform.yield_(builder)
            if simplify:
                PassManager(["canonicalize", "cse"]).run(script)
            result = TransformInterpreter().apply(script, payload)
            return result.is_silenceable, print_op(payload)

        assert run(True) == run(False)

    def test_size_operand_overrides_the_static_rule(self):
        script, builder, root = transform.sequence()
        loop = transform.match_op(builder, root, "scf.for",
                                  position="first")
        factor = transform.param_constant(builder, 4)
        builder.create("transform.loop.unroll", operands=[loop, factor],
                       attributes={"factor": 1})
        transform.yield_(builder)
        PassManager(["canonicalize", "cse"]).run(script)
        assert list(script.walk_ops("transform.loop.unroll"))


class TestADIntrospection:
    def build_staged_script(self):
        script, builder, root = transform.sequence()
        f = transform.match_op(builder, root, "func.func",
                               position="first")
        ad_hlo = builder.create("transform.autodiff", operands=[f])
        lowered = transform.apply_registered_pass(
            builder, f, "convert-stablehlo-to-arith"
        )
        ad_arith = builder.create("transform.autodiff",
                                  operands=[lowered])
        llvm = transform.apply_registered_pass(
            builder, lowered, "convert-arith-to-llvm"
        )
        ad_llvm = builder.create("transform.autodiff", operands=[llvm])
        transform.yield_(builder)
        return script, (ad_hlo, ad_arith, ad_llvm)

    def test_levels_inferred_from_position(self):
        script, (ad_hlo, ad_arith, ad_llvm) = self.build_staged_script()
        configured = infer_ad_dialects(script)
        assert configured == 3
        assert ad_hlo.attr("add_dialect").value == "stablehlo"
        assert ad_arith.attr("add_dialect").value == "arith"
        assert ad_llvm.attr("add_dialect").value == "llvm"

    def test_explicit_attr_not_overwritten(self):
        script, (ad_hlo, *_rest) = self.build_staged_script()
        ad_hlo.set_attr("add_dialect", "llvm")
        infer_ad_dialects(script)
        assert ad_hlo.attr("add_dialect").value == "llvm"

    def test_unconfigured_autodiff_is_definite_error(self):
        from repro.core.errors import TransformInterpreterError
        from repro.dialects import builtin, func
        from repro.ir.types import F32, tensor

        payload = builtin.module()
        payload.body.append(func.func("f", []))
        Builder.at_end(
            next(payload.walk_ops("func.func")).body
        ).create("func.return")
        script, builder, root = transform.sequence()
        builder.create("transform.autodiff", operands=[root])
        transform.yield_(builder)
        with pytest.raises(TransformInterpreterError,
                           match="add_dialect"):
            TransformInterpreter().apply(script, payload)

    def test_end_to_end_gradient_emission(self):
        from repro.dialects import builtin, func
        from repro.ir.types import F32, tensor

        payload = builtin.module()
        t = tensor(4, element_type=F32)
        f = func.func("f", [t, t], [t])
        payload.body.append(f)
        fb = Builder.at_end(f.body)
        product = fb.create(
            "stablehlo.multiply", operands=list(f.body.args),
            result_types=[t], attributes={"differentiate": True},
        )
        func.return_(fb, [product.result])

        script, (ad_hlo, *_rest) = self.build_staged_script()
        infer_ad_dialects(script)
        TransformInterpreter().apply(script, payload)
        names = [op.name for op in payload.walk()]
        # The stablehlo-level AD emitted stablehlo.add, which the later
        # lowering turned into arith.addf, then llvm.fadd.
        assert "llvm.fadd" in names
