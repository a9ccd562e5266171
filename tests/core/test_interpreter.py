"""Tests for the transform interpreter: execution, errors, recovery."""

import pytest

from repro.core import dialect as transform
from repro.core.errors import TransformInterpreterError, TransformResult
from repro.core.interpreter import TransformInterpreter
from repro.dialects import builtin, func
from repro.execution.workloads import build_matmul_module
from repro.ir import Builder, Operation
from repro.ir.printer import print_op


def loops_of(module):
    return [op for op in module.walk() if op.name == "scf.for"]


class TestEntryPoints:
    def test_sequence_binds_root(self):
        payload = build_matmul_module(4, 4, 4)
        script, builder, root = transform.sequence()
        printed = transform.print_(builder, root, "root")
        transform.yield_(builder)
        interp = TransformInterpreter()
        result = interp.apply(script, payload)
        assert result.succeeded
        assert "builtin.module" in interp.output[0]

    def test_named_sequence_entry(self):
        payload = build_matmul_module(4, 4, 4)
        script = Operation.create("builtin.module", regions=1)
        script.regions[0].add_block()
        seq, builder, args = transform.named_sequence("__transform_main")
        script.regions[0].entry_block.append(seq)
        loop = transform.match_op(builder, args[0], "scf.for",
                                  position="first")
        transform.loop_unroll(builder, loop, full=False, factor=2)
        transform.yield_(builder)
        TransformInterpreter().apply(script, payload,
                                     entry_point="__transform_main")
        assert loops_of(payload)[0].trip_count() == 2

    def test_missing_entry_raises(self):
        payload = build_matmul_module(2, 2, 2)
        script = Operation.create("builtin.module", regions=1)
        script.regions[0].add_block()
        with pytest.raises(TransformInterpreterError, match="entry"):
            TransformInterpreter().apply(script, payload)

    def test_non_transform_op_is_definite_error(self):
        payload = build_matmul_module(2, 2, 2)
        script, builder, root = transform.sequence()
        builder.create("arith.constant", result_types=[],
                       attributes={"value": 0})
        transform.yield_(builder)
        with pytest.raises(TransformInterpreterError,
                           match="not a transform operation"):
            TransformInterpreter().apply(script, payload)


class TestErrors:
    def test_definite_aborts(self):
        payload = build_matmul_module(2, 2, 2)
        script, builder, root = transform.sequence()
        builder.create("transform.test.emit_definite",
                       attributes={"message": "boom"})
        marker = transform.match_op(builder, root, "scf.for")
        transform.yield_(builder)
        with pytest.raises(TransformInterpreterError, match="boom"):
            TransformInterpreter().apply(script, payload)

    def test_silenceable_skips_rest_of_region(self):
        payload = build_matmul_module(2, 2, 2)
        script, builder, root = transform.sequence()
        builder.create("transform.test.emit_silenceable",
                       attributes={"message": "soft"})
        loop = transform.match_op(builder, root, "scf.for",
                                  position="first")
        transform.loop_unroll(builder, loop, full=True)
        transform.yield_(builder)
        result = TransformInterpreter().apply(script, payload)
        assert result.is_silenceable
        # The unroll after the failure never ran.
        assert len(loops_of(payload)) == 3

    def test_stats_recorded(self):
        payload = build_matmul_module(2, 2, 2)
        script, builder, root = transform.sequence()
        loop = transform.match_op(builder, root, "scf.for",
                                  position="first")
        transform.loop_unroll(builder, loop, full=True)
        transform.yield_(builder)
        interp = TransformInterpreter()
        interp.apply(script, payload)
        assert interp.stats.transforms_executed >= 3
        assert interp.stats.handles_invalidated == 1

    def test_failed_apply_not_counted_in_stats(self):
        """Regression (PR 1): a transform whose apply() fails must not
        count as executed nor claim its result handles as created."""
        from repro.core.types import ANY_OP

        payload = build_matmul_module(2, 2, 2)
        script, builder, root = transform.sequence()
        transform.match_op(builder, root, "scf.for", position="first")
        builder.create("transform.test.emit_silenceable",
                       attributes={"message": "soft"},
                       result_types=[ANY_OP])
        transform.yield_(builder)
        interp = TransformInterpreter()
        result = interp.apply(script, payload)
        assert result.is_silenceable
        # Only the successful match_op counts; neither the failing op
        # nor the (silenceably failed) enclosing sequence do.
        assert interp.stats.transforms_executed == 1
        assert interp.stats.handles_created == 1

    def test_invalidation_stat_counts_aliases(self):
        """Regression (PR 1): consuming one operand used to bump the
        stat by exactly 1; it must count every handle actually killed,
        aliases included."""
        payload = build_matmul_module(2, 2, 2)
        script, builder, root = transform.sequence()
        loop = transform.match_op(builder, root, "scf.for",
                                  position="first")
        # All memref.load ops live inside the outermost loop, so this
        # handle aliases the loop handle.
        transform.match_op(builder, root, "memref.load")
        transform.loop_unroll(builder, loop, full=True)
        transform.yield_(builder)
        interp = TransformInterpreter()
        interp.apply(script, payload)
        # The consumed loop handle + the nested-alias load handle.
        assert interp.stats.handles_invalidated == 2

    def test_nested_sequence_not_mistaken_for_entry(self):
        """Regression (PR 1): entry discovery must only consider
        top-level ops. A transform.sequence nested inside a
        named_sequence body is a step of that entry, not the entry —
        the old walk()-based scan picked it and skipped the rest of
        the enclosing body."""
        payload = build_matmul_module(2, 2, 2)
        script = Operation.create("builtin.module", regions=1)
        script.regions[0].add_block()
        seq, builder, args = transform.named_sequence("__transform_main")
        script.regions[0].entry_block.append(seq)
        transform.print_(builder, args[0], "from-main")
        nested, nested_builder, _nested_root = transform.sequence()
        transform.print_(nested_builder, _nested_root, "from-nested")
        transform.yield_(nested_builder)
        builder.insert(nested)
        transform.yield_(builder)

        interp = TransformInterpreter()
        result = interp.apply(script, payload)
        assert result.succeeded
        # The named sequence ran as the entry (its print fired), and
        # the nested sequence ran as one of its steps — in that order.
        assert any("from-main" in line for line in interp.output)
        assert any("from-nested" in line for line in interp.output)
        main_at = next(i for i, line in enumerate(interp.output)
                       if "from-main" in line)
        nested_at = next(i for i, line in enumerate(interp.output)
                         if "from-nested" in line)
        assert main_at < nested_at


class TestAlternatives:
    def make_script(self, first_region_fails: bool):
        script, builder, root = transform.sequence()
        alts = transform.alternatives(builder, 2)
        first = Builder.at_end(alts.regions[0].entry_block)
        if first_region_fails:
            first.create("transform.test.emit_silenceable")
        first.create("transform.print", operands=[root],
                     attributes={"message": "first"})
        second = Builder.at_end(alts.regions[1].entry_block)
        second.create("transform.print", operands=[root],
                      attributes={"message": "second"})
        transform.yield_(builder)
        return script

    def test_first_alternative_wins_when_ok(self):
        payload = build_matmul_module(2, 2, 2)
        interp = TransformInterpreter()
        interp.apply(self.make_script(first_region_fails=False), payload)
        assert any("first" in line for line in interp.output)
        assert not any("second" in line for line in interp.output)

    def test_silenceable_failure_falls_through(self):
        payload = build_matmul_module(2, 2, 2)
        interp = TransformInterpreter()
        interp.apply(self.make_script(first_region_fails=True), payload)
        assert any("second" in line for line in interp.output)

    def test_empty_region_is_noop_success(self):
        payload = build_matmul_module(2, 2, 2)
        script, builder, root = transform.sequence()
        alts = transform.alternatives(builder, 2)
        first = Builder.at_end(alts.regions[0].entry_block)
        first.create("transform.test.emit_silenceable")
        # Second region left empty: "leave the code unchanged".
        transform.yield_(builder)
        result = TransformInterpreter().apply(script, payload)
        assert result.succeeded

    def test_all_alternatives_failing_is_silenceable(self):
        payload = build_matmul_module(2, 2, 2)
        script, builder, root = transform.sequence()
        alts = transform.alternatives(builder, 1)
        first = Builder.at_end(alts.regions[0].entry_block)
        first.create("transform.test.emit_silenceable",
                     attributes={"message": "inner"})
        transform.yield_(builder)
        result = TransformInterpreter().apply(script, payload)
        assert result.is_silenceable
        assert "inner" in result.message

    def test_definite_error_not_suppressed(self):
        payload = build_matmul_module(2, 2, 2)
        script, builder, root = transform.sequence()
        alts = transform.alternatives(builder, 2)
        first = Builder.at_end(alts.regions[0].entry_block)
        first.create("transform.test.emit_definite")
        transform.yield_(builder)
        with pytest.raises(TransformInterpreterError):
            TransformInterpreter().apply(script, payload)


class TestForeach:
    def test_runs_body_per_payload_op(self):
        payload = build_matmul_module(4, 4, 4)
        script, builder, root = transform.sequence()
        all_loops = transform.match_op(builder, root, "scf.for")
        foreach_op, body_builder, element = transform.foreach(
            builder, all_loops
        )
        transform.print_(body_builder, element, "visiting")
        transform.yield_(body_builder)
        transform.yield_(builder)
        interp = TransformInterpreter()
        interp.apply(script, payload)
        visits = [line for line in interp.output if "visiting" in line]
        assert len(visits) == 3


class TestInclude:
    def test_macro_invocation(self):
        payload = build_matmul_module(4, 4, 4)
        script = Operation.create("builtin.module", regions=1)
        script.regions[0].add_block()
        macro, macro_builder, macro_args = transform.named_sequence(
            "unroll_first", n_args=1
        )
        loop = transform.match_op(macro_builder, macro_args[0],
                                  "scf.for", position="first")
        transform.loop_unroll(macro_builder, loop, factor=2)
        transform.yield_(macro_builder)
        script.regions[0].entry_block.append(macro)

        seq, builder, root = transform.sequence()
        transform.include(builder, "unroll_first", [root])
        transform.yield_(builder)
        script.regions[0].entry_block.append(seq)

        TransformInterpreter().apply(script, payload)
        assert loops_of(payload)[0].trip_count() == 2
        # The run inlined the macro into the script it was given.
        assert not any(script.walk_ops("transform.include"))

    def test_unknown_target_is_definite(self):
        payload = build_matmul_module(2, 2, 2)
        script, builder, root = transform.sequence()
        transform.include(builder, "nope", [root])
        transform.yield_(builder)
        module = Operation.create("builtin.module", regions=1)
        module.regions[0].add_block().append(script)
        with pytest.raises(TransformInterpreterError,
                           match="transform.include of unknown symbol "
                                 "@nope"):
            TransformInterpreter().apply(module, payload)


class TestTypeChecking:
    def test_typed_handle_enforced_dynamically(self):
        from repro.core.types import OperationHandleType

        payload = build_matmul_module(2, 2, 2)
        script, builder, root = transform.sequence()
        # Match func.func but claim it is an scf.for handle.
        bad = builder.create(
            "transform.match_op",
            operands=[root],
            result_types=[OperationHandleType("scf.for")],
            attributes={"names": ["func.func"], "position": "first"},
        )
        transform.yield_(builder)
        with pytest.raises(TransformInterpreterError,
                           match="does not satisfy"):
            TransformInterpreter().apply(script, payload)

    def test_cast_refines_handle(self):
        from repro.core.types import ANY_OP, OperationHandleType

        payload = build_matmul_module(2, 2, 2)
        script, builder, root = transform.sequence()
        loop = transform.match_op(builder, root, "scf.for",
                                  position="first", result_type=ANY_OP)
        builder.create(
            "transform.cast", operands=[loop],
            result_types=[OperationHandleType("scf.for")],
        )
        transform.yield_(builder)
        result = TransformInterpreter().apply(script, payload)
        assert result.succeeded

    def test_cast_mismatch_is_silenceable(self):
        from repro.core.types import ANY_OP, OperationHandleType

        payload = build_matmul_module(2, 2, 2)
        script, builder, root = transform.sequence()
        f = transform.match_op(builder, root, "func.func",
                               position="first", result_type=ANY_OP)
        builder.create(
            "transform.cast", operands=[f],
            result_types=[OperationHandleType("scf.for")],
        )
        transform.yield_(builder)
        result = TransformInterpreter().apply(script, payload)
        assert result.is_silenceable
