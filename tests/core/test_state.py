"""Tests for the transform state: mapping, invalidation, rewrite events."""

import pytest

from repro.analysis.invalidation import analyze_script
from repro.analysis.lint import lint_script
from repro.core import dialect as transform
from repro.core.dialect import TransformOp
from repro.core.errors import TransformInterpreterError, TransformResult
from repro.core.interpreter import TransformInterpreter
from repro.core.state import HandleInvalidatedError, TransformState
from repro.core.types import ANY_OP
from repro.dialects import arith, builtin, func, scf
from repro.execution.workloads import build_matmul_module
from repro.frontend import Schedule
from repro.ir import Block, Builder, INDEX, Operation
from repro.ir.core import register_op


def handle():
    """A fresh SSA value usable as a transform handle."""
    return Operation.create("test.handle", result_types=[ANY_OP]).result


def build_payload():
    module = builtin.module()
    f = func.func("f", [])
    module.body.append(f)
    builder = Builder.at_end(f.body)
    lb = arith.index_constant(builder, 0)
    ub = arith.index_constant(builder, 4)
    step = arith.index_constant(builder, 1)
    loop = scf.for_(builder, lb, ub, step)
    body = Builder.at_end(loop.body)
    inner = body.create("test.inner")
    scf.yield_(body)
    func.return_(builder)
    return module, f, loop, inner


class TestMapping:
    def test_set_get(self):
        module, f, loop, _inner = build_payload()
        state = TransformState(module)
        h = handle()
        state.set_payload(h, [loop])
        assert state.get_payload(h) == [loop]

    def test_unmapped_handle_raises(self):
        module, *_ = build_payload()
        state = TransformState(module)
        with pytest.raises(HandleInvalidatedError, match="unmapped"):
            state.get_payload(handle())

    def test_params(self):
        module, *_ = build_payload()
        state = TransformState(module)
        h = handle()
        state.set_param(h, [32, 32])
        assert state.get_param(h) == [32, 32]

    def test_get_payload_returns_copy(self):
        module, _f, loop, _inner = build_payload()
        state = TransformState(module)
        h = handle()
        state.set_payload(h, [loop])
        state.get_payload(h).append(None)
        assert state.get_payload(h) == [loop]


class TestInvalidation:
    def test_direct(self):
        module, _f, loop, _inner = build_payload()
        state = TransformState(module)
        h = handle()
        state.set_payload(h, [loop])
        state.invalidate(h, "'transform.loop.unroll'")
        with pytest.raises(HandleInvalidatedError, match="unroll"):
            state.get_payload(h)

    def test_nested_alias_invalidated(self):
        """Consuming the loop handle invalidates handles to nested ops."""
        module, _f, loop, inner = build_payload()
        state = TransformState(module)
        loop_handle, inner_handle = handle(), handle()
        state.set_payload(loop_handle, [loop])
        state.set_payload(inner_handle, [inner])
        state.invalidate(loop_handle, "consumed")
        with pytest.raises(HandleInvalidatedError, match="aliasing"):
            state.get_payload(inner_handle)

    def test_enclosing_handle_survives(self):
        """Consuming a nested handle keeps enclosing handles valid: the
        ancestors still exist, only their contents changed (§3.1)."""
        module, f, loop, inner = build_payload()
        state = TransformState(module)
        func_handle, inner_handle = handle(), handle()
        state.set_payload(func_handle, [f])
        state.set_payload(inner_handle, [inner])
        state.invalidate(inner_handle, "consumed")
        assert state.get_payload(func_handle) == [f]

    def test_disjoint_handle_survives(self):
        module, f, loop, _inner = build_payload()
        state = TransformState(module)
        loop_handle, other_handle = handle(), handle()
        other_op = f.body.ops[0]  # a constant, not nested in the loop
        state.set_payload(loop_handle, [loop])
        state.set_payload(other_handle, [other_op])
        state.invalidate(loop_handle, "consumed")
        assert state.get_payload(other_handle) == [other_op]

    def test_same_payload_aliases(self):
        module, _f, loop, _inner = build_payload()
        state = TransformState(module)
        first, second = handle(), handle()
        state.set_payload(first, [loop])
        state.set_payload(second, [loop])
        state.invalidate(first, "consumed")
        with pytest.raises(HandleInvalidatedError, match="aliasing"):
            state.get_payload(second)

    def test_remapping_clears_invalidation(self):
        module, _f, loop, _inner = build_payload()
        state = TransformState(module)
        h = handle()
        state.set_payload(h, [loop])
        state.invalidate(h, "consumed")
        state.set_payload(h, [loop])
        assert state.get_payload(h) == [loop]


class TestRewriteEvents:
    def test_erase_event_empties_mapping(self):
        module, _f, loop, inner = build_payload()
        state = TransformState(module)
        h = handle()
        state.set_payload(h, [inner])
        state.notify_op_erased(inner)
        assert state.get_payload(h) == []

    def test_replace_event_repoints_handle(self):
        module, f, loop, inner = build_payload()
        state = TransformState(module)
        h = handle()
        state.set_payload(h, [inner])
        replacement = Builder.before(inner).create(
            "test.replacement", result_types=[INDEX]
        )
        state.notify_op_replaced(inner, replacement.results)
        assert state.get_payload(h) == [replacement]

    def test_replace_with_non_op_value_drops(self):
        module, f, loop, inner = build_payload()
        state = TransformState(module)
        h = handle()
        state.set_payload(h, [inner])
        block = Block([INDEX])
        state.notify_op_replaced(inner, [block.args[0]])
        assert state.get_payload(h) == []

    def test_replace_event_repoints_duplicate_entries(self):
        """Regression (PR 1): a handle may legitimately map the same op
        more than once (e.g. via merging). The old index-based repoint
        walked stale indices after the first substitution, leaving later
        duplicates pointing at the erased op."""
        module, _f, loop, inner = build_payload()
        state = TransformState(module)
        other = Builder.before(inner).create("test.other")
        h = handle()
        state.set_payload(h, [inner, other, inner])
        replacement = Builder.before(inner).create(
            "test.replacement", result_types=[INDEX]
        )
        state.notify_op_replaced(inner, replacement.results)
        assert state.get_payload(h) == [replacement, other, replacement]

    def test_erase_event_drops_duplicate_entries(self):
        module, _f, loop, inner = build_payload()
        state = TransformState(module)
        other = Builder.before(inner).create("test.other")
        h = handle()
        state.set_payload(h, [inner, other, inner])
        state.notify_op_erased(inner)
        assert state.get_payload(h) == [other]

    def test_replace_event_only_touches_mapping_handles(self):
        """Handles not mapping the replaced op must be left alone (the
        reverse index makes this O(affected), but correctness first)."""
        module, f, loop, inner = build_payload()
        state = TransformState(module)
        h_inner, h_loop = handle(), handle()
        state.set_payload(h_inner, [inner])
        state.set_payload(h_loop, [loop])
        replacement = Builder.before(inner).create(
            "test.replacement", result_types=[INDEX]
        )
        state.notify_op_replaced(inner, replacement.results)
        assert state.get_payload(h_loop) == [loop]
        # And a second replacement chases the repointed index.
        final = Builder.before(replacement).create(
            "test.final", result_types=[INDEX]
        )
        state.notify_op_replaced(replacement, final.results)
        assert state.get_payload(h_inner) == [final]

    def test_invalidate_returns_alias_count(self):
        """invalidate() reports how many handles it newly killed: the
        consumed handle itself plus every alias."""
        module, _f, loop, inner = build_payload()
        state = TransformState(module)
        loop_handle, inner_handle, alias = handle(), handle(), handle()
        state.set_payload(loop_handle, [loop])
        state.set_payload(inner_handle, [inner])
        state.set_payload(alias, [loop])
        count = state.invalidate(loop_handle, "consumed")
        assert count == 3  # consumed + nested alias + direct alias
        # Re-invalidating already-dead handles reports zero new kills.
        assert state.invalidate(loop_handle, "consumed again") == 0

    def test_pattern_driver_integration(self):
        """Handles survive greedy pattern application (paper §3.1)."""
        from repro.rewrite.greedy import apply_patterns_greedily
        from repro.rewrite.pattern import pattern

        module, _f, loop, inner = build_payload()
        state = TransformState(module)
        h = handle()
        state.set_payload(h, [inner])

        @pattern("test.inner")
        def replace_inner(op, rewriter):
            new_op = rewriter.replace_op_with(op, "test.renamed")
            return True

        apply_patterns_greedily(module, [replace_inner],
                                extra_listeners=[state])
        payload = state.get_payload(h)
        assert len(payload) == 1
        assert payload[0].name == "test.renamed"


@register_op
class _ConsumePassthroughOp(TransformOp):
    """Consumes its operand and maps its result to the same payload."""

    NAME = "transform.test.consume_passthrough"
    CONSUMES = (0,)

    def apply(self, interpreter, state):
        state.set_payload(self.results[0], state.get_payload(self.operand(0)))
        return TransformResult.success()


@register_op
class _ConsumeToNestedOp(TransformOp):
    """Consumes its operand and maps its result to the first loop
    nested inside each of its payload ops."""

    NAME = "transform.test.consume_to_nested"
    CONSUMES = (0,)

    def apply(self, interpreter, state):
        state.set_payload(self.results[0], [
            next(op for op in loop.walk_ops("scf.for") if op is not loop)
            for loop in state.get_payload(self.operand(0))])
        return TransformResult.success()


@register_op
class _RecordingPairOp(TransformOp):
    """Two handle operands; records every ``apply``."""

    NAME = "transform.test.recording_pair"
    applied = []

    def apply(self, interpreter, state):
        type(self).applied.append(self)
        return TransformResult.success()


class TestConsumingOpResults:
    """A consuming op maps its results after invalidating its operands
    (upstream's order): results pointing at the consumed payload, or
    into it, survive — in the interpreter, the analysis and the
    builder alike."""

    @pytest.mark.parametrize("op_name", [_ConsumePassthroughOp.NAME,
                                         _ConsumeToNestedOp.NAME])
    def test_result_survives_its_own_consumption(self, op_name):
        script, builder, root = transform.sequence()
        outer = transform.match_op(builder, root, "scf.for",
                                   position="first")
        result = builder.create(op_name, operands=[outer],
                                result_types=[ANY_OP]).result
        transform.loop_unroll(builder, result, factor=2)
        transform.yield_(builder)
        assert analyze_script(script) == []
        assert not lint_script(script).errors
        payload = build_matmul_module(8, 4, 4)
        loops_before = len(list(payload.walk_ops("scf.for")))
        result = TransformInterpreter().apply(script, payload)
        assert result.succeeded
        assert len(list(payload.walk_ops("scf.for"))) > loops_before
        # The builder steps the same analysis: the operand dies, the
        # result stays usable.
        schedule = Schedule().match("scf.for", position="first")
        op = schedule._builder.create(
            op_name, operands=[schedule._cursor.value],
            result_types=[ANY_OP])
        stale = schedule._cursor
        schedule._cursor, = schedule._emit(op)
        assert not stale.live and schedule._cursor.live
        schedule.unroll(2)

    def test_invalidated_second_operand_fails_before_apply(self):
        script, builder, root = transform.sequence()
        funcs = transform.match_op(builder, root, "func.func")
        loop = transform.match_op(builder, root, "scf.for",
                                  position="first")
        transform.loop_unroll(builder, loop, factor=2)
        pair = builder.create(_RecordingPairOp.NAME,
                              operands=[funcs, loop])
        transform.yield_(builder)
        _RecordingPairOp.applied.clear()
        interpreter = TransformInterpreter()
        with pytest.raises(TransformInterpreterError) as excinfo:
            interpreter.apply(script, build_matmul_module(8, 4, 4))
        failure = excinfo.value.result
        assert failure.message == ("use of a handle invalidated by "
                                   "'transform.loop.unroll' consuming "
                                   "its operand")
        assert failure.transform_op is pair
        assert failure.backtrace == [script, pair]
        assert _RecordingPairOp.applied == []
