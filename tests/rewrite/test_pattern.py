"""Tests for the pattern rewriter and listener events."""

import pytest

from repro.ir import Block, Builder, INDEX, Operation, index_attr
from repro.rewrite.pattern import (
    PatternRewriter,
    RewriteListener,
    RewritePattern,
    pattern,
)


def const(value=0):
    return Operation.create(
        "arith.constant", result_types=[INDEX],
        attributes={"value": index_attr(value)},
    )


class RecordingListener(RewriteListener):
    def __init__(self):
        self.events = []

    def notify_op_inserted(self, op):
        self.events.append(("insert", op.name))

    def notify_op_replaced(self, op, new_values):
        self.events.append(("replace", op.name, len(new_values)))

    def notify_op_erased(self, op):
        self.events.append(("erase", op.name))

    def notify_op_modified(self, op):
        self.events.append(("modify", op.name))


class TestPatternRewriter:
    def test_insert_notifies(self):
        listener = RecordingListener()
        rewriter = PatternRewriter([listener])
        block = Block()
        rewriter.set_insertion_point_to_start(block)
        rewriter.create("test.op")
        assert ("insert", "test.op") in listener.events

    def test_erase_notifies(self):
        listener = RecordingListener()
        rewriter = PatternRewriter([listener])
        block = Block()
        op = block.append(Operation.create("test.op"))
        rewriter.erase_op(op)
        assert ("erase", "test.op") in listener.events
        assert not block.ops

    def test_replace_rauw_and_notifies(self):
        listener = RecordingListener()
        rewriter = PatternRewriter([listener])
        block = Block()
        a = block.append(const(1))
        b = block.append(const(2))
        user = block.append(
            Operation.create("test.use", operands=[a.result])
        )
        rewriter.replace_op(a, [b.result])
        assert user.operand(0) is b.result
        assert ("replace", "arith.constant", 1) in listener.events
        assert a not in block.ops

    def test_replace_op_with(self):
        rewriter = PatternRewriter()
        block = Block()
        a = block.append(const(1))
        user = block.append(
            Operation.create("test.use", operands=[a.result])
        )
        new_op = rewriter.replace_op_with(
            a, "test.new", result_types=[INDEX]
        )
        assert user.operand(0) is new_op.result
        assert block.ops[0] is new_op

    def test_modify_in_place_notifies(self):
        listener = RecordingListener()
        rewriter = PatternRewriter([listener])
        op = Operation.create("test.op")
        rewriter.modify_op_in_place(op, lambda: op.set_attr("x", 1))
        assert op.attr("x").value == 1
        assert ("modify", "test.op") in listener.events

    def test_inline_block_before(self):
        rewriter = PatternRewriter()
        target = Block()
        anchor = target.append(Operation.create("test.anchor"))
        source = Block([INDEX])
        inner = source.append(
            Operation.create("test.inner", operands=[source.args[0]])
        )
        replacement = const(3)
        rewriter.inline_block_before(source, anchor, [replacement.result])
        assert target.ops == [inner, anchor]
        assert inner.operand(0) is replacement.result

    def test_inline_block_arg_mismatch(self):
        rewriter = PatternRewriter()
        target = Block()
        anchor = target.append(Operation.create("test.anchor"))
        source = Block([INDEX])
        with pytest.raises(ValueError, match="argument count"):
            rewriter.inline_block_before(source, anchor, [])


class TestPatternDecorator:
    def test_wraps_function(self):
        @pattern("test.root", benefit=3, label="my-pattern")
        def rewrite(op, rewriter):
            return False

        assert isinstance(rewrite, RewritePattern)
        assert rewrite.root_name == "test.root"
        assert rewrite.benefit == 3
        assert rewrite.label == "my-pattern"

    def test_default_label_is_function_name(self):
        @pattern()
        def some_rewrite(op, rewriter):
            return False

        assert some_rewrite.label == "some_rewrite"
