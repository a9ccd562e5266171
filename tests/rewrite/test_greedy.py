"""Tests for the greedy pattern rewrite driver."""

import gc
import weakref

import pytest

from repro.dialects import builtin, func
from repro.ir import Builder, I32, Operation
from repro.rewrite.greedy import (
    FrozenPatternSet,
    GreedyRewriteConfig,
    _Worklist,
    _WorklistListener,
    apply_patterns_greedily,
)
from repro.rewrite.pattern import pattern


def build_chain(n=3):
    """module { func { test.a -> test.a -> ... } }"""
    module = builtin.module()
    f = func.func("f", [])
    module.body.append(f)
    builder = Builder.at_end(f.body)
    for _ in range(n):
        builder.create("test.a")
    func.return_(builder)
    return module


@pattern("test.a", label="a-to-b")
def a_to_b(op, rewriter):
    new_op = rewriter.replace_op_with(op, "test.b")
    return True


@pattern("test.b", label="b-to-c")
def b_to_c(op, rewriter):
    rewriter.replace_op_with(op, "test.c")
    return True


class TestGreedyDriver:
    def test_applies_until_fixpoint(self):
        module = build_chain(3)
        changed = apply_patterns_greedily(module, [a_to_b, b_to_c])
        assert changed
        names = [op.name for op in module.walk()]
        assert names.count("test.c") == 3
        assert "test.a" not in names
        assert "test.b" not in names

    def test_no_change_returns_false(self):
        module = build_chain(0)
        assert not apply_patterns_greedily(module, [a_to_b])

    def test_new_ops_are_revisited(self):
        """a -> b happens first; b -> c must fire on the new op."""
        module = build_chain(1)
        apply_patterns_greedily(module, [a_to_b, b_to_c])
        assert any(op.name == "test.c" for op in module.walk())

    def test_benefit_ordering(self):
        fired = []

        @pattern("test.a", benefit=1, label="low")
        def low(op, rewriter):
            fired.append("low")
            rewriter.replace_op_with(op, "test.done")
            return True

        @pattern("test.a", benefit=10, label="high")
        def high(op, rewriter):
            fired.append("high")
            rewriter.replace_op_with(op, "test.done")
            return True

        module = build_chain(1)
        apply_patterns_greedily(module, [low, high])
        assert fired == ["high"]

    def test_generic_patterns_match_any_root(self):
        matched = []

        @pattern(label="any")
        def observe(op, rewriter):
            matched.append(op.name)
            return False

        module = build_chain(2)
        apply_patterns_greedily(module, [observe])
        assert "test.a" in matched
        assert "func.func" in matched

    def test_ping_pong_guard(self):
        @pattern("test.a", label="to-b")
        def to_b(op, rewriter):
            rewriter.replace_op_with(op, "test.b")
            return True

        @pattern("test.b", label="back-to-a")
        def back(op, rewriter):
            rewriter.replace_op_with(op, "test.a")
            return True

        module = build_chain(1)
        config = GreedyRewriteConfig(max_rewrites=50)
        with pytest.raises(RuntimeError, match="max_rewrites"):
            apply_patterns_greedily(module, [to_b, back], config)

    def test_extra_listener_sees_replacements(self):
        from repro.rewrite.pattern import RewriteListener

        class Recorder(RewriteListener):
            def __init__(self):
                self.replaced = []

            def notify_op_replaced(self, op, new_values):
                self.replaced.append(op.name)

        recorder = Recorder()
        module = build_chain(2)
        apply_patterns_greedily(module, [a_to_b],
                                extra_listeners=[recorder])
        assert recorder.replaced.count("test.a") == 2

    def test_accepts_frozen_pattern_set(self):
        frozen = FrozenPatternSet([a_to_b, b_to_c])
        module = build_chain(2)
        assert apply_patterns_greedily(module, frozen)
        names = [op.name for op in module.walk()]
        assert names.count("test.c") == 2
        # The same frozen set drives a second root unchanged.
        module2 = build_chain(1)
        assert apply_patterns_greedily(module2, frozen)


class TestErasedTracking:
    def test_erased_set_holds_strong_references(self):
        """Regression (PR 1): erased ops must be tracked by strong
        reference. The old driver stored bare ``id()``s; once an erased
        op was garbage-collected, its id could be recycled onto a
        brand-new op, which the driver then silently skipped."""
        listener = _WorklistListener(_Worklist())
        op = Operation.create("test.x")
        ref = weakref.ref(op)
        listener.notify_op_erased(op)
        del op
        gc.collect()
        # While tracked, the op stays alive, so its id cannot be reused.
        assert ref() is not None

    def test_new_ops_after_erasure_under_gc_pressure(self):
        """Ops created after an erasure (when the interpreter holds no
        other references and ids are prone to reuse) must be visited."""

        @pattern("test.a", label="erase-then-create")
        def erase_then_create(op, rewriter):
            rewriter.set_insertion_point_before(op)
            rewriter.erase_op(op)
            gc.collect()  # maximise the chance of id recycling
            rewriter.create("test.b")
            return True

        module = build_chain(4)
        apply_patterns_greedily(module, [erase_then_create, b_to_c])
        names = [op.name for op in module.walk()]
        assert names.count("test.c") == 4
        assert "test.a" not in names
        assert "test.b" not in names


class TestDeadCodeSweep:
    def build_dead_chain(self, n=4):
        """test.pure ops chained through operands, final result unused."""
        from repro.ir.core import OP_REGISTRY, Pure

        class PureOp(Operation):
            NAME = "test.pure"
            TRAITS = frozenset({Pure})

        OP_REGISTRY.setdefault("test.pure", PureOp)
        module = builtin.module()
        f = func.func("f", [])
        module.body.append(f)
        builder = Builder.at_end(f.body)
        value = None
        for _ in range(n):
            operands = [value] if value is not None else []
            value = builder.create(
                "test.pure", operands=operands, result_types=[I32]
            ).result
        func.return_(builder)
        return module

    def test_dead_chain_erased_without_patterns(self):
        """The driver folds whole dead chains via the worklist: erasing
        the unused tail re-enqueues its defs until the chain is gone."""
        module = self.build_dead_chain(5)
        changed = apply_patterns_greedily(module, [])
        assert changed
        assert not any(op.name == "test.pure" for op in module.walk())

    def test_ops_made_dead_by_rewrites_are_swept(self):
        """A rewrite that drops the last use must cascade into DCE."""

        @pattern("test.user", label="erase-user")
        def erase_user(op, rewriter):
            rewriter.erase_op(op)
            return True

        module = self.build_dead_chain(3)
        f = next(op for op in module.walk() if op.name == "func.func")
        chain_result = [
            op for op in module.walk() if op.name == "test.pure"
        ][-1].results[0]
        builder = Builder.before(f.body.ops[-1])
        builder.create("test.user", operands=[chain_result])
        assert apply_patterns_greedily(module, [erase_user])
        assert not any(op.name == "test.pure" for op in module.walk())
