"""Tests for transactional transform execution (§3.4, Fig. 8).

Covers :class:`~repro.core.transaction.PayloadTransaction` directly and
its integration into ``transform.alternatives``: payload and handle
state roll back together, result handles map from the winning region's
yield, handles into the payload survive a rollback, and a scoped
``alternatives`` leaves no def-use link behind. A rollback replays the
thread's undo log, so ops keep their identity, nested transactions
finish innermost first, and no apply leaves a log open (the autouse
``no_open_undo_log`` fixture checks that after every test).
"""

import threading

import pytest

from repro.core import dialect as transform
from repro.core.dialect import TransformOp
from repro.core.interpreter import TransformInterpreter
from repro.core.state import HandleInvalidatedError, TransformState
from repro.core.transaction import PayloadTransaction, TransactionError
from repro.execution.workloads import build_matmul_module
from repro.ir import I32, Block, Builder, op_digest, parse
from repro.ir.core import JOURNAL, register_op
from repro.ir.printer import print_op


def loops_of(module):
    return [op for op in module.walk() if op.name == "scf.for"]


class TestPayloadTransaction:
    def test_rollback_restores_payload_bytes(self):
        payload = build_matmul_module(2, 2, 2)
        state = TransformState(payload)
        before = print_op(payload)
        txn = PayloadTransaction(state)
        loops_of(payload)[0].set_attr("mutated", 1)
        assert print_op(payload) != before
        txn.rollback()
        assert print_op(payload) == before

    def test_commit_keeps_changes(self):
        payload = build_matmul_module(2, 2, 2)
        state = TransformState(payload)
        txn = PayloadTransaction(state)
        loops_of(payload)[0].set_attr("mutated", 1)
        after = print_op(payload)
        txn.commit()
        assert print_op(payload) == after

    def test_rollback_restores_handle_state(self):
        payload = build_matmul_module(2, 2, 2)
        state = TransformState(payload)
        root_handle = object()
        state.set_payload(root_handle, [payload])
        txn = PayloadTransaction(state)
        extra = object()
        state.set_payload(extra, loops_of(payload)[:1])
        txn.rollback()
        # The handle created inside the transaction is gone; the
        # pre-existing one still resolves.
        with pytest.raises(HandleInvalidatedError):
            state.get_payload(extra)
        assert state.get_payload(root_handle) == [payload]

    def test_context_manager_rolls_back_on_error(self):
        payload = build_matmul_module(2, 2, 2)
        state = TransformState(payload)
        before = print_op(payload)
        with pytest.raises(RuntimeError, match="boom"):
            with PayloadTransaction(state):
                loops_of(payload)[0].set_attr("mutated", 1)
                raise RuntimeError("boom")
        assert print_op(payload) == before


@register_op
class _RaiseOp(TransformOp):
    """Testing aid: apply() raises an arbitrary Python exception."""

    NAME = "transform.test.raise"

    def apply(self, interpreter, state):
        raise ZeroDivisionError("escapes the region")


class TestUndoLog:
    def test_inner_commit_outer_rollback_restores_the_same_ops(self):
        payload = build_matmul_module(2, 2, 2)
        state = TransformState(payload)
        before, ops = print_op(payload), list(payload.walk())
        outer = PayloadTransaction(state)
        loops_of(payload)[0].set_attr("outer", 1)
        inner = PayloadTransaction(state)
        load = next(payload.walk_ops("memref.load"))
        load.set_operand(1, load.operand(2))
        next(payload.walk_ops("memref.store")).erase()
        inner.commit()
        assert JOURNAL.log is not None
        outer.rollback()
        assert JOURNAL.log is None
        assert print_op(payload) == before
        after = list(payload.walk())
        assert len(after) == len(ops)
        assert all(a is b for a, b in zip(after, ops))

    def test_the_outer_transaction_cannot_finish_first(self):
        state = TransformState(build_matmul_module(2, 2, 2))
        outer = PayloadTransaction(state)
        inner = PayloadTransaction(state)
        with pytest.raises(TransactionError, match="nested"):
            outer.rollback()
        inner.commit()
        outer.commit()
        with pytest.raises(TransactionError, match="finished"):
            outer.rollback()

    def test_an_exception_escaping_a_region_keeps_its_writes(self):
        payload = build_matmul_module(2, 2, 2)
        script, builder, root = transform.sequence()
        alts = transform.alternatives(builder, 2)
        region = Builder.at_end(alts.regions[0].entry_block)
        loop = transform.match_op(region, root, "scf.for",
                                  position="first")
        transform.annotate(region, loop, "left_by_the_region")
        region.create("transform.test.raise")
        transform.yield_(builder)
        with pytest.raises(ZeroDivisionError, match="escapes the region"):
            TransformInterpreter(strict=True).apply(script, payload)
        assert JOURNAL.log is None
        assert "left_by_the_region" in loops_of(payload)[0].attributes

    def test_another_threads_writes_are_not_undone(self):
        payload = build_matmul_module(2, 2, 2)
        before = print_op(payload)
        transaction = PayloadTransaction(TransformState(payload))
        loops_of(payload)[0].set_attr("thread_a", 1)
        edited = {}

        def edit_elsewhere():
            module = parse(print_op(build_matmul_module(2, 2, 2)))
            loops_of(module)[0].set_attr("thread_b", 1)
            next(module.walk_ops("memref.store")).erase()
            edited["module"], edited["print"] = module, print_op(module)
            edited["log"] = JOURNAL.log

        thread = threading.Thread(target=edit_elsewhere)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        transaction.rollback()
        assert edited["log"] is None
        assert print_op(payload) == before
        assert print_op(edited["module"]) == edited["print"]

    def test_a_rollback_restores_the_digest(self):
        payload = build_matmul_module(2, 2, 2)
        before, first = print_op(payload), op_digest(payload)
        transaction = PayloadTransaction(TransformState(payload))
        loop = loops_of(payload)[0]
        body = loop.regions[0].entry_block
        loop.set_attr("mid", 1)
        body.add_arg(loop.operand(0).type)
        body.args[0].set_type(I32)
        middle = op_digest(payload)
        body.set_args([])
        transaction.rollback()
        assert middle != first
        assert op_digest(payload) == first
        assert print_op(payload) == before


class TestAlternativesRollback:
    def _run(self, payload, script):
        return TransformInterpreter().apply(script, payload)

    def test_failed_alternative_leaves_payload_byte_identical(self):
        payload = build_matmul_module(4, 4, 4)
        before = print_op(payload)
        script, builder, root = transform.sequence()
        alts = transform.alternatives(builder, 2)
        first = Builder.at_end(alts.regions[0].entry_block)
        loop = transform.match_op(first, root, "scf.for", position="first")
        transform.loop_unroll(first, loop, full=True)
        first.create("transform.test.emit_silenceable",
                     attributes={"message": "reject attempt 1"})
        transform.yield_(first)
        transform.yield_(Builder.at_end(alts.regions[1].entry_block))
        transform.yield_(builder)
        result = self._run(payload, script)
        assert result.succeeded
        assert print_op(payload) == before

    def test_second_alternative_sees_restored_payload(self):
        payload = build_matmul_module(4, 4, 4)
        n_loops = len(loops_of(payload))
        script, builder, root = transform.sequence()
        alts = transform.alternatives(builder, 2)
        first = Builder.at_end(alts.regions[0].entry_block)
        loop = transform.match_op(first, root, "scf.for", position="first")
        transform.loop_unroll(first, loop, full=True)
        first.create("transform.test.emit_silenceable")
        transform.yield_(first)
        second = Builder.at_end(alts.regions[1].entry_block)
        # Counts loops in the *restored* payload: position="second"
        # only exists if the unroll from region 1 was rolled back.
        inner = transform.match_op(second, root, "scf.for",
                                   position="second")
        transform.annotate(second, inner, "chosen", 1)
        transform.yield_(second)
        transform.yield_(builder)
        result = self._run(payload, script)
        assert result.succeeded
        assert len(loops_of(payload)) == n_loops
        assert loops_of(payload)[1].attr("chosen") is not None

    def test_nested_alternatives_roll_back_independently(self):
        payload = build_matmul_module(4, 4, 4)
        before = print_op(payload)
        script, builder, root = transform.sequence()
        outer = transform.alternatives(builder, 2)
        first = Builder.at_end(outer.regions[0].entry_block)
        # Inner alternatives whose only region mutates then fails: the
        # inner rollback restores the payload, and the inner op itself
        # reports silenceably, which makes the *outer* region 1 fail
        # and roll back too.
        inner_alts = transform.alternatives(first, 1)
        inner = Builder.at_end(inner_alts.regions[0].entry_block)
        loop = transform.match_op(inner, root, "scf.for", position="first")
        transform.loop_unroll(inner, loop, full=True)
        inner.create("transform.test.emit_silenceable")
        transform.yield_(inner)
        loop2 = transform.match_op(first, root, "scf.for",
                                   position="first")
        transform.loop_unroll(first, loop2, factor=2)
        first.create("transform.test.emit_silenceable")
        transform.yield_(first)
        transform.yield_(Builder.at_end(outer.regions[1].entry_block))
        transform.yield_(builder)
        result = self._run(payload, script)
        assert result.succeeded
        assert print_op(payload) == before

    def test_handle_into_subtree_survives_rollback(self):
        payload = build_matmul_module(4, 4, 4)
        script, builder, root = transform.sequence()
        # Created BEFORE the alternatives, pointing deep into the
        # subtree the transaction clones and restores.
        load = transform.match_op(builder, root, "memref.load",
                                  position="first")
        alts = transform.alternatives(builder, 2)
        first = Builder.at_end(alts.regions[0].entry_block)
        loop = transform.match_op(first, root, "scf.for", position="first")
        transform.loop_unroll(first, loop, full=True)
        first.create("transform.test.emit_silenceable")
        transform.yield_(first)
        transform.yield_(Builder.at_end(alts.regions[1].entry_block))
        # After rollback the old handle must still resolve and point at
        # an op that is attached to the payload tree.
        transform.annotate(builder, load, "survived", 1)
        transform.yield_(builder)
        result = self._run(payload, script)
        assert result.succeeded
        marked = [op for op in payload.walk()
                  if op.attr("survived") is not None]
        assert [op.name for op in marked] == ["memref.load"]

    def test_result_handles_map_from_winning_region(self):
        """Regression: alternatives results were never mapped, so a
        consumer of the result handle crashed on an unknown handle."""
        payload = build_matmul_module(4, 4, 4)
        script, builder, root = transform.sequence()
        alts = transform.alternatives(builder, 2, n_results=1)
        first = Builder.at_end(alts.regions[0].entry_block)
        first.create("transform.test.emit_silenceable")
        transform.yield_(first)
        second = Builder.at_end(alts.regions[1].entry_block)
        loop = transform.match_op(second, root, "scf.for",
                                  position="first")
        transform.yield_(second, [loop])
        # Consume the alternatives result outside the op.
        transform.annotate(builder, alts.results[0], "via_result", 1)
        transform.yield_(builder)
        result = self._run(payload, script)
        assert result.succeeded
        marked = [op for op in payload.walk()
                  if op.attr("via_result") is not None]
        assert [op.name for op in marked] == ["scf.for"]


def stray_uses(module):
    """Uses of values defined in ``module`` by ops not attached under
    it: def-use links a discarded clone never dropped."""
    return [use for op in module.walk()
            for value in [*op.results, *(arg for region in op.regions
                                         for block in region.blocks
                                         for arg in block.args)]
            for use in value.uses if not module.is_ancestor_of(use.owner)]


def annotate_loop(wrap):
    """Annotate the first loop — inside ``alternatives %loop`` with
    ``wrap`` — then fully unroll it and canonicalize."""
    script, builder, root = transform.sequence()
    loop = transform.match_op(builder, root, "scf.for", position="first")
    inner = builder
    if wrap:
        alts = transform.alternatives(builder, 1, scope=loop)
        inner = Builder.at_end(alts.regions[0].entry_block)
    transform.annotate(inner, loop, "seen")
    transform.loop_unroll(builder, loop, full=True)
    transform.apply_registered_pass(builder, root, "canonicalize",
                                    with_result=False)
    transform.yield_(builder)
    return script


class TestScopedAlternatives:
    """A scoped ``alternatives`` leaves no use of a live value behind,
    a nested unscoped one keeps the outer scope, and a later region or
    an enclosing ``foreach`` runs on the same ops after a rollback."""

    @pytest.mark.parametrize("fail", [False, True])
    def test_no_stray_uses_after_the_region(self, fail):
        payload = build_matmul_module(2, 2, 2)
        script, builder, root = transform.sequence()
        loop = transform.match_op(builder, root, "scf.for",
                                  position="first")
        alts = transform.alternatives(builder, 2, scope=loop)
        region = Builder.at_end(alts.regions[0].entry_block)
        transform.annotate(region, loop, "seen")
        if fail:
            region.create("transform.test.emit_silenceable")
        transform.yield_(builder)
        assert TransformInterpreter().apply(script, payload).succeeded
        assert stray_uses(payload) == []

    def test_canonicalize_sees_no_phantom_uses(self):
        plain, wrapped = (build_matmul_module(2, 2, 2) for _ in range(2))
        TransformInterpreter().apply(annotate_loop(wrap=False), plain)
        TransformInterpreter().apply(annotate_loop(wrap=True), wrapped)
        assert print_op(wrapped) == print_op(plain)

    def test_nested_unscoped_rollback_keeps_the_outer_scope(self):
        payload = build_matmul_module(2, 2, 2)
        before = print_op(payload)
        script, builder, root = transform.sequence()
        loop = transform.match_op(builder, root, "scf.for",
                                  position="first")
        outer = transform.alternatives(builder, 2, scope=loop)
        first = Builder.at_end(outer.regions[0].entry_block)
        inner = transform.alternatives(first, 2)
        Builder.at_end(inner.regions[0].entry_block).create(
            "transform.test.emit_silenceable")
        transform.annotate(first, loop, "failed_region")
        first.create("transform.test.emit_silenceable")
        transform.yield_(builder)
        assert TransformInterpreter().apply(script, payload).succeeded
        assert print_op(payload) == before


    @pytest.mark.parametrize("nested", [False, True])
    def test_a_later_region_runs_on_the_restored_scope(self, nested):
        payload = build_matmul_module(2, 2, 2)
        script, builder, root = transform.sequence()
        loop = transform.match_op(builder, root, "scf.for",
                                  position="first")
        alts = transform.alternatives(builder, 2, scope=loop)
        for region, name in zip(alts.regions, ("first", "second")):
            block = region.entry_block
            region_builder = Builder.at_end(block)
            transform.annotate(region_builder,
                               block.add_arg(transform.ANY_OP), name)
            if name == "first":
                if nested:
                    # Rolled back twice, inner first: the scope follows.
                    inner = transform.alternatives(region_builder, 2)
                    Builder.at_end(inner.regions[0].entry_block).create(
                        "transform.test.emit_silenceable")
                region_builder.create("transform.test.emit_silenceable")
        transform.yield_(builder)
        assert TransformInterpreter().apply(script, payload).succeeded
        marked = [op for op in loops_of(payload) if "second" in op.attributes]
        assert marked == loops_of(payload)[:1]
        assert "first" not in print_op(payload)

    def test_foreach_follows_a_rollback_in_its_body(self):
        payload = build_matmul_module(2, 2, 2)
        script, builder, root = transform.sequence()
        loops = transform.match_op(builder, root, "scf.for")
        each = builder.create("transform.foreach", operands=[loops],
                              result_types=[transform.ANY_OP], regions=1)
        body = each.regions[0].add_block(Block([transform.ANY_OP]))
        body_builder = Builder.at_end(body)
        elem = body.args[0]
        alts = transform.alternatives(body_builder, 2, scope=elem)
        Builder.at_end(alts.regions[0].entry_block).create(
            "transform.test.emit_silenceable")
        transform.annotate(body_builder, elem, "done")
        transform.yield_(body_builder, [elem])
        transform.annotate(builder, each.results[0], "gathered")
        transform.yield_(builder)
        assert TransformInterpreter().apply(script, payload).succeeded
        assert all({"done", "gathered"} <= set(op.attributes)
                   for op in loops_of(payload))


class TestDestroyedMidIteration:
    def test_unroll_of_whole_nest_fails_silenceably(self):
        """Fuzzer-found regression: a handle matching every loop of a
        nest crashes ``loop.unroll {full}`` with an IndexError once the
        outer unroll destroys the inner loops. It must be a clean
        silenceable failure instead."""
        payload = build_matmul_module(2, 2, 2)
        script, builder, root = transform.sequence()
        nest = transform.match_op(builder, root, "scf.for", position="all")
        transform.loop_unroll(builder, nest, full=True)
        transform.yield_(builder)
        result = TransformInterpreter().apply(script, payload)
        assert result.is_silenceable
        assert "destroyed while processing" in result.message
        payload.verify()

    def test_tile_of_whole_nest_fails_silenceably(self):
        payload = build_matmul_module(4, 4, 4)
        script, builder, root = transform.sequence()
        nest = transform.match_op(builder, root, "scf.for", position="all")
        transform.loop_tile(builder, nest, [2, 2])
        transform.yield_(builder)
        result = TransformInterpreter().apply(script, payload)
        assert result.is_silenceable
        assert "destroyed while processing" in result.message
        payload.verify()

    def test_recoverable_inside_alternatives(self):
        """The silenceable classification matters: inside alternatives
        the whole-nest unroll rolls back and the fallback runs."""
        payload = build_matmul_module(2, 2, 2)
        before = print_op(payload)
        script, builder, root = transform.sequence()
        alts = transform.alternatives(builder, 2)
        first = Builder.at_end(alts.regions[0].entry_block)
        nest = transform.match_op(first, root, "scf.for", position="all")
        transform.loop_unroll(first, nest, full=True)
        transform.yield_(first)
        transform.yield_(Builder.at_end(alts.regions[1].entry_block))
        transform.yield_(builder)
        result = TransformInterpreter().apply(script, payload)
        assert result.succeeded
        assert print_op(payload) == before
