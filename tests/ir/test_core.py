"""Tests for the core IR objects: values, operations, blocks, regions."""

import pytest

import repro.dialects  # noqa: F401 — registers func.func's traits
from repro.ir import (
    Block,
    Builder,
    F32,
    I32,
    INDEX,
    IsTerminator,
    Operation,
    Pure,
    Region,
    index_attr,
    op_digest,
)
from repro.ir.core import OP_REGISTRY, register_op


def make_const(value=0):
    return Operation.create(
        "arith.constant", result_types=[INDEX],
        attributes={"value": index_attr(value)},
    )


class TestOperationBasics:
    def test_create_unregistered(self):
        op = Operation.create("test.unknown", result_types=[I32])
        assert type(op) is Operation
        assert op.name == "test.unknown"

    def test_create_registered_dispatches_class(self):
        op = make_const()
        assert type(op).__name__ == "ConstantOp"
        assert op.value == 0

    def test_result_accessor(self):
        op = make_const()
        assert op.result is op.results[0]

    def test_result_accessor_requires_single(self):
        op = Operation.create("test.multi", result_types=[I32, I32])
        with pytest.raises(ValueError):
            op.result

    def test_attributes(self):
        op = Operation.create("test.op", attributes={"flag": True})
        assert op.attr("flag").value is True
        op.set_attr("n", 3)
        assert op.attr("n").value == 3

    def test_has_trait(self):
        const = make_const()
        assert const.has_trait(Pure)
        assert not const.has_trait(IsTerminator)


class TestUseDefChains:
    def test_uses_tracked(self):
        const = make_const()
        user = Operation.create("test.use", operands=[const.result])
        assert const.result.has_uses()
        assert const.result.users == [user]

    def test_replace_all_uses(self):
        a, b = make_const(1), make_const(2)
        user = Operation.create("test.use", operands=[a.result, a.result])
        a.result.replace_all_uses_with(b.result)
        assert user.operands == [b.result, b.result]
        assert not a.result.has_uses()
        assert len(b.result.uses) == 2

    def test_set_operand(self):
        a, b = make_const(1), make_const(2)
        user = Operation.create("test.use", operands=[a.result])
        user.set_operand(0, b.result)
        assert not a.result.has_uses()
        assert user.operand(0) is b.result

    def test_replace_uses_where(self):
        a, b = make_const(1), make_const(2)
        first = Operation.create("test.one", operands=[a.result])
        second = Operation.create("test.two", operands=[a.result])
        a.result.replace_uses_where(
            b.result, lambda use: use.owner is first
        )
        assert first.operand(0) is b.result
        assert second.operand(0) is a.result

    def test_has_one_use(self):
        a = make_const()
        Operation.create("test.use", operands=[a.result])
        assert len(a.result.uses) == 1


class TestErase:
    def test_erase_refuses_with_uses(self):
        a = make_const()
        block = Block()
        block.append(a)
        Operation.create("test.use", operands=[a.result])
        with pytest.raises(ValueError):
            a.erase()

    def test_erase_drops_operand_uses(self):
        a = make_const()
        block = Block()
        block.append(a)
        user = block.append(Operation.create("test.use",
                                             operands=[a.result]))
        user.erase()
        assert not a.result.has_uses()
        assert len(block.ops) == 1

    def test_erase_nested_drops_references(self):
        a = make_const()
        block = Block()
        block.append(a)
        outer = block.append(Operation.create("test.region", regions=1))
        inner_block = outer.regions[0].add_block()
        inner_block.append(
            Operation.create("test.use", operands=[a.result])
        )
        outer.erase()
        assert not a.result.has_uses()

    def test_an_erased_leaf_op_is_freed_without_the_collector(self):
        import gc
        import weakref

        block = Block()
        a = block.append(make_const(7))
        result = a.result
        a.erase()
        # Still readable while held; its result has no defining op.
        assert a.name == "arith.constant"
        assert a.attributes["value"] == index_attr(7)
        assert result.type is INDEX
        assert result.defining_op() is None and result.owner is None
        assert repr(result) == "<OpResult #0 of an erased op>"
        watched = weakref.ref(a)
        gc.disable()
        try:
            del a
            assert watched() is None
        finally:
            gc.enable()


class TestDestroy:
    def test_destroy_frees_the_tree_without_the_collector(self):
        import gc
        import weakref

        module = Operation.create("test.module", regions=1)
        block = module.regions[0].add_block(Block([INDEX]))
        a = block.append(make_const())
        loop = block.append(Operation.create(
            "test.loop", operands=[a.result, block.args[0]], regions=1))
        inner = loop.regions[0].add_block()
        inner.append(Operation.create("test.use", operands=[a.result]))
        watched = [weakref.ref(obj) for obj in (
            module, block, a, loop, inner, inner.ops[0])]
        gc.collect()
        gc.disable()
        try:
            module.destroy()
            del module, block, a, loop, inner
            assert [ref() for ref in watched] == [None] * len(watched)
        finally:
            gc.enable()

    def test_destroying_a_clone_leaves_the_original_whole(self):
        original = Operation.create("test.module", regions=1)
        block = original.regions[0].add_block()
        a = block.append(make_const(3))
        block.append(Operation.create("test.use", operands=[a.result]))
        original.clone().destroy()
        assert [op.name for op in original.walk()] == \
            ["test.module", "arith.constant", "test.use"]
        assert len(a.result.uses) == 1


class TestClone:
    def test_clone_remaps_operands(self):
        a, b = make_const(1), make_const(2)
        user = Operation.create("test.use", operands=[a.result])
        clone = user.clone({a.result: b.result})
        assert clone.operand(0) is b.result
        assert clone is not user

    def test_clone_regions_and_block_args(self):
        outer = Operation.create("test.loop", regions=1)
        body = outer.regions[0].add_block(Block([INDEX]))
        inner = body.append(
            Operation.create("test.use", operands=[body.args[0]])
        )
        clone = outer.clone()
        new_body = clone.regions[0].entry_block
        assert len(new_body.args) == 1
        assert new_body.ops[0].operand(0) is new_body.args[0]
        assert new_body.ops[0] is not inner

    def test_clone_extends_value_map_with_results(self):
        a = make_const()
        value_map = {}
        clone = a.clone(value_map)
        assert value_map[a.result] is clone.result


class TestStructure:
    def build_nested(self):
        outer = Operation.create("test.outer", regions=1)
        block = outer.regions[0].add_block()
        inner = block.append(Operation.create("test.inner"))
        return outer, block, inner

    def test_parent_op(self):
        outer, _block, inner = self.build_nested()
        assert inner.parent_op is outer
        assert outer.parent_op is None

    def test_is_ancestor_of(self):
        outer, _block, inner = self.build_nested()
        assert outer.is_ancestor_of(inner)
        assert outer.is_ancestor_of(outer)
        assert not inner.is_ancestor_of(outer)

    def test_is_before_in_block(self):
        block = Block()
        a = block.append(make_const(1))
        b = block.append(make_const(2))
        assert a.is_before_in_block(b)
        assert not b.is_before_in_block(a)

    def test_move_before_after(self):
        block = Block()
        a = block.append(make_const(1))
        b = block.append(make_const(2))
        b.move_before(a)
        assert block.ops == [b, a]
        a.move_before(b)
        assert block.ops == [a, b]

    def test_walk_preorder(self):
        outer, _block, inner = self.build_nested()
        assert [op.name for op in outer.walk()] == [
            "test.outer", "test.inner"
        ]

    def test_walk_reverse(self):
        block = Block()
        block.append(make_const(1))
        block.append(make_const(2))
        holder = Operation.create("test.holder", regions=1)
        holder.regions[0].add_block(block)
        names = [
            op.attr("value").value
            for op in holder.walk(reverse=True)
            if op.name == "arith.constant"
        ]
        assert names == [2, 1]


class TestBlock:
    def test_add_arg(self):
        block = Block([INDEX])
        arg = block.add_arg(F32)
        assert arg.index == 1
        assert block.args[1] is arg

    def test_insert_before_after(self):
        block = Block()
        a = block.append(make_const(1))
        b = make_const(2)
        block.insert_before(a, b)
        assert block.ops == [b, a]
        c = make_const(3)
        block.insert_after(b, c)
        assert block.ops == [b, c, a]

    def test_append_reparents(self):
        block_a, block_b = Block(), Block()
        op = block_a.append(make_const())
        block_b.append(op)
        assert op.parent is block_b
        assert not block_a.ops

    def test_terminator(self):
        block = Block()
        assert block.terminator is None
        block.append(Operation.create("func.return"))
        assert block.terminator is not None


def _module_of_functions(count):
    """A ``builtin.module`` of ``count`` ``func.func`` ops with one
    empty block each: once hashed, the module and its functions hold
    digests."""
    module = Operation.create("builtin.module", regions=1)
    top = module.regions[0].add_block()
    functions = [top.append(Operation.create("func.func", regions=1))
                 for _ in range(count)]
    blocks = [function.regions[0].add_block() for function in functions]
    return module, functions, blocks


def _op_list_world():
    """A module ``root`` holding two functions: one with the target
    block ``T`` = ``[a, b, c]`` (``c`` a terminator) and an empty block
    ``E``, one with the source block ``S`` = ``[x, y]``; plus a detached
    op ``n`` and a detached empty block ``D``."""
    from repro.rewrite.pattern import PatternRewriter

    root, _, blocks = _module_of_functions(2)
    world = {"root": root, "D": Block(), "rewriter": PatternRewriter()}
    for block, holder, names in zip(blocks, "TS", ("abc", "xy")):
        world[holder] = block
        for value, name in enumerate(names):
            world[name] = block.append(
                Operation.create("func.return") if name == "c"
                else make_const(value))
    world["E"] = world["T"].parent.add_block()
    world["n"] = make_const(9)
    return world


#: ``mutation -> T | S | E`` afterwards, in the names of
#: ``_op_list_world``: every mutator at the head, in the middle and at
#: the tail of a block, on an empty block, and moving across blocks.
_MUTATIONS = """
    E.append(n) -> abc | xy | n
    T.append(n) -> abcn | xy |
    T.append(a) -> bca | xy |
    T.append(b) -> acb | xy |
    T.append(c) -> abc | xy |
    T.append(x) -> abcx | y |
    E.insert(0, n) -> abc | xy | n
    T.insert(0, n) -> nabc | xy |
    T.insert(1, n) -> anbc | xy |
    T.insert(3, n) -> abcn | xy |
    T.insert(1, y) -> aybc | x |
    T.insert_before(a, n) -> nabc | xy |
    T.insert_before(b, n) -> anbc | xy |
    T.insert_before(c, n) -> abnc | xy |
    T.insert_before(b, x) -> axbc | y |
    T.insert_after(a, n) -> anbc | xy |
    T.insert_after(b, n) -> abnc | xy |
    T.insert_after(c, n) -> abcn | xy |
    T.insert_after(c, y) -> abcy | x |
    T.insert_before(None, n) -> abcn | xy |
    E.insert_before(None, a) -> bc | xy | a
    T.remove(a) -> bc | xy |
    T.remove(b) -> ac | xy |
    T.remove(c) -> ab | xy |
    a.erase() -> bc | xy |
    b.erase() -> ac | xy |
    c.erase() -> ab | xy |
    c.move_before(a) -> cab | xy |
    a.move_before(c) -> bac | xy |
    x.move_before(a) -> xabc | y |
    E.append(x) -> abc | y | x
    rewriter.inline_block_before(S, a) -> xyabc | |
    rewriter.inline_block_before(S, b) -> axybc | |
    rewriter.inline_block_before(S, c) -> abxyc | |
    rewriter.inline_block_before(D, b) -> abc | xy |
"""


class TestOpListMutators:
    @pytest.mark.parametrize(
        "row", [row.strip() for row in _MUTATIONS.strip().splitlines()])
    def test_every_mutator_at_every_position(self, row):
        from repro.testing.fuzz import op_list_violations

        mutation, after = row.split(" -> ")
        world = _op_list_world()
        root = world["root"]
        eval(mutation, {}, world)

        for block, names in zip("TSE", after.split("|")):
            block = world[block]
            expected = [world[name] for name in names.strip()]
            # Forward links == backward links reversed == the memo:
            assert op_list_violations(root) == []
            assert block.ops == expected
            assert list(block) == list(reversed(block.ops))[::-1] == expected
            assert [op.prev_op for op in expected[1:]] == expected[:-1]
            assert [op.next_op for op in expected[:-1]] == expected[1:]
            assert all(op.parent is block for op in expected)
            assert len(block) == len(block.ops) == len(expected)
            if expected:
                assert block.ops[-1] is expected[-1]
                assert block.ops[0] is expected[0]
                assert block.ops[1:3] == expected[1:3]
                assert block.ops.index(expected[-1]) == len(expected) - 1
                assert expected[0] in block.ops
                assert all(
                    first.is_before_in_block(second)
                    and not second.is_before_in_block(first)
                    for first, second in zip(expected, expected[1:]))
            is_return = bool(expected) and expected[-1].name == "func.return"
            assert block.terminator is (expected[-1] if is_return else None)
        attached = world["T"].ops + world["S"].ops + world["E"].ops
        for op in (world[name] for name in "abcxyn"):
            if op not in attached:
                assert (op.parent, op.prev_op, op.next_op) == (None,) * 3
        assert op_list_violations(root) == []

    @pytest.mark.parametrize(
        "row", [row.strip() for row in _MUTATIONS.strip().splitlines()])
    def test_every_mutator_is_undone(self, row):
        """A rollback puts back the same op, value and use objects in
        the same order, the same links and the same digest."""
        from repro.core.state import TransformState
        from repro.core.transaction import PayloadTransaction
        from repro.testing.fuzz import _identity, op_list_violations

        world = _op_list_world()
        root, detached = world["root"], world["n"]
        blocks = {name: list(world[name].ops) for name in "TSED"}
        objects, digest = _identity(root), op_digest(root)
        transaction = PayloadTransaction(TransformState(root))
        eval(row.split(" -> ")[0], {}, world)
        transaction.rollback()
        assert op_list_violations(root) == []
        assert {name: world[name].ops for name in "TSED"} == blocks
        assert _identity(root) == objects
        assert detached.parent is None
        assert op_digest(root) == digest


class TestOpListEdges:
    """What a Python list gave for free and the links must define."""

    def block_of(self, count):
        block = Block()
        return block, [block.append(make_const(i)) for i in range(count)]

    def test_insert_an_op_of_the_same_block_by_index(self):
        # list semantics: the op leaves first, then the index is read.
        block, (a, b, c, d) = self.block_of(4)
        block.insert(2, a)  # from before the slot
        assert block.ops == [b, c, a, d]
        block.insert(1, d)  # from after the slot
        assert block.ops == [b, d, c, a]
        block.insert(1, d)  # onto itself
        assert block.ops == [b, d, c, a]

    def test_insert_before_an_op_of_the_same_block(self):
        # The op ends up next to the anchor from either side (the list
        # version landed one slot late when it came from before).
        block, (a, b, c, d) = self.block_of(4)
        block.insert_before(c, a)
        assert block.ops == [b, a, c, d]
        block.insert_before(b, d)
        assert block.ops == [d, b, a, c]
        block.insert_after(c, d)
        assert block.ops == [b, a, c, d]
        block.insert_after(b, a)  # already there
        assert block.ops == [b, a, c, d]

    def test_moving_an_op_next_to_itself_changes_nothing(self):
        _, _, (block,) = _module_of_functions(1)
        a, b = block.append(make_const(1)), block.append(make_const(2))
        a.move_before(a)
        b.move_before(b)
        block.insert_before(a, a)
        block.insert_after(b, b)
        assert block.ops == [a, b]
        assert a.parent is block and b.parent is block

    def test_negative_and_past_the_end_indices_clamp(self):
        block, (a, b) = self.block_of(2)
        block.insert(-1, c := make_const(3))
        assert block.ops == [a, c, b]
        block.insert(-100, d := make_const(4))
        assert block.ops == [d, a, c, b]
        block.insert(100, e := make_const(5))
        assert block.ops == [d, a, c, b, e]
        assert block.ops[-1] is e and block.ops[-5] is d
        with pytest.raises(IndexError):
            block.ops[5]

    @pytest.mark.parametrize("mutate", [
        lambda block, anchor, op: block.insert_before(anchor, op),
        lambda block, anchor, op: block.insert_after(anchor, op),
        lambda block, anchor, op: block.remove(anchor),
    ])
    def test_an_anchor_from_another_block_raises_and_corrupts_nothing(
            self, mutate):
        block, (a, b) = self.block_of(2)
        other, (x, y) = self.block_of(2)
        with pytest.raises(ValueError):
            mutate(block, x, b)
        with pytest.raises(ValueError):
            mutate(block, make_const(), b)  # in no block at all
        assert block.ops == [a, b] and other.ops == [x, y]
        assert (a.next_op, b.prev_op, x.next_op, y.prev_op) == (b, a, y, x)
        with pytest.raises(ValueError):
            a.move_before(make_const())
        with pytest.raises(ValueError):
            a.is_before_in_block(x)

    def test_erasing_the_op_a_loop_over_ops_stands_on_skips_no_sibling(self):
        block, ops = self.block_of(5)
        visited = []
        for op in block.ops:
            visited.append(op)
            op.erase()
        assert visited == ops and block.ops == [] and len(block) == 0
        block, ops = self.block_of(5)
        visited = [op for op in reversed(block.ops) if op.erase() is None]
        assert visited == ops[::-1] and block.ops == []

    def test_a_list_taken_before_a_mutation(self):
        # Appends show and a removed tail goes; anything else leaves the
        # list as it was and the next read is a fresh one.
        block, (a, b, c) = self.block_of(3)
        before = block.ops
        d = block.append(make_const(4))
        assert before == [a, b, c, d]
        d.erase()
        assert before == [a, b, c]
        a.erase()
        assert before == [a, b, c] and block.ops == [b, c]

    def test_order_index_is_renumbered_lazily(self):
        block, (a, b, c) = self.block_of(3)
        assert block._ordered and a.is_before_in_block(c)
        b.erase()  # removals keep it valid
        d = block.append(make_const(4))  # appends too
        assert block._ordered and c.is_before_in_block(d)
        e = block.insert_before(c, make_const(5))
        assert not block._ordered  # ... an insertion does not
        assert e.is_before_in_block(c) and a.is_before_in_block(e)
        assert block._ordered
        assert [op._order for op in block.ops] == [0, 1, 2, 3]

    def test_destroy_leaves_no_link_or_memo_behind(self):
        module = Operation.create("test.module", regions=1)
        block = module.regions[0].add_block()
        ops = [block.append(make_const(i)) for i in range(3)]
        block.insert_before(ops[0], ops[2])
        assert block.ops == [ops[2], ops[0], ops[1]]
        module.destroy()
        assert vars(block) == {}
        assert all(vars(op) == {} for op in ops)

    def test_the_fuzz_invariant_sees_a_broken_link(self):
        from repro.testing.fuzz import op_list_violations

        module = Operation.create("test.module", regions=1)
        block = module.regions[0].add_block()
        a, b = block.append(make_const(1)), block.append(make_const(2))
        assert op_list_violations(module) == []
        b._prev = None
        assert any("backward" in v for v in op_list_violations(module))
        b._prev = a
        block._ops = [b, a]
        assert any("memo" in v for v in op_list_violations(module))
        block._ops = None
        a._order, b._order = 5, 5
        assert any("order index" in v for v in op_list_violations(module))
        a.parent = None
        assert any("parent" in v for v in op_list_violations(module))


class TestRegion:
    def test_entry_block(self):
        region = Region()
        with pytest.raises(ValueError):
            region.entry_block
        block = region.add_block()
        assert region.entry_block is block

    def test_is_empty(self):
        region = Region()
        assert region.is_empty
        block = region.add_block()
        assert region.is_empty
        block.append(make_const())
        assert not region.is_empty

    def test_clone_into_remaps_successors(self):
        holder = Operation.create("test.holder", regions=1)
        region = holder.regions[0]
        entry = region.add_block()
        target = region.add_block()
        entry.append(
            Operation.create("cf.br", successors=[target])
        )
        new_holder = Operation.create("test.holder", regions=1)
        region.clone_into(new_holder.regions[0], {})
        new_entry = new_holder.regions[0].blocks[0]
        new_target = new_holder.regions[0].blocks[1]
        assert new_entry.ops[0].successors == (new_target,)


class TestVerifier:
    def test_terminator_must_be_last(self):
        block = Block()
        holder = Operation.create("test.holder", regions=1)
        holder.regions[0].add_block(block)
        block.append(Operation.create("func.return"))
        block.append(make_const())
        with pytest.raises(ValueError, match="not last in block"):
            holder.verify()

    def test_registered_verifier_runs(self):
        bad = Operation.create("arith.addi", result_types=[I32])
        with pytest.raises(ValueError, match="two operands"):
            bad.verify()

    def test_registry_contains_core_dialects(self):
        for name in ("scf.for", "func.func", "memref.load",
                     "transform.sequence"):
            assert name in OP_REGISTRY
