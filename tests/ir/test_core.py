"""Tests for the core IR objects: values, operations, blocks, regions."""

import pytest

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
        op.remove_attr("n")
        assert op.attr("n") is None

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

    def test_set_operands_replaces_list(self):
        a, b, c = make_const(1), make_const(2), make_const(3)
        user = Operation.create("test.use", operands=[a.result])
        user.set_operands([b.result, c.result])
        assert not a.result.has_uses()
        assert user.num_operands == 2

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
        assert a.result.has_one_use()


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
        assert a.result.has_one_use()


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

    def test_ancestors(self):
        outer, _block, inner = self.build_nested()
        assert list(inner.ancestors()) == [outer]

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
        b.move_after(a)
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
    def test_add_and_erase_arg(self):
        block = Block([INDEX])
        arg = block.add_arg(F32)
        assert arg.index == 1
        block.erase_arg(0)
        assert block.args[0] is arg
        assert arg.index == 0

    def test_erase_arg_with_uses_fails(self):
        block = Block([INDEX])
        Operation.create("test.use", operands=[block.args[0]])
        with pytest.raises(ValueError):
            block.erase_arg(0)

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
        assert new_entry.ops[0].successors == [new_target]


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
