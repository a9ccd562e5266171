"""Digests: the print-identity contract, the pinned encoding, digests
following every kind of mutation (plus the printer id()-reuse
regression)."""

import gc
import random
import textwrap

import pytest

import repro.core  # noqa: F401 — registers transform ops
import repro.dialects  # noqa: F401 — registers payload ops
from repro.ir import attributes_digest, op_digest, parse, print_op
from repro.ir.printer import Printer
from repro.testing.fuzz import PayloadFuzzer

MODULE = textwrap.dedent("""
    "builtin.module"() ({
      "func.func"() ({
      ^bb0(%a: i32, %b: i32):
        %0 = "arith.addi"(%a, %b) : (i32, i32) -> i32
        %1 = "arith.muli"(%0, %a) : (i32, i32) -> i32
        "func.return"(%1) : (i32) -> ()
      }) {sym_name = "f0", function_type = (i32, i32) -> i32} : () -> ()
      "func.func"() ({
      ^bb0(%a: i32, %b: i32):
        %0 = "arith.addi"(%a, %b) : (i32, i32) -> i32
        %1 = "arith.muli"(%0, %a) : (i32, i32) -> i32
        "func.return"(%1) : (i32) -> ()
      }) {sym_name = "f0", function_type = (i32, i32) -> i32} : () -> ()
    }) : () -> ()
""").strip()

BRANCHY = textwrap.dedent("""
    "func.func"() ({
    ^bb0(%c: i1, %x: i32):
      "cf.cond_br"(%c)[^bb1, ^bb2] : (i1) -> ()
    ^bb1:
      "cf.br"()[^bb3] : () -> ()
    ^bb2:
      "cf.br"()[^bb3] : () -> ()
    ^bb3:
      "func.return"(%x) : (i32) -> ()
    }) {sym_name = "g", function_type = (i1, i32) -> i32} : () -> ()
""").strip()


def _funcs(module):
    return list(module.regions[0].entry_block.ops)


class TestContract:
    def test_same_text_same_digest(self):
        assert op_digest(parse(MODULE)) == op_digest(parse(MODULE))

    def test_clone_shares_digest_and_print(self):
        module = parse(MODULE)
        clone = module.clone()
        assert op_digest(clone) == op_digest(module)
        assert print_op(clone) == print_op(module)

    def test_identical_sibling_functions_share_digest(self):
        f0, f1 = _funcs(parse(MODULE))
        assert op_digest(f0) == op_digest(f1)
        assert print_op(f0) == print_op(f1)

    def test_attribute_value_changes_digest(self):
        a, b = parse(MODULE), parse(MODULE)
        _funcs(b)[0].set_attr("sym_name", "other")
        assert op_digest(a) != op_digest(b)

    def test_int_vs_bool_attribute_distinct(self):
        a, b = parse(MODULE), parse(MODULE)
        _funcs(a)[0].set_attr("mark", 1)
        _funcs(b)[0].set_attr("mark", True)
        assert op_digest(a) != op_digest(b)

    def test_operand_order_changes_digest(self):
        a, b = parse(MODULE), parse(MODULE)
        mul = _funcs(b)[0].regions[0].entry_block.ops[1]
        lhs, rhs = mul.operands
        mul.set_operand(0, rhs)
        mul.set_operand(1, lhs)
        assert op_digest(a) != op_digest(b)

    def test_which_definition_matters_not_just_types(self):
        # add(%a, %b) vs add(%a, %a): same op name, same types — the
        # digest must encode *which* value each use refers to.
        a, b = parse(MODULE), parse(MODULE)
        add = _funcs(b)[0].regions[0].entry_block.ops[0]
        args = _funcs(b)[0].regions[0].entry_block.args
        add.set_operand(1, args[0])
        assert op_digest(a) != op_digest(b)

    def test_successor_targets_matter(self):
        a = parse(BRANCHY)
        b = parse(BRANCHY)
        blocks = b.regions[0].blocks
        cond = blocks[0].ops[0]
        cond.successors = cond.successors[::-1]
        assert op_digest(a) != op_digest(b)
        assert print_op(a) != print_op(b)

    def test_block_order_matters(self):
        a, b = parse(BRANCHY), parse(BRANCHY)
        region = b.regions[0]
        moved = region.blocks[1]
        region.remove_block(moved)
        region.insert_block(2, moved)
        assert op_digest(a) != op_digest(b)

    def test_attributes_digest_is_attrs_only(self):
        a, b = parse(MODULE), parse(MODULE)
        # Deep change: module attrs digest unaffected, op digest is.
        _funcs(b)[0].set_attr("extra", 7)
        assert attributes_digest(a) == attributes_digest(b)
        assert op_digest(a) != op_digest(b)
        b.set_attr("mark", 1)
        assert attributes_digest(a) != attributes_digest(b)


class TestPinnedEncoding:
    """Digests key every cache, on disk too: what is fed to the hash
    (the domain, the print, a composing module's shape) may not move
    unless ``_DOMAIN`` is bumped with it. Hex digests of fixed IR."""

    def test_fixed_ir_keeps_its_digests(self):
        from repro.execution.workloads import build_matmul_module
        from repro.ir.hashing import NO_ATTRIBUTES_DIGEST, module_digest

        module = parse(MODULE)
        f0 = _funcs(module)[0]
        pinned = {
            # A module, a region op with block arguments, a leaf op
            # with operands.
            op_digest(module):
                "e75144f0f5b069f6f721b9fabf14cd97"
                "3d744bd5759b5d9a6edb1fe4cffb3c99",
            op_digest(f0):
                "e671eca6cf419b18f4fa24a3c23aaf24"
                "2270d71022ae954133d12f255fde0998",
            op_digest(f0.regions[0].blocks[0].ops[0]):
                "c480ff5bbadb3416def6b16350e5a646"
                "fe847ea3c1ae8c8e7ea4800acf0e106e",
            # Successors, forward block references.
            op_digest(parse(BRANCHY)):
                "aaae6c4d40064e0baa6b817ac42f7ad8"
                "3bddce69b9e41069813114aeddc87fda",
            # Nested loops; memref types, affine maps, float attributes.
            op_digest(PayloadFuzzer(random.Random(7)).module()):
                "896fa83d465db4cecf915f455463786c"
                "6f9bbe8310a6049aab23f291c4b30747",
            op_digest(build_matmul_module(8, 4, 4)):
                "f15058af9409d33828f36f589408c4c2"
                "396cd0ebf3d72349d536119279f626d9",
            attributes_digest(parse(BRANCHY)):
                "65191c4c50df400129ac763e9384fb0c"
                "fd904457b068801cea56daadadaaf0dd",
            # An empty composed module; an empty attribute dictionary.
            module_digest({}, []):
                "0bde797e5202517ce284ef9a887d4933"
                "4d7d667dafcba268ef32d3c7b75d1fb7",
            NO_ATTRIBUTES_DIGEST:
                "61e0b775c396564397eb9a8e99a6a7e1"
                "71e8b3e6d9d65ff73c09041fa0fcb272",
        }
        assert all(got == want for got, want in pinned.items()), pinned

    def test_a_digest_is_the_hash_of_the_print(self):
        import hashlib

        function = parse(BRANCHY)
        assert op_digest(function) == hashlib.sha256(
            b"repro-op-digest-v3" + print_op(function).encode()).hexdigest()

    def test_module_digest_is_op_digest_of_the_module(self):
        from repro.ir.hashing import module_digest

        with_attributes = (MODULE[:-len(" : () -> ()")]
                           + ' {tag = "t", n = 2 : i64} : () -> ()')
        for text in (MODULE, with_attributes):
            module = parse(text)
            assert bool(module.attributes) == (text is with_attributes)
            assert module_digest(
                module.attributes,
                [op_digest(function) for function in _funcs(module)],
            ) == op_digest(module)

    def test_printed_is_the_print_and_the_digest(self):
        from repro.dialects import builtin
        from repro.ir.hashing import printed

        quoting = MODULE.replace(
            '"f0", function_type', '"f0", note = "%3 ^bb1\n  x", function_type')
        with_attributes = (MODULE[:-len(" : () -> ()")]
                           + ' {tag = "t", n = 2 : i64} : () -> ()')
        ops = [parse(text) for text in (
            MODULE, quoting, with_attributes, BRANCHY,
            f'"builtin.module"() ({{\n{BRANCHY}\n{BRANCHY}\n}}) : () -> ()')]
        ops.append(builtin.module())  # composes, but prints no body
        ops += [PayloadFuzzer(random.Random(seed)).module()
                for seed in range(6)]
        for op in ops:
            assert printed(op)[:2] == (print_op(op), op_digest(op))


class TestMemoization:
    """No digest is memoized: each is taken from the print of the IR as
    it stands, so a digest taken before a mutation is not returned
    after it."""

    def test_erase_invalidates(self):
        module = parse(MODULE)
        before = op_digest(module)
        f0 = _funcs(module)[0]
        f0.regions[0].entry_block.ops[-1].erase()  # func.return
        assert op_digest(module) != before

    def test_modify_op_in_place_invalidates(self):
        from repro.rewrite.pattern import PatternRewriter

        module = parse(MODULE)
        before = op_digest(module)
        f0 = _funcs(module)[0]
        PatternRewriter().modify_op_in_place(
            f0, lambda: f0.set_attr("mark", f0.attributes["sym_name"]))
        assert op_digest(module) != before


def _retype_arguments(function):
    from repro.ir.types import I32, I64
    from repro.rewrite.conversion import ConversionRewriter, TypeConverter

    converter = TypeConverter()
    converter.add_conversion(lambda type: I64 if type == I32 else None)
    ConversionRewriter(converter).convert_block_signature(
        function.regions[0].entry_block)


def _modify_in_place(leaf):
    from repro.rewrite.pattern import PatternRewriter

    # A mutator run by the rewriter: the hook is the mutator's.
    PatternRewriter().modify_op_in_place(
        leaf, lambda: leaf.set_operand(1, leaf.operand(0)))


#: A leaf of ``MODULE``'s first function (add, mul, return) and what is
#: done to it; each reaches the IR by another path.
LEAF_MUTATIONS = {
    "OpOperand.set": lambda add, mul, ret: mul.set_operand(1, add.result),
    "OpOperand.drop": lambda add, mul, ret: ret.drop_all_references(),
    "set_attr": lambda add, mul, ret: add.set_attr("mark", 1),
    "modify_op_in_place": lambda add, mul, ret: _modify_in_place(add),
    "erase": lambda add, mul, ret: ret.erase(),
    "convert_block_signature": lambda add, mul, ret: _retype_arguments(
        add.parent_op),
}


class TestLeafMutationHooks:
    """After any mutation of a leaf of a hashed module, the module's
    digest is that of the module its print parses back to."""

    @pytest.mark.parametrize("mutation", sorted(LEAF_MUTATIONS))
    def test_digest_follows_a_leaf_mutation(self, mutation):
        module = parse(MODULE)
        before = op_digest(module)
        add, mul, ret = _funcs(module)[0].regions[0].entry_block.ops
        LEAF_MUTATIONS[mutation](add, mul, ret)
        text = print_op(module)
        assert op_digest(module) == op_digest(parse(text))
        assert op_digest(module) != before


class TestFuzzCorpusProperty:
    """The contract over the fuzz corpus, both directions: equal
    digests => byte-identical prints, and a single-op mutation changes
    the ancestor digests and only those."""

    SEEDS = range(12)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_equal_digest_implies_identical_print(self, seed):
        module = PayloadFuzzer(random.Random(seed)).module()
        regenerated = PayloadFuzzer(random.Random(seed)).module()
        assert op_digest(module) == op_digest(regenerated)
        assert print_op(module) == print_op(regenerated)
        # Within one module: group every op by digest; any two ops
        # sharing a digest must print byte-identically.
        groups = {}
        for op in module.walk():
            groups.setdefault(op_digest(op), set()).add(print_op(op))
        for prints in groups.values():
            assert len(prints) == 1

    @pytest.mark.parametrize("seed", SEEDS)
    def test_mutation_changes_exactly_the_ancestor_chain(self, seed):
        rng = random.Random(seed ^ 0x5EED)
        module = PayloadFuzzer(rng).module()
        ops = list(module.walk())
        before = {id(op): op_digest(op) for op in ops}
        victim = rng.choice(ops)
        victim.set_attr("fuzz_mark", rng.randint(0, 1 << 30))
        chain = {id(victim)}
        node = victim.parent_op
        while node is not None:
            chain.add(id(node))
            node = node.parent_op
        for op in ops:
            if id(op) in chain:
                assert op_digest(op) != before[id(op)]
            else:
                assert op_digest(op) == before[id(op)]


class TestPrinterNameTables:
    """Regression for the id()-reuse class: the printer's name tables
    must hold the Value/Block objects (strong references), never bare
    ``id()`` integers that a dead object's successor can inherit."""

    def test_names_survive_value_death(self):
        printer = Printer()
        module = parse(MODULE)
        block = _funcs(module)[0].regions[0].entry_block
        mul = block.ops[1]
        printer.print_op(mul)  # names its two operands and its result
        assert len(printer.value_names) == 3
        # Kill the op (and our handles to it), then allocate a burst
        # of fresh values: with id()-keyed tables one of them can
        # inherit the dead result's integer and alias its name.
        block.ops[-1].erase()  # func.return, mul's only user
        mul.erase()
        del mul, block
        gc.collect()
        fresh = parse(MODULE)
        printer.print_op(fresh)
        count = 3
        for op in fresh.walk():
            count += len(op.results)
            for region in op.regions:
                count += sum(len(b.args) for b in region.blocks)
        assert len(set(printer.value_names.values())) == count

    def test_print_after_erase_and_allocate_roundtrips(self):
        module = parse(MODULE)
        print_op(module)
        f0 = _funcs(module)[0]
        f0.regions[0].entry_block.ops[-1].erase()
        gc.collect()
        replacement = parse(MODULE)
        text = print_op(module)
        assert print_op(parse(text)) == text
        assert print_op(parse(print_op(replacement))) == \
            print_op(replacement)
