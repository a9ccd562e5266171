"""Tests for call-site-ordered pipeline extraction.

The old extractor walked ``named_sequence`` bodies wherever they
appeared in the script text — so a pass inside a macro was checked at
the macro's *definition* position (or even when the macro was never
included at all). Extraction now rides the dataflow engine over the
script with its macros inlined: an included macro's steps sit at the
call site, never-included bodies contribute nothing, and alternatives
regions become branch nodes.
"""

from repro.analysis import (
    PipelineBranch,
    extract_pipeline_tree,
    flatten_pipeline,
)
from repro.core import dialect as transform
from repro.ir import Builder, Operation


def script_module():
    module = Operation.create("builtin.module", regions=1)
    module.regions[0].add_block()
    return module


class TestCallSiteOrdering:
    def build_macro_pipeline(self):
        module = script_module()
        block = module.regions[0].entry_block
        macro, mb, margs = transform.named_sequence("lower", n_args=1)
        transform.apply_registered_pass(mb, margs[0],
                                        "convert-scf-to-cf")
        transform.yield_(mb)
        block.append(macro)
        dead, db, dargs = transform.named_sequence("never_used",
                                                   n_args=1)
        transform.apply_registered_pass(db, dargs[0], "dead-pass")
        transform.yield_(db)
        block.append(dead)
        seq, builder, root = transform.sequence()
        h = transform.apply_registered_pass(builder, root,
                                            "canonicalize")
        transform.include(builder, "lower", [h])
        transform.apply_registered_pass(builder, h, "cse")
        transform.yield_(builder)
        block.append(seq)
        return module

    def test_included_pass_checked_at_include_position(self):
        module = self.build_macro_pipeline()
        steps = flatten_pipeline(extract_pipeline_tree(module))
        assert steps == ["canonicalize", "convert-scf-to-cf", "cse"]

    def test_never_included_bodies_are_skipped(self):
        module = self.build_macro_pipeline()
        steps = flatten_pipeline(extract_pipeline_tree(module))
        assert "dead-pass" not in steps

    def test_macro_included_twice_appears_twice(self):
        module = script_module()
        block = module.regions[0].entry_block
        macro, mb, margs = transform.named_sequence("cleanup", n_args=1)
        transform.apply_registered_pass(mb, margs[0], "cse")
        transform.yield_(mb)
        block.append(macro)
        seq, builder, root = transform.sequence()
        transform.include(builder, "cleanup", [root])
        transform.apply_registered_pass(builder, root, "canonicalize")
        transform.include(builder, "cleanup", [root])
        transform.yield_(builder)
        block.append(seq)
        assert flatten_pipeline(extract_pipeline_tree(module)) == [
            "cse", "canonicalize", "cse",
        ]

    def test_recursive_include_terminates(self):
        module = script_module()
        block = module.regions[0].entry_block
        rec, rb, rargs = transform.named_sequence("rec", n_args=1)
        transform.apply_registered_pass(rb, rargs[0], "canonicalize")
        transform.include(rb, "rec", [rargs[0]])
        transform.yield_(rb)
        block.append(rec)
        seq, builder, root = transform.sequence()
        transform.include(builder, "rec", [root])
        transform.yield_(builder)
        block.append(seq)
        steps = flatten_pipeline(extract_pipeline_tree(module))
        # A recursive macro cannot be inlined (a lint error of its
        # own): the include is an op with no effect, not a one-level
        # splice, and extraction does not diverge.
        assert steps == []

    def test_unknown_include_terminates(self):
        seq, builder, root = transform.sequence()
        transform.apply_registered_pass(builder, root, "canonicalize")
        transform.include(builder, "ghost", [root])
        transform.apply_registered_pass(builder, root, "cse")
        transform.yield_(builder)
        assert flatten_pipeline(extract_pipeline_tree(seq)) == [
            "canonicalize", "cse"]


class TestAlternativesBranches:
    def test_regions_become_branch_nodes(self):
        seq, builder, root = transform.sequence()
        alts = transform.alternatives(builder, 2)
        r0 = Builder.at_end(alts.regions[0].entry_block)
        transform.apply_registered_pass(r0, root, "canonicalize")
        r1 = Builder.at_end(alts.regions[1].entry_block)
        transform.apply_registered_pass(r1, root, "cse")
        transform.apply_registered_pass(builder, root, "symbol-dce")
        transform.yield_(builder)
        tree = extract_pipeline_tree(seq)
        assert len(tree) == 2
        branch = tree[0]
        assert isinstance(branch, PipelineBranch)
        assert branch.regions == [["canonicalize"], ["cse"]]
        assert tree[1] == "symbol-dce"

    def test_flatten_preserves_order(self):
        steps = flatten_pipeline([
            "a",
            PipelineBranch(regions=[["b1", "b2"], ["c"]]),
            "d",
        ])
        assert steps == ["a", "b1", "b2", "c", "d"]
