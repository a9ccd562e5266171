"""Tests for the use-after-consume analysis.

Covers the behaviors the old per-op checker got wrong: defects inside
an included macro found at each ``transform.include`` call site (the
analysis reads the inlined script, and an inlined op is located
``callsite(<op in the macro> at <include>)``), nested sequences
analyzed exactly once, positional ``foreach`` aliasing, and
alternatives regions analyzed from the pre-op snapshot (a consume in
region 1 does not poison region 2).
"""

from repro.analysis import ERROR, WARNING, analyze_script
from repro.core import dialect as transform
from repro.ir import Block, Builder, Operation
from repro.ir.location import CallSiteLoc, FileLineColLoc


def located(op, line):
    """Give ``op`` a distinct source location; returns it."""
    op.location = FileLineColLoc("script.mlir", line, 1)
    return op


def script_module():
    module = Operation.create("builtin.module", regions=1)
    module.regions[0].add_block()
    return module


class TestInterproceduralConsumption:
    def build_consuming_macro_script(self):
        """A named sequence that consumes its block argument, included
        from the entry sequence which then reuses the passed handle."""
        module = script_module()
        block = module.regions[0].entry_block
        macro, mb, margs = transform.named_sequence("consume_it",
                                                    n_args=1)
        located(transform.loop_unroll(mb, margs[0], full=True), 3)
        transform.yield_(mb)
        block.append(macro)
        seq, builder, root = transform.sequence()
        loop = transform.match_op(builder, root, "scf.for")
        inc = located(transform.include(builder, "consume_it", [loop]), 7)
        use = located(transform.print_(builder, loop, "reused"), 8)
        transform.yield_(builder)
        block.append(seq)
        return module, inc, use

    def test_diagnostic_at_the_include_call_site(self):
        module, inc, use = self.build_consuming_macro_script()
        unroll = next(module.walk_ops("transform.loop.unroll"))
        issues = analyze_script(module, may_alias=False)
        assert len(issues) == 1
        issue = issues[0]
        # The consumer is the macro's unroll as inlined at the include:
        # located at the call site of its place in the macro.
        assert issue.consume_op.name == "transform.loop.unroll"
        assert issue.consume_op.location == CallSiteLoc(unroll.location,
                                                        inc.location)
        assert issue.use_op.location == use.location
        assert issue.kind == "direct"
        # The analysis read an inlined copy: the script is as written.
        assert list(module.walk_ops("transform.include")) == [inc]

    def test_must_consume_at_top_level_is_an_error(self):
        module, _inc, _use = self.build_consuming_macro_script()
        issues = analyze_script(module, may_alias=False)
        assert issues[0].severity == ERROR

    def test_non_consuming_macro_is_clean(self):
        module = script_module()
        block = module.regions[0].entry_block
        macro, mb, margs = transform.named_sequence("just_look",
                                                    n_args=1)
        transform.annotate(mb, margs[0], "seen")
        transform.yield_(mb)
        block.append(macro)
        seq, builder, root = transform.sequence()
        loop = transform.match_op(builder, root, "scf.for")
        transform.include(builder, "just_look", [loop])
        transform.print_(builder, loop, "still fine")
        transform.yield_(builder)
        block.append(seq)
        assert analyze_script(module, may_alias=False) == []

    def build_double_unroll_macro(self, module, name="twice"):
        """A macro that fully unrolls its argument twice."""
        macro, mb, (arg,) = transform.named_sequence(name)
        transform.loop_unroll(mb, arg, full=True)
        located(transform.loop_unroll(mb, arg, full=True), 4)
        transform.yield_(mb)
        module.regions[0].entry_block.append(macro)
        return macro

    def test_recursion_no_effect(self):
        # A recursive include cannot be inlined (lint's "recursive
        # transform.include" error): the analyses read the script as
        # written, where the include is an op with no effect — no
        # cut-off warning, and no divergence.
        module = script_module()
        block = module.regions[0].entry_block
        rec, rb, rargs = transform.named_sequence("rec", n_args=1)
        transform.loop_unroll(rb, rargs[0], full=True)
        transform.include(rb, "rec", [rargs[0]])
        transform.yield_(rb)
        block.append(rec)
        seq, builder, root = transform.sequence()
        loop = transform.match_op(builder, root, "scf.for")
        transform.include(builder, "rec", [loop])
        transform.print_(builder, loop, "still tracked as live")
        transform.yield_(builder)
        block.append(seq)
        assert analyze_script(module, may_alias=False) == []

    def test_unknown_include_has_no_effect(self):
        seq, builder, root = transform.sequence()
        loop = transform.match_op(builder, root, "scf.for")
        transform.include(builder, "ghost", [loop])
        transform.print_(builder, loop, "after")
        transform.yield_(builder)
        assert analyze_script(seq, may_alias=True) == []

    def test_one_diagnostic_per_call_site(self):
        module = script_module()
        self.build_double_unroll_macro(module)
        seq, builder, root = transform.sequence()
        first = located(transform.include(
            builder, "twice",
            [transform.match_op(builder, root, "scf.for")]), 10)
        second = located(transform.include(
            builder, "twice",
            [transform.match_op(builder, root, "func.func")]), 11)
        transform.yield_(builder)
        module.regions[0].entry_block.append(seq)
        issues = analyze_script(module, may_alias=False)
        # Graded in the caller's context: a top-level sequence without
        # failures = "suppress" cannot recover, so both are errors.
        assert [issue.severity for issue in issues] == [ERROR, ERROR]
        in_macro = FileLineColLoc("script.mlir", 4, 1)
        assert [issue.use_op.location for issue in issues] == [
            CallSiteLoc(in_macro, first.location),
            CallSiteLoc(in_macro, second.location),
        ]

    def test_never_included_macro_is_analyzed_standalone(self):
        module = script_module()
        macro = self.build_double_unroll_macro(module, name="orphan")
        seq, builder, _root = transform.sequence()
        transform.yield_(builder)
        module.regions[0].entry_block.append(seq)
        (issue,) = analyze_script(module, may_alias=False)
        # Standalone, any caller may recover from the first unroll
        # failing silenceably: a warning, at the op as written.
        assert issue.severity == WARNING
        assert issue.use_op.location == FileLineColLoc("script.mlir", 4, 1)
        assert issue.use_op.parent_op is macro


class TestNestedSequenceSingleAnalysis:
    def test_one_diagnostic_per_defect(self):
        """A defect inside a nested sequence is reported exactly once
        (the old checker analyzed nested sequences both inline and as
        separate roots, duplicating every diagnostic)."""
        seq, builder, root = transform.sequence()
        nested = builder.create("transform.sequence", operands=[root],
                                regions=1)
        body = Block([transform.ANY_OP])
        nested.regions[0].add_block(body)
        nb = Builder.at_end(body)
        loop = transform.match_op(nb, body.args[0], "scf.for",
                                  position="first")
        transform.loop_unroll(nb, loop, full=True)
        use = transform.print_(nb, loop, "boom")
        transform.yield_(nb)
        transform.yield_(builder)
        issues = analyze_script(seq, may_alias=False)
        assert len(issues) == 1
        assert issues[0].use_op is use

    def test_module_wrapping_does_not_duplicate(self):
        module = script_module()
        seq, builder, root = transform.sequence()
        loop = transform.match_op(builder, root, "scf.for",
                                  position="first")
        transform.loop_unroll(builder, loop, full=True)
        transform.loop_unroll(builder, loop, full=True)
        transform.yield_(builder)
        module.regions[0].entry_block.append(seq)
        assert len(analyze_script(module, may_alias=False)) == 1


class TestForeachPositionalAliasing:
    def test_multi_arg_foreach_maps_operands_positionally(self):
        """Consuming block arg 0 aliases operand 0 only — the old
        checker related every operand to every argument."""
        seq, builder, root = transform.sequence()
        loops = transform.match_op(builder, root, "scf.for")
        funcs = transform.match_op(builder, root, "func.func")
        fe = builder.create("transform.foreach",
                            operands=[loops, funcs], regions=1)
        body = Block([transform.ANY_OP, transform.ANY_OP])
        fe.regions[0].add_block(body)
        fb = Builder.at_end(body)
        transform.loop_unroll(fb, body.args[0], full=True)
        transform.yield_(fb)
        use_loops = transform.print_(builder, loops, "consumed")
        transform.print_(builder, funcs, "untouched")
        transform.yield_(builder)
        issues = analyze_script(seq, may_alias=False)
        assert len(issues) == 1
        assert issues[0].use_op is use_loops
        # The loop may run zero times: a warning, not an error.
        assert issues[0].severity == WARNING

    def test_cross_iteration_consumption_is_caught(self):
        seq, builder, root = transform.sequence()
        loops = transform.match_op(builder, root, "scf.for")
        _fe, fb, arg = transform.foreach(builder, loops)
        use = transform.annotate(fb, loops, "peek")
        transform.loop_unroll(fb, arg, full=True)
        transform.yield_(fb)
        transform.yield_(builder)
        issues = analyze_script(seq, may_alias=False)
        # Iteration n consumes the block arg, invalidating the iterated
        # handle; iteration n + 1's use of it is caught by the second
        # analysis pass over the body. (The block arg itself re-binds
        # fresh every iteration, so using *it* stays clean.)
        assert any(issue.use_op is use for issue in issues)


class TestAlternativesRollbackAwareness:
    def build_two_region_script(self, use_after=False):
        seq, builder, root = transform.sequence()
        handle = transform.match_op(builder, root, "scf.for")
        alts = transform.alternatives(builder, 2)
        r0 = Builder.at_end(alts.regions[0].entry_block)
        transform.loop_unroll(r0, handle, full=True)
        r1 = Builder.at_end(alts.regions[1].entry_block)
        use_in_r1 = transform.annotate(r1, handle, "retry")
        use_outside = None
        if use_after:
            use_outside = transform.print_(builder, handle, "after")
        transform.yield_(builder)
        return seq, use_in_r1, use_outside

    def test_consume_in_region1_use_in_region2_is_clean(self):
        """Region 2 only runs after region 1 failed and rolled back:
        the handle is intact there (the old checker flagged this)."""
        seq, _use_in_r1, _ = self.build_two_region_script()
        assert analyze_script(seq, may_alias=False) == []

    def test_use_after_join_is_a_warning_not_error(self):
        seq, _use_in_r1, use_outside = self.build_two_region_script(
            use_after=True
        )
        issues = analyze_script(seq, may_alias=False)
        assert len(issues) == 1
        assert issues[0].use_op is use_outside
        # Only one of the two regions consumes: may, not must.
        assert issues[0].severity == WARNING

    def test_consume_in_every_region_then_use_still_flagged(self):
        seq, builder, root = transform.sequence()
        handle = transform.match_op(builder, root, "scf.for")
        alts = transform.alternatives(builder, 2)
        for region in alts.regions:
            rb = Builder.at_end(region.entry_block)
            transform.loop_unroll(rb, handle, full=True)
        use = transform.print_(builder, handle, "gone either way")
        transform.yield_(builder)
        issues = analyze_script(seq, may_alias=False)
        assert len(issues) == 1
        assert issues[0].use_op is use


class TestSeverityModel:
    def test_figure1_double_unroll_is_definite(self):
        seq, builder, root = transform.sequence()
        loop = transform.match_op(builder, root, "scf.for",
                                  position="first")
        transform.loop_unroll(builder, loop, full=True)
        transform.loop_unroll(builder, loop, full=True)
        transform.yield_(builder)
        issues = analyze_script(seq, may_alias=False)
        assert len(issues) == 1
        assert issues[0].severity == ERROR

    def test_may_alias_mode_only_warns(self):
        seq, builder, root = transform.sequence()
        a = transform.match_op(builder, root, "scf.for")
        b = transform.match_op(builder, root, "func.func")
        transform.loop_unroll(builder, a, full=True)
        transform.print_(builder, b, "may overlap")
        transform.yield_(builder)
        precise = analyze_script(seq, may_alias=False)
        assert precise == []
        coarse = analyze_script(seq, may_alias=True)
        assert len(coarse) == 1
        assert coarse[0].kind == "may-alias"
        assert coarse[0].severity == WARNING
