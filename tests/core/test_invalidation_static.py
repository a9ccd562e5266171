"""Tests for the static use-after-consume analysis (§3.4)."""

import pytest

from repro.analysis import analyze_script, lint_script
from repro.core import dialect as transform
from repro.ir import Builder, Operation


class TestDirectConsumption:
    def test_use_after_unroll(self):
        script, builder, root = transform.sequence()
        loop = transform.match_op(builder, root, "scf.for",
                                  position="first")
        transform.loop_unroll(builder, loop, full=True)
        transform.print_(builder, loop)  # use after consume
        transform.yield_(builder)
        issues = analyze_script(script, may_alias=False)
        assert len(issues) == 1
        assert issues[0].use_op.name == "transform.print"

    def test_use_after_split(self):
        script, builder, root = transform.sequence()
        loop = transform.match_op(builder, root, "scf.for",
                                  position="first")
        transform.loop_split(builder, loop, 8)
        transform.loop_tile(builder, loop, [8])  # loop was consumed
        transform.yield_(builder)
        assert len(analyze_script(script, may_alias=False)) == 1

    def test_clean_chaining_has_no_issues(self):
        script, builder, root = transform.sequence()
        loop = transform.match_op(builder, root, "scf.for",
                                  position="first")
        main, rest = transform.loop_split(builder, loop, 8)
        transform.loop_tile(builder, main, [8])
        transform.loop_unroll(builder, rest, full=True)
        transform.yield_(builder)
        assert analyze_script(script, may_alias=False) == []

    def test_results_of_consuming_op_are_fresh(self):
        """Split results point at *new* loops: using both is fine."""
        script, builder, root = transform.sequence()
        loop = transform.match_op(builder, root, "scf.for",
                                  position="first")
        main, rest = transform.loop_split(builder, loop, 8)
        transform.print_(builder, main)
        transform.print_(builder, rest)
        transform.yield_(builder)
        assert analyze_script(script, may_alias=False) == []


class TestAliasPropagation:
    def test_derived_handle_invalidated_with_source(self):
        """Consuming %outer invalidates %inner matched inside it."""
        script, builder, root = transform.sequence()
        outer = transform.match_op(builder, root, "scf.for",
                                   position="first")
        inner = transform.match_op(builder, outer, "scf.for",
                                   position="first")
        transform.loop_unroll(builder, outer, full=True)
        transform.print_(builder, inner)
        transform.yield_(builder)
        issues = analyze_script(script, may_alias=False)
        assert len(issues) == 1
        assert issues[0].use_op.name == "transform.print"

    def test_transitive_derivation(self):
        script, builder, root = transform.sequence()
        outer = transform.match_op(builder, root, "scf.for",
                                   position="first")
        middle = transform.match_op(builder, outer, "scf.for",
                                    position="first")
        innermost = transform.match_op(builder, middle, "scf.for",
                                       position="first")
        transform.loop_unroll(builder, outer, full=True)
        transform.print_(builder, innermost)
        transform.yield_(builder)
        assert len(analyze_script(script, may_alias=False)) == 1

    def test_sibling_matches_not_aliased(self):
        """Handles derived from *different* sources stay independent."""
        script, builder, root = transform.sequence()
        first = transform.match_op(builder, root, "scf.for",
                                   position="first")
        last = transform.match_op(builder, root, "scf.for",
                                  position="last")
        transform.loop_unroll(builder, first, full=True)
        transform.print_(builder, last)
        transform.yield_(builder)
        # NOTE: the analysis is derivation-based; `last` derives from
        # `root`, not `first`, so no issue is reported (it may or may
        # not alias dynamically — the interpreter handles that case).
        assert analyze_script(script, may_alias=False) == []


class TestNestedRegions:
    def test_consumption_inside_alternatives_counts(self):
        script, builder, root = transform.sequence()
        loop = transform.match_op(builder, root, "scf.for",
                                  position="first")
        alts = transform.alternatives(builder, 1)
        inner = Builder.at_end(alts.regions[0].entry_block)
        transform.loop_unroll(inner, loop, full=True)
        transform.yield_(inner)
        transform.print_(builder, loop)
        transform.yield_(builder)
        assert len(analyze_script(script, may_alias=False)) == 1

    def test_foreach_block_arg_aliases_operand(self):
        script, builder, root = transform.sequence()
        loops = transform.match_op(builder, root, "scf.for")
        foreach_op, body_builder, element = transform.foreach(
            builder, loops
        )
        transform.loop_unroll(body_builder, element, full=True)
        transform.yield_(body_builder)
        transform.print_(builder, loops)
        transform.yield_(builder)
        # The element consumed inside foreach aliases the operand.
        assert len(analyze_script(script, may_alias=False)) >= 1


class TestVerifyScript:
    def test_verify_reports_strings(self):
        script, builder, root = transform.sequence()
        loop = transform.match_op(builder, root, "scf.for",
                                  position="first")
        transform.loop_unroll(builder, loop, full=True)
        transform.loop_unroll(builder, loop, full=True)
        transform.yield_(builder)
        errors = lint_script(script).errors
        assert len(errors) == 1
        assert "invalidated" in str(errors[0])

    def test_include_without_target_reported(self):
        script, builder, root = transform.sequence()
        builder.create("transform.include", operands=[root])
        transform.yield_(builder)
        assert any("target" in str(e)
                   for e in lint_script(script).errors)
