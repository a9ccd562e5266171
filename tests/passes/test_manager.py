"""Tests for the pass manager and pipeline parsing."""

import pytest

from repro.dialects import builtin
from repro.passes import PASS_REGISTRY, Pass, PassManager, parse_pipeline, register_pass
from repro.passes.manager import WRITTEN_CONDITIONS, ConversionPass, WalkPass
from repro.profiling import Profiler
from repro.rewrite.conversion import ConversionTarget, TypeConverter
from repro.rewrite.pattern import pattern


class CountingPass(Pass):
    NAME = "test-counting"
    runs = 0

    def run(self, op):
        CountingPass.runs += 1


if "test-counting" not in PASS_REGISTRY:
    register_pass(CountingPass)


class TestRegistry:
    def test_core_passes_registered(self):
        for name in ("canonicalize", "cse", "inline",
                     "loop-invariant-code-motion", "convert-scf-to-cf",
                     "reconcile-unrealized-casts", "lower-affine",
                     "tosa-to-linalg"):
            assert name in PASS_REGISTRY

    def test_register_requires_name(self):
        class Nameless(Pass):
            pass

        with pytest.raises(ValueError):
            register_pass(Nameless)


class TestConversionPass:
    """A conversion pass's conditions are derived from its target, its
    patterns' ``generates`` and its converter, never written."""

    @staticmethod
    def declare(**attributes):
        @pattern("test.op", generates={"legal.op", "test.helper"})
        def lower(op, rewriter):
            return False

        target = (ConversionTarget().add_illegal_op("test.op")
                  .add_illegal_dialect("old").add_legal_dialect("legal"))
        return type("Declared", (ConversionPass,),
                    {"PATTERNS": (lower,), "TARGET": target, **attributes})

    def test_conditions_are_derived(self):
        declared = self.declare()
        assert declared.PRECONDITIONS == {"test.op", "old.*"}
        assert declared.POSTCONDITIONS == {"legal.op", "test.helper"}

    def test_a_converter_adds_the_cast(self):
        declared = self.declare(CONVERTER=TypeConverter())
        assert declared.POSTCONDITIONS == {
            "legal.op", "test.helper", "builtin.unrealized_conversion_cast"}

    def test_what_the_target_makes_illegal_is_not_produced(self):
        declared = self.declare(TARGET=ConversionTarget().add_illegal_op(
            "test.op", "test.helper"))
        assert declared.POSTCONDITIONS == {"legal.op"}

    @pytest.mark.parametrize("written", ["PRECONDITIONS", "POSTCONDITIONS"])
    def test_writing_a_condition_set_is_refused(self, written):
        with pytest.raises(TypeError, match=written):
            self.declare(**{written: {"test.op"}})

    def test_every_pattern_driven_lowering_is_declared(self):
        assert {name for name, cls in PASS_REGISTRY.items()
                if issubclass(cls, ConversionPass)} == {
            "convert-arith-to-llvm", "convert-cf-to-llvm",
            "convert-func-to-llvm", "convert-scf-to-cf",
            "convert-stablehlo-to-arith", "finalize-memref-to-llvm",
            "lower-affine", "reconcile-unrealized-casts", "tosa-to-linalg",
            "tosa-to-linalg-named", "tosa-to-tensor"}


@pattern("test.op", generates={"test.made"})
def make(op, rewriter):
    return False


class TestWalkPass:
    """A walk-driven pass's conditions are its patterns' roots and what
    they generate; one walk is their fixpoint only when they generate
    none of their roots."""

    def test_conditions_are_derived(self):
        declared = type("Walked", (WalkPass,), {"PATTERNS": (make,)})
        assert declared.PRECONDITIONS == {"test.op"}
        assert declared.POSTCONDITIONS == {"test.made"}

    def test_a_pattern_that_generates_its_own_root_is_refused(self):
        @pattern(frozenset({"test.op", "test.made"}),
                 generates={"test.made"})
        def regrow(op, rewriter):
            return False

        with pytest.raises(TypeError, match="test.made"):
            type("Regrowing", (WalkPass,), {"PATTERNS": (make, regrow)})

    def test_the_walk_driven_passes(self):
        assert {name for name, cls in PASS_REGISTRY.items()
                if issubclass(cls, WalkPass)
                and not name.startswith("test-")} == {
            "expand-strided-metadata", "tosa-make-broadcastable",
            "tosa-optional-decompositions", "tosa-to-arith"}


class TestWrittenConditions:
    """Only a pass in ``WRITTEN_CONDITIONS`` writes a condition set, and
    the dict may only shrink."""

    @pytest.mark.parametrize("base", [Pass, WalkPass, ConversionPass])
    @pytest.mark.parametrize("written", ["PRECONDITIONS", "POSTCONDITIONS"])
    def test_a_pass_outside_the_dict_that_writes_is_refused(self, base,
                                                            written):
        with pytest.raises(TypeError, match=written):
            type("Writing", (base,), {"NAME": "test-writing",
                                      written: {"test.op"}})

    def test_the_dict_may_only_shrink(self):
        assert set(WRITTEN_CONDITIONS) <= {
            "expand-strided-metadata", "finalize-memref-to-llvm",
            "tosa-make-broadcastable"}
        assert all(reason.strip() for reason in WRITTEN_CONDITIONS.values())

    def test_every_entry_says_more_than_its_patterns(self):
        for name in WRITTEN_CONDITIONS:
            cls = PASS_REGISTRY[name]
            derived = tuple(map(frozenset, cls.derive_conditions()))
            assert (cls.PRECONDITIONS, cls.POSTCONDITIONS) != derived, name

    def test_a_written_postcondition_adds_to_the_derived_one(self):
        expand = PASS_REGISTRY["expand-strided-metadata"]
        assert expand.POSTCONDITIONS == {
            *expand.PATTERNS[0].generates, "memref.subview.constr"}
        assert "affine.apply" in expand.PATTERNS[0].generates


class TestPassManager:
    def test_add_by_name_and_instance(self):
        manager = PassManager()
        manager.add("canonicalize")
        manager.add(CountingPass())
        assert [pass_.NAME for pass_ in manager.passes] == [
            "canonicalize", "test-counting"]

    def test_unknown_pass(self):
        with pytest.raises(ValueError, match="unknown pass"):
            PassManager().add("no-such-pass")

    def test_run_records_passes_in_profiler(self):
        profiler = Profiler()
        PassManager(["canonicalize", "cse"]).run(builtin.module(),
                                                 profiler=profiler)
        assert sorted(profiler.passes) == ["canonicalize", "cse"]
        assert all(stat.seconds >= 0 for stat in profiler.passes.values())
        assert "canonicalize" in profiler.render()

    def test_runs_in_order(self):
        order = []

        class A(Pass):
            NAME = "order-a"

            def run(self, op):
                order.append("a")

        class B(Pass):
            NAME = "order-b"

            def run(self, op):
                order.append("b")

        manager = PassManager([A(), B(), A()])
        manager.run(builtin.module())
        assert order == ["a", "b", "a"]


class TestPipelineParsing:
    def test_simple(self):
        manager = parse_pipeline("canonicalize,cse")
        assert [p.NAME for p in manager.passes] == ["canonicalize", "cse"]

    def test_a_pass_option_is_refused_by_name(self):
        with pytest.raises(ValueError, match=r"'inline\(always=1\)'"):
            parse_pipeline("cse,inline(always=1)")

    def test_whitespace_and_empty_chunks(self):
        manager = parse_pipeline(" canonicalize , ,cse ")
        assert len(manager.passes) == 2

    def test_unknown_pass_in_pipeline(self):
        with pytest.raises(ValueError):
            parse_pipeline("definitely-not-a-pass")
