"""Tests for spec matching and the static pipeline checker (§3.3, §4.2)."""

import pytest

import repro.passes  # noqa: F401 — register the lowering passes
from repro.core import dialect as transform
from repro.core.conditions import (
    TransformConditions,
    conditions_of,
    pass_conditions,
    payload_op_specs,
    spec_matches_name,
    spec_subsumes,
)
from repro.analysis import (
    IssueKind,
    check_pipeline,
    check_transform_script,
    extract_pipeline_tree,
    flatten_pipeline,
)

BROKEN = [
    "convert-scf-to-cf", "convert-arith-to-llvm", "convert-cf-to-llvm",
    "convert-func-to-llvm", "expand-strided-metadata",
    "finalize-memref-to-llvm", "reconcile-unrealized-casts",
]
FIXED = BROKEN[:5] + ["lower-affine", "convert-arith-to-llvm"] + BROKEN[5:]
INPUT = {"func.func", "func.return", "scf.forall", "arith.constant",
         "memref.subview", "memref.store"}


class TestSpecMatching:
    def test_exact(self):
        assert spec_matches_name("scf.for", "scf.for")
        assert not spec_matches_name("scf.for", "scf.if")

    def test_dialect_wildcard(self):
        assert spec_matches_name("scf.*", "scf.for")
        assert spec_matches_name("scf.*", "scf.forall")
        assert not spec_matches_name("scf.*", "cf.br")

    def test_cast_alias(self):
        assert spec_matches_name(
            "cast", "builtin.unrealized_conversion_cast"
        )
        assert spec_matches_name(
            "builtin.unrealized_conversion_cast", "cast"
        )

    def test_constrained_spec_matches_base(self):
        assert spec_matches_name("memref.subview.constr",
                                 "memref.subview")

    def test_subsumption(self):
        assert spec_subsumes("memref.*", "memref.subview.constr")
        assert spec_subsumes("arith.*", "arith.addi")
        assert spec_subsumes("memref.subview", "memref.subview.constr")
        assert not spec_subsumes("scf.*", "cf.br")
        assert not spec_subsumes("arith.addi", "arith.*")


class TestConditionsResolution:
    def test_pass_conditions(self):
        conditions = pass_conditions("convert-scf-to-cf")
        assert "scf.*" in conditions.preconditions
        assert "cf.br" in conditions.postconditions

    def test_unknown_pass(self):
        assert pass_conditions("nonexistent") is None

    @pytest.mark.parametrize("name", [
        "canonicalize", "cse", "loop-invariant-code-motion", "inline",
        "tosa-infer-shapes"])
    def test_a_pass_that_declares_nothing_is_unknown(self, name):
        from repro.passes import PASS_REGISTRY

        assert name in PASS_REGISTRY and pass_conditions(name) is None

    def test_a_transform_op_with_two_empty_sets_is_unknown(self):
        script, builder, root = transform.sequence()
        transform.yield_(builder)
        assert conditions_of(next(script.walk_ops("transform.yield"))) is None

    def test_transform_op_conditions(self):
        script, builder, root = transform.sequence()
        loop = transform.match_op(builder, root, "scf.for",
                                  position="first")
        tile_outer, tile_inner = transform.loop_tile(builder, loop, [8])
        tile_op = tile_outer.defining_op()
        conditions = conditions_of(tile_op)
        assert "scf.for" in conditions.preconditions

    def test_apply_registered_pass_pulls_pass_conditions(self):
        script, builder, root = transform.sequence()
        transform.apply_registered_pass(builder, root,
                                        "convert-scf-to-cf")
        transform.yield_(builder)
        op = next(script.walk_ops("transform.apply_registered_pass"))
        conditions = conditions_of(op)
        assert conditions.name == "convert-scf-to-cf"

    def test_payload_op_specs(self):
        from repro.execution.workloads import build_matmul_module

        specs = payload_op_specs(build_matmul_module(2, 2, 2))
        assert "scf.for" in specs and "memref.load" in specs


class TestPipelineCheck:
    def test_broken_pipeline_reports_affine_leak(self):
        report = check_pipeline(BROKEN, INPUT, ["llvm.*"])
        assert not report.ok
        leftovers = [str(issue) for issue in report.leftovers()]
        assert any("affine.apply" in text for text in leftovers)
        assert any("expand-strided-metadata" in text
                   for text in leftovers)

    def test_fixed_pipeline_is_clean(self):
        report = check_pipeline(FIXED, INPUT, ["llvm.*"])
        assert report.ok, report.render()

    def test_final_specs_reported(self):
        report = check_pipeline(FIXED, INPUT, ["llvm.*"])
        assert all(
            spec.startswith("llvm.") for spec in report.final_specs
        ), report.final_specs

    def test_phase_ordering_violation(self):
        """Running scf lowering twice: second application is dead."""
        report = check_pipeline(
            ["convert-scf-to-cf", "convert-scf-to-cf"],
            {"scf.for"},
            ["llvm.*", "cf.*", "arith.*", "cast"],
        )
        ordering = [
            issue for issue in report.issues
            if issue.kind is IssueKind.PHASE_ORDERING
        ]
        assert len(ordering) == 1
        assert ordering[0].position == 1

    @pytest.mark.parametrize("model, dead", [
        ("bert_base", []), ("gpt2", []), ("mobilebert", []),
        ("whisper_decoder", []),
        # It has no softmax, fully-connected or transposed conv.
        ("squeezenet", ["tosa-optional-decompositions"]),
    ])
    def test_table1_pipeline_reports_only_dead_steps(self, model, dead):
        """A refining pass claims to remove nothing it keeps, and a
        conversion consumes only what its target makes illegal, so the
        only phase-ordering issue left on Table 1 is a real one."""
        from repro.mlmodels import build_model
        from repro.passes.tosa_pipeline import TOSA_TO_LINALG_PIPELINE

        report = check_pipeline(
            TOSA_TO_LINALG_PIPELINE, payload_op_specs(build_model(model)))
        assert [issue.transform_name for issue in report.issues
                if issue.kind is IssueKind.PHASE_ORDERING] == dead

    def test_unknown_conditions_warn(self):
        report = check_pipeline(["cse"], {"arith.addi"}, ["arith.*"])
        kinds = {issue.kind for issue in report.issues}
        assert IssueKind.UNKNOWN_CONDITIONS in kinds
        assert report.ok  # warnings don't fail the check

    def test_trace_records_steps(self):
        report = check_pipeline(BROKEN, INPUT, ["llvm.*"])
        assert len(report.trace) == len(BROKEN)
        assert report.trace[0][0] == "convert-scf-to-cf"

    def test_render_mentions_failure(self):
        report = check_pipeline(BROKEN, INPUT, ["llvm.*"])
        assert "FAILED" in report.render()
        report_ok = check_pipeline(FIXED, INPUT, ["llvm.*"])
        assert "OK" in report_ok.render()


class TestScriptCheck:
    def make_script(self, pass_names):
        from repro.core import pipeline_to_transform_script

        return pipeline_to_transform_script(pass_names)

    def test_script_extraction(self):
        script = self.make_script(BROKEN)
        steps = flatten_pipeline(extract_pipeline_tree(script))
        assert [s for s in steps if isinstance(s, str)] == BROKEN

    def test_check_script_broken(self):
        script = self.make_script(BROKEN)
        report = check_transform_script(script, INPUT, ["llvm.*"])
        assert not report.ok

    def test_check_script_fixed(self):
        script = self.make_script(FIXED)
        report = check_transform_script(script, INPUT, ["llvm.*"])
        assert report.ok

    def test_loop_transform_after_lowering_flagged(self):
        """A loop.tile scheduled after convert-scf-to-cf is mis-ordered."""
        script, builder, root = transform.sequence()
        handle = transform.apply_registered_pass(
            builder, root, "convert-scf-to-cf"
        )
        loop = transform.match_op(builder, handle, "scf.for",
                                  position="first")
        transform.loop_tile(builder, loop, [8])
        transform.yield_(builder)
        report = check_transform_script(
            script, {"scf.for", "func.func"},
            ["cf.*", "arith.*", "func.*", "cast", "scf.*"],
        )
        ordering = [
            issue for issue in report.issues
            if issue.kind is IssueKind.PHASE_ORDERING
        ]
        assert any(
            issue.transform_name == "transform.loop.tile"
            for issue in ordering
        )
