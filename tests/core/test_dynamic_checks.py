"""Tests for IRDL-backed dynamic pre-/post-condition checking (§3.3)."""

import pytest

from repro.core import DynamicConditionChecker, dialect as transform
from repro.core.errors import TransformInterpreterError
from repro.dialects import affine as affine_dialect, arith
from repro.ir.affine import AffineMap, symbol
from repro.passes.manager import WalkPass, register_pass
from repro.rewrite.pattern import pattern
from tests.passes.test_lowerings import (
    BROKEN_PIPELINE,
    FIXED_PIPELINE,
    build_subview_payload,
)


@pattern("memref.subview", label="rogue-affine",
         generates={"arith.constant"})  # a lie: it also emits affine
def _emit_affine(subview, rewriter):
    value = arith.index_constant(rewriter, 1)
    affine_dialect.apply(rewriter, AffineMap(0, 1, (symbol(0) * 2,)), [value])
    return True


class _RogueAffinePass(WalkPass):
    """Declares no affine ops in its postconditions but creates one."""

    NAME = "test-rogue-affine"
    PATTERNS = (_emit_affine,)


if "test-rogue-affine" not in __import__(
    "repro.passes.manager", fromlist=["PASS_REGISTRY"]
).PASS_REGISTRY:
    register_pass(_RogueAffinePass)


def run_pipeline_checked(payload, pass_names, fatal=False):
    script, builder, root = transform.sequence()
    current = root
    for name in pass_names:
        current = transform.apply_registered_pass(builder, current, name)
    transform.yield_(builder)
    checker = DynamicConditionChecker(fatal=fatal)
    checker.apply(script, payload)
    return checker


class TestPostconditionChecking:
    def test_accurate_conditions_report_nothing(self):
        payload = build_subview_payload(dynamic_offset=True)
        checker = run_pipeline_checked(
            payload, ["expand-strided-metadata"]
        )
        assert checker.violations == []

    def test_inaccurate_conditions_detected(self):
        """The dynamic check catches C++-level bugs in declarations."""
        payload = build_subview_payload(dynamic_offset=True)
        checker = run_pipeline_checked(payload, ["test-rogue-affine"])
        messages = [str(v) for v in checker.violations]
        assert any("affine.apply" in m for m in messages)

    @pytest.mark.parametrize("model", [
        "bert_base", "gpt2", "mobilebert", "squeezenet", "whisper_decoder"])
    def test_table1_script_holds_its_conditions(self, model):
        """Each step of Table 1 introduces only what it declares, the
        derived conditions of its conversions included."""
        from repro.mlmodels import build_model
        from repro.passes.tosa_pipeline import TOSA_TO_LINALG_PIPELINE

        checker = run_pipeline_checked(build_model(model),
                                       TOSA_TO_LINALG_PIPELINE)
        assert checker.violations == []

    def test_table2_fixed_pipeline_holds_its_conditions(self):
        # The dynamic-offset payload is test_integration's
        # TestSafetyNetsCompose.
        checker = run_pipeline_checked(
            build_subview_payload(dynamic_offset=False), FIXED_PIPELINE)
        assert checker.violations == []

    def test_fatal_mode_aborts(self):
        payload = build_subview_payload(dynamic_offset=True)
        with pytest.raises(TransformInterpreterError,
                           match="condition check failed"):
            run_pipeline_checked(payload, ["test-rogue-affine"],
                                 fatal=True)


class TestIRDLConstrainedPostconditions:
    def test_remaining_subviews_verified_trivial(self):
        """After expand-strided-metadata, every remaining subview must
        satisfy memref.subview.constr — verified by the generated IRDL
        verifier."""
        payload = build_subview_payload(dynamic_offset=False)
        checker = run_pipeline_checked(
            payload, ["expand-strided-metadata"]
        )
        # The static-offset subview is trivial: no violations.
        assert checker.violations == []

    def test_violating_subview_detected(self, monkeypatch):
        """expand-strided-metadata run without its pattern claims the
        subview.constr postcondition but leaves a non-trivial subview in
        place."""
        from repro.passes.lowerings import ExpandStridedMetadataPass

        monkeypatch.setattr(ExpandStridedMetadataPass, "PATTERNS", ())
        payload = build_subview_payload(dynamic_offset=True)
        checker = run_pipeline_checked(payload, ["expand-strided-metadata"])
        messages = [str(v) for v in checker.violations]
        assert any("IRDL constraint violated" in m for m in messages)
        assert any("cardinality" in m or "operands" in m or
                   "offsets" in m for m in messages)
