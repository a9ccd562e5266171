"""Tests for pass-pipeline <-> transform-script conversion (§4.1)."""

import pytest

from repro.core import (
    TransformInterpreter,
    dialect as transform,
    pipeline_to_transform_script,
    transform_script_to_pipeline,
)
from repro.core.errors import TransformInterpreterError
from repro.dialects import builtin
from repro.passes import PassManager


class TestConversion:
    def test_from_name_list(self):
        script = pipeline_to_transform_script(["canonicalize", "cse"])
        applied = transform_script_to_pipeline(script)
        assert applied == ["canonicalize", "cse"]

    def test_from_pipeline_string(self):
        script = pipeline_to_transform_script("canonicalize,cse")
        assert transform_script_to_pipeline(script) == [
            "canonicalize", "cse"
        ]

    def test_unknown_pass_rejected(self):
        with pytest.raises(ValueError, match="unknown pass"):
            pipeline_to_transform_script(["nope"])

    def test_a_pass_option_fails_definitely(self):
        script = pipeline_to_transform_script(["inline"])
        op = next(script.walk_ops("transform.apply_registered_pass"))
        op.set_attr("options", {"always": True})
        with pytest.raises(TransformInterpreterError,
                           match="'options' attribute"):
            TransformInterpreter().apply(script, builtin.module())

    def test_passes_chained_through_handles(self):
        script = pipeline_to_transform_script(
            ["canonicalize", "cse", "canonicalize"]
        )
        ops = list(script.walk_ops("transform.apply_registered_pass"))
        assert len(ops) == 3
        # Each op consumes the previous op's result handle.
        assert ops[1].operand(0) is ops[0].results[0]
        assert ops[2].operand(0) is ops[1].results[0]

    def test_script_is_a_module_with_sequence(self):
        script = pipeline_to_transform_script(["cse"])
        assert script.name == "builtin.module"
        assert any(
            op.name == "transform.sequence" for op in script.walk()
        )


class TestEquivalence:
    """The identical compilation flow, native vs interpreted (Table 1)."""

    PIPELINE = ["tosa-optional-decompositions", "canonicalize",
                "tosa-make-broadcastable", "tosa-to-linalg-named",
                "tosa-to-linalg", "tosa-to-arith", "tosa-to-tensor",
                "canonicalize", "cse"]

    def test_same_final_ir_shape(self):
        from repro.ir.printer import print_op
        from repro.mlmodels import build_model

        native = build_model("squeezenet")
        PassManager(self.PIPELINE).run(native)

        interpreted = build_model("squeezenet")
        script = pipeline_to_transform_script(self.PIPELINE)
        TransformInterpreter().apply(script, interpreted)

        native_names = sorted(op.name for op in native.walk())
        interpreted_names = sorted(op.name for op in interpreted.walk())
        assert native_names == interpreted_names
        # Byte-identical IR, in fact:
        assert print_op(native) == print_op(interpreted)
