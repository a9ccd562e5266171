"""Tests for crash containment and diagnostic routing.

Arbitrary Python exceptions escaping a transform's ``apply`` (or a
pattern rewrite under the greedy driver) must become structured
*definite* failures with a transform-stack backtrace and an MLIR-style
diagnostic — never a raw traceback — unless ``strict`` asks for one.
"""

import pytest

from repro.core import DynamicConditionChecker, dialect as transform
from repro.core.dialect import TransformOp
from repro.core.errors import TransformInterpreterError
from repro.core.interpreter import TransformInterpreter
from repro.dialects import builtin, func
from repro.execution.workloads import build_matmul_module
from repro.ir import Builder
from repro.ir.core import register_op
from repro.rewrite.greedy import (
    GreedyRewriteConfig,
    PatternApplicationError,
    apply_patterns_greedily,
)
from repro.rewrite.pattern import pattern


@register_op
class _CrashOp(TransformOp):
    """Testing aid: apply() raises an arbitrary Python exception."""

    NAME = "transform.test.crash"

    def apply(self, interpreter, state):
        raise ZeroDivisionError("kaboom")


def crash_script():
    script, builder, root = transform.sequence()
    anchor = transform.match_op(builder, root, "scf.for", position="first")
    loop_op, body, arg = transform.foreach(builder, anchor)
    body.create("transform.test.crash")
    transform.yield_(body)
    transform.yield_(builder)
    return script


class TestInterpreterBarrier:
    def test_exception_becomes_definite_failure(self):
        payload = build_matmul_module(2, 2, 2)
        interp = TransformInterpreter()
        with pytest.raises(TransformInterpreterError) as excinfo:
            interp.apply(crash_script(), payload)
        result = excinfo.value.result
        assert result.is_definite
        assert "uncaught ZeroDivisionError" in result.message
        assert "kaboom" in result.message
        assert isinstance(result.cause, ZeroDivisionError)
        assert interp.stats.exceptions_contained == 1

    def test_backtrace_names_enclosing_transforms(self):
        payload = build_matmul_module(2, 2, 2)
        with pytest.raises(TransformInterpreterError) as excinfo:
            TransformInterpreter().apply(crash_script(), payload)
        names = [op.name for op in excinfo.value.result.backtrace]
        assert names == ["transform.sequence", "transform.foreach",
                         "transform.test.crash"]

    def test_error_message_is_diagnostic_chain(self):
        payload = build_matmul_module(2, 2, 2)
        with pytest.raises(TransformInterpreterError) as excinfo:
            TransformInterpreter().apply(crash_script(), payload)
        message = str(excinfo.value)
        assert "error:" in message
        assert "contained Python exception: ZeroDivisionError" in message
        assert "while executing 'transform.foreach'" in message
        assert "while executing 'transform.sequence'" in message

    def test_diagnostic_recorded_on_engine(self):
        payload = build_matmul_module(2, 2, 2)
        interp = TransformInterpreter()
        with pytest.raises(TransformInterpreterError):
            interp.apply(crash_script(), payload)
        assert interp.diagnostics.has_errors()
        assert "uncaught ZeroDivisionError" in interp.diagnostics.render()

    def test_strict_reraises_raw_exception(self):
        payload = build_matmul_module(2, 2, 2)
        with pytest.raises(ZeroDivisionError, match="kaboom"):
            TransformInterpreter(strict=True).apply(crash_script(), payload)

    def test_fatal_condition_checker_keeps_the_barrier(self):
        """The condition checker keeps the exception barrier up, and
        ``strict`` still means what it means to the interpreter."""
        with pytest.raises(TransformInterpreterError,
                           match="uncaught ZeroDivisionError"):
            DynamicConditionChecker().apply(
                crash_script(), build_matmul_module(2, 2, 2))
        with pytest.raises(ZeroDivisionError, match="kaboom"):
            DynamicConditionChecker(strict=True).apply(
                crash_script(), build_matmul_module(2, 2, 2))

    def test_silenceable_failure_emits_warning_diagnostic(self):
        payload = build_matmul_module(2, 2, 2)
        script, builder, root = transform.sequence()
        builder.create("transform.test.emit_silenceable",
                       attributes={"message": "soft"})
        transform.yield_(builder)
        interp = TransformInterpreter()
        result = interp.apply(script, payload)
        assert result.is_silenceable
        assert not interp.diagnostics.has_errors()
        assert any("soft" in str(w) for w in interp.diagnostics.warnings)


class TestMatchPositionValidation:
    def test_unknown_position_is_definite(self):
        payload = build_matmul_module(2, 2, 2)
        script, builder, root = transform.sequence()
        builder.create(
            "transform.match_op",
            operands=[root],
            attributes={"names": ["scf.for"], "position": "middle"},
            result_types=[transform.ANY_OP],
        )
        transform.yield_(builder)
        with pytest.raises(TransformInterpreterError,
                           match="unknown position 'middle'"):
            TransformInterpreter().apply(script, payload)


@pattern("test.a", label="crashy")
def _crashy(op, rewriter):
    raise ValueError("pattern exploded")


def module_with_test_a():
    module = builtin.module()
    f = func.func("f", [])
    module.body.append(f)
    builder = Builder.at_end(f.body)
    builder.create("test.a")
    func.return_(builder)
    return module


class TestGreedyDriverBarrier:
    def test_crash_wrapped_as_pattern_application_error(self):
        module = module_with_test_a()
        with pytest.raises(PatternApplicationError) as excinfo:
            apply_patterns_greedily(module, [_crashy])
        assert "pattern 'crashy' crashed on 'test.a'" in str(excinfo.value)
        assert isinstance(excinfo.value.cause, ValueError)
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_strict_config_reraises_raw(self):
        module = module_with_test_a()
        with pytest.raises(ValueError, match="pattern exploded"):
            apply_patterns_greedily(
                module, [_crashy],
                config=GreedyRewriteConfig(strict=True),
            )
