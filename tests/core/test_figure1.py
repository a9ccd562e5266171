"""Reproduction of the paper's Fig. 1 worked example.

The script hoists code out of the outer loop (line 3), splits the inner
uneven loop by 8 (line 6), tiles the divisible part (line 8), fully
unrolls the remainder (line 10) — and the duplicated unroll of line 11
is caught both statically (§3.4) and dynamically (§3.1).
"""

import pytest

from repro.analysis import analyze_script
from repro.core import dialect as transform
from repro.core.errors import TransformInterpreterError
from repro.core.interpreter import TransformInterpreter
from repro.execution.workloads import build_uneven_loop_module
from repro.ir import Builder


def build_figure1_script(with_error: bool = False):
    """The @split_then_tile_and_unroll script of Fig. 1a."""
    script, builder, func_handle = transform.sequence()
    # line 2: %outer = match.op "scf.for" {first} in %func
    outer = transform.match_op(builder, func_handle, "scf.for",
                               position="first")
    # line 3: %hoisted = loop.hoist from %outer to %func
    function = transform.match_op(builder, func_handle, "func.func",
                                  position="last")
    transform.loop_hoist(builder, outer, function)
    # line 4: %inner = match.op "scf.for" {first} in %outer
    inner = transform.match_op(builder, outer, "scf.for",
                               position="first")
    # line 5: %param = param.constant 8
    param = transform.param_constant(builder, 8)
    # line 6: %part:2 = loop.split %inner ub_div_by=%param
    part_1, part_2 = transform.loop_split(builder, inner, param)
    # line 8: %tiled:2 = loop.tile %part#1 tile_sizes=[%param]
    tiled_1, tiled_2 = transform.loop_tile(builder, part_1, param)
    # line 10: %unrolled = loop.unroll %part#2 {full}
    transform.loop_unroll(builder, part_2, full=True)
    if with_error:
        # line 11: a second unroll of the consumed handle.
        transform.loop_unroll(builder, part_2, full=True)
    transform.yield_(builder)
    return script


class TestFigure1:
    def test_script_applies_successfully(self):
        payload = build_uneven_loop_module()
        script = build_figure1_script()
        result = TransformInterpreter().apply(script, payload)
        assert result.succeeded
        payload.verify()

    def test_transformed_structure(self):
        payload = build_uneven_loop_module()
        TransformInterpreter().apply(build_figure1_script(), payload)
        loops = [op for op in payload.walk() if op.name == "scf.for"]
        trip_counts = sorted(
            loop.trip_count() for loop in loops
            if loop.trip_count() is not None
        )
        # outer j-loop (4096), tile loop (2040/8 = 255), point loop (8);
        # the remainder (2 iterations) is fully unrolled away.
        assert 4096 in trip_counts
        assert 255 in trip_counts
        assert 8 in trip_counts

    def test_hoisting_moved_constants_to_function(self):
        payload = build_uneven_loop_module()
        TransformInterpreter().apply(build_figure1_script(), payload)
        function = [
            op for op in payload.walk_ops("func.func")
            if not op.is_declaration
        ][0]
        entry_constants = [
            op for op in function.body.ops if op.name == "arith.constant"
        ]
        # The constants that used to live inside the j-loop body.
        assert len(entry_constants) >= 3

    def test_remainder_fully_unrolled(self):
        payload = build_uneven_loop_module()
        TransformInterpreter().apply(build_figure1_script(), payload)
        # 2042 = 255*8 + 2: the remainder contributes 2 unrolled copies;
        # together with the in-loop body that's >= 3 calls to @use.
        calls = list(payload.walk_ops("func.call"))
        assert len(calls) == 3

    def test_line11_static_error(self):
        """'This statically reports an error!' — via the §3.4 analysis."""
        script = build_figure1_script(with_error=True)
        issues = analyze_script(script, may_alias=False)
        assert len(issues) == 1
        assert issues[0].use_op.name == "transform.loop.unroll"
        assert issues[0].consume_op.name == "transform.loop.unroll"

    def test_line11_dynamic_error(self):
        payload = build_uneven_loop_module()
        script = build_figure1_script(with_error=True)
        with pytest.raises(TransformInterpreterError,
                           match="invalidated"):
            TransformInterpreter().apply(script, payload)

    def test_clean_script_has_no_static_issues(self):
        script = build_figure1_script(with_error=False)
        assert analyze_script(script, may_alias=False) == []
