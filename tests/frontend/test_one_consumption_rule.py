"""The builder and the lint share one consumption rule: the builder
steps the use-after-consume analysis, so a handle is usable iff its
value is defined in the scope's analysis state with no consumption
fact there."""

import pathlib
import re

import pytest

import repro.frontend
from repro.analysis import analyze_script, lint_script
from repro.analysis.invalidation import ERROR
from repro.core import dialect as transform
from repro.core.errors import TransformInterpreterError
from repro.core.interpreter import TransformInterpreter
from repro.core.state import TransformState
from repro.execution.workloads import (
    build_matmul_module,
    build_uneven_loop_module,
)
from repro.frontend import Schedule, ScheduleError


class TestAlternatives:
    def test_a_handle_consumed_in_region_k_is_usable_in_region_k_plus_1(self):
        # Rollback restores the handle for the next region, as the lint
        # has always said; the parent builder rejected the second use.
        schedule = Schedule()
        schedule.match("scf.for", position="first", name="loop")
        schedule.alternatives(
            lambda alt: alt.use("loop").tile(sizes=[4]).to_library(),
            lambda alt: alt.use("loop").unroll(2),
        )
        assert analyze_script(schedule.script, may_alias=False) == []
        assert not schedule.lint().has_errors()

    def test_a_handle_consumed_in_any_region_is_dead_after_the_op(self):
        schedule = Schedule()
        loop = schedule.match("scf.for", position="first")._cursor
        schedule.alternatives(lambda alt: alt.use(loop).unroll(2), None)
        assert not loop.live
        with pytest.raises(ScheduleError,
                           match="consumed by 'transform.loop.unroll'"):
            schedule.use(loop)

    def test_a_stale_handle_raises_inside_a_region(self):
        schedule = Schedule()
        schedule.match("scf.for", name="loop").unroll(2)
        with pytest.raises(ScheduleError, match="use-after-consume"):
            schedule.alternatives(lambda alt: alt.use("loop"))


class TestScopes:
    def test_a_handle_is_out_of_scope_after_build(self):
        schedule = Schedule()
        loop = schedule.match("scf.for")._cursor
        assert loop.live
        schedule.build()
        assert not loop.live
        with pytest.raises(ScheduleError, match="out of scope"):
            schedule.use(loop)

    def test_a_schedule_handle_is_out_of_scope_in_a_macro_body(self):
        # A named sequence is isolated from above.
        schedule = Schedule()
        loop = schedule.match("scf.for")._cursor
        with pytest.raises(ScheduleError, match="out of scope"):
            schedule.define("m", lambda scope: scope.use(loop))

    def test_the_cursor_falls_back_to_the_newest_live_handle(self):
        schedule = Schedule()
        schedule.match("scf.for", position="first") \
                .tile(sizes=[4], names=("outer", "inner")).unroll(2)
        assert schedule._cursor is schedule.handle("outer")


def _tile_unroll_outer_vectorize_inner(sizes):
    script, builder, root = transform.sequence()
    loop = transform.match_op(builder, root, "scf.for", position="last")
    outer, inner = transform.loop_tile(builder, loop, sizes)
    transform.loop_unroll(builder, outer, full=True)
    transform.loop_vectorize(builder, inner, 4)
    transform.yield_(builder)
    return script


class TestTileResultsNest:
    """``loop.tile``'s point band is nested in its tile band: consuming
    the outer result kills the inner one, in all three checkers."""

    def test_the_builder_raises(self):
        schedule = Schedule()
        with pytest.raises(ScheduleError, match="needs a current handle"):
            schedule.match("scf.for", position="last") \
                    .tile(sizes=[2], keep="outer").unroll(full=True) \
                    .vectorize(4)

    def test_the_lint_reports_an_error(self):
        script = _tile_unroll_outer_vectorize_inner([2])
        (issue,) = analyze_script(script, may_alias=False)
        assert issue.severity == ERROR
        assert issue.consume_op.name == "transform.loop.unroll"
        assert issue.use_op.name == "transform.loop.vectorize"
        assert lint_script(script).has_errors()

    def test_the_interpreter_agrees(self):
        script = _tile_unroll_outer_vectorize_inner([2])
        with pytest.raises(TransformInterpreterError) as failure:
            TransformInterpreter().apply(script, build_uneven_loop_module())
        assert "invalidated by 'transform.loop.unroll'" \
            in failure.value.result.message
        assert "nested in the consumed payload" \
            in failure.value.result.message

    def test_a_nest_tiled_with_a_zero_size_keeps_the_point_band_inside(self):
        script, builder, root = transform.sequence()
        loop = transform.match_op(builder, root, "scf.for", position="first")
        outer, inner = transform.loop_tile(builder, loop, [0, 2])
        transform.yield_(builder)
        payload = build_matmul_module(4, 4, 4)
        state = TransformState(payload)
        state.set_payload(script.body.args[0], [payload])
        assert TransformInterpreter().run_block(script.body, state).succeeded
        (tile_band,) = state.get_payload(outer)
        (point_band,) = state.get_payload(inner)
        assert tile_band is not point_band
        assert tile_band.is_ancestor_of(point_band)
        schedule = Schedule()
        schedule.match("scf.for", position="first") \
                .tile(sizes=[0, 2], keep="outer", names=("tiles", "points")) \
                .unroll(full=True)
        assert not schedule.handle("points").live


class TestIncludes:
    """An include is stepped through its callee's inlined body, so its
    results carry the alias edges the lint sees."""

    @staticmethod
    def inner_of(scope):
        return scope.match("scf.for", in_="arg0", name="inner") \
            .handle("inner")

    def test_a_result_nested_in_a_consumed_argument_dies(self):
        schedule = Schedule()
        schedule.define("inner_of", self.inner_of)
        schedule.match("scf.for", position="first", name="outer")
        schedule.include("inner_of", args=["outer"], name="inner_h")
        schedule.use("outer").unroll(full=True)
        with pytest.raises(ScheduleError,
                           match="inner_h was already consumed"):
            schedule.use("inner_h")

    def test_a_result_nested_in_a_live_argument_survives(self):
        def body(scope):
            scope.use("arg1").unroll(full=True)
            return self.inner_of(scope)

        schedule = Schedule()
        schedule.define("unroll_1_match_in_0", body, n_args=2)
        schedule.match("func.func", name="fn")
        schedule.match("scf.for", position="first", name="loop")
        schedule.include("unroll_1_match_in_0", args=["fn", "loop"],
                         name="inner_h")
        with pytest.raises(ScheduleError, match="use-after-consume"):
            schedule.use("loop")
        schedule.use("inner_h").unroll(2)
        assert not schedule.lint().has_errors()


def test_the_builder_keeps_no_consumption_model_of_its_own():
    frontend = pathlib.Path(repro.frontend.__file__).parent
    for path in sorted(frontend.rglob("*.py")):
        text = path.read_text()
        for name in ("_down", "consumed_by", "_invalidate",
                     "_MacroInfo", "_contract"):
            assert not re.search(rf"\b{name}\b", text), (path.name, name)
    assert "DERIVES" not in (frontend / "schedule.py").read_text()
