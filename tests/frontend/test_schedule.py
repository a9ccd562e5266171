"""Fluent schedule builder: emission, consumption, lint-cleanliness."""

import pytest

from repro.analysis.lint import Severity
from repro.frontend import Schedule, ScheduleError
from repro.ir.hashing import op_digest
from repro.ir.parser import parse
from repro.ir.printer import print_op


def errors_of(engine):
    return [d for d in engine.diagnostics if d.severity is Severity.ERROR]


class TestFluentChains:
    def test_issue_headline_chain(self):
        # The exact chain from the issue: unroll consumes the inner
        # tile loop, the cursor falls back to the outer loop, and
        # vectorize applies there.
        schedule = Schedule()
        schedule.match("linalg.matmul").tile(sizes=[32, 32]) \
                .unroll(4).vectorize()
        text = schedule.mlir
        for op in ("transform.match_op", "transform.loop.tile",
                   "transform.loop.unroll", "transform.loop.vectorize"):
            assert f'"{op}"' in text
        assert not errors_of(schedule.lint())

    def test_consuming_op_moves_cursor(self):
        schedule = Schedule()
        schedule.match("scf.for").tile(sizes=[8, 8], keep="outer",
                                       names=("outer", "inner"))
        assert schedule._cursor is schedule.handle("outer")
        schedule.use("inner").unroll(full=True)
        assert not schedule.handle("inner").live

    def test_split_and_peel(self):
        schedule = Schedule()
        schedule.match("scf.for", position="first") \
                .split(4, keep="rest").peel()
        text = schedule.mlir
        assert '"transform.loop.split"' in text
        assert '"transform.loop.peel"' in text
        assert not errors_of(schedule.lint())

    def test_structured_chain(self):
        schedule = Schedule()
        schedule.match("linalg.matmul").generalize() \
                .lower_to_loops().vectorize(4)
        assert '"transform.structured.generalize"' in schedule.mlir
        assert not errors_of(schedule.lint())

    def test_merge_and_select(self):
        schedule = Schedule()
        schedule.match("scf.for", name="loops")
        schedule.match("linalg.matmul", name="mms")
        schedule.merge("loops", "mms").select("scf.for").print_("picked")
        assert '"transform.merge_handles"' in schedule.mlir
        assert not errors_of(schedule.lint())


class TestUseAfterConsume:
    def test_reuse_raises(self):
        schedule = Schedule()
        schedule.match("scf.for", name="loop")
        schedule.use("loop").unroll(2)
        with pytest.raises(ScheduleError, match="use-after-consume"):
            schedule.use("loop")

    def test_error_names_the_consumer(self):
        schedule = Schedule()
        loop = schedule.match("scf.for")._cursor
        schedule.unroll(2)
        with pytest.raises(ScheduleError,
                           match="consumed by 'transform.loop.unroll'"):
            schedule.use(loop)

    def test_no_cursor_is_an_error(self):
        with pytest.raises(ScheduleError, match="needs a current handle"):
            Schedule().tile(sizes=[4])

    def test_unknown_name_is_an_error(self):
        with pytest.raises(ScheduleError, match="no handle named"):
            Schedule().handle("nope")

    def test_cross_schedule_handles_rejected(self):
        first = Schedule()
        handle = first.match("scf.for")._cursor
        second = Schedule()
        with pytest.raises(ScheduleError, match="different Schedule"):
            second.use(handle)


class TestParams:
    def test_binding_attribute(self):
        schedule = Schedule()
        tile = schedule.param([4, 4], binding="TILES")
        schedule.match("scf.for", position="first") \
                .tile(sizes=tile, keep="inner")
        text = schedule.mlir
        assert '"transform.param.constant"' in text
        assert 'binding = "TILES"' in text
        assert not errors_of(schedule.lint())

    def test_scalar_params_as_tile_operands(self):
        schedule = Schedule()
        t1 = schedule.param(8, binding="T1")
        t2 = schedule.param(4, binding="T2")
        schedule.match("scf.for", position="first") \
                .tile(sizes=[t1, t2])
        tile_ops = [op for op in schedule.script.walk()
                    if op.name == "transform.loop.tile"]
        assert len(tile_ops[0].operands) == 3
        assert not errors_of(schedule.lint())

    def test_param_width_for_vectorize(self):
        schedule = Schedule()
        vec = schedule.param(8, binding="VEC")
        schedule.match("scf.for", position="last").vectorize(vec)
        assert not errors_of(schedule.lint())

    def test_non_param_sizes_rejected(self):
        schedule = Schedule()
        loop = schedule.match("scf.for", name="other")._cursor
        schedule.match("scf.for", position="first")
        with pytest.raises(ScheduleError, match="param handle"):
            schedule.tile(sizes=loop)


class TestMacrosAndLibrary:
    def test_define_and_include(self):
        schedule = Schedule()
        schedule.define(
            "tile8",
            lambda scope: scope.tile(sizes=[8, 8])._cursor,
        )
        schedule.match("scf.for", position="first").include("tile8")
        text = schedule.mlir
        assert '"transform.named_sequence"' in text
        assert '"transform.include"' in text
        assert not errors_of(schedule.lint())

    def test_include_propagates_consumption(self):
        schedule = Schedule()
        schedule.define("consume_it",
                        lambda scope: scope.tile(sizes=[4, 4])._cursor)
        schedule.match("scf.for", name="loop")
        schedule.include("consume_it", args=["loop"])
        with pytest.raises(ScheduleError, match="use-after-consume"):
            schedule.use("loop")

    def test_include_unknown_macro(self):
        schedule = Schedule()
        schedule.match("scf.for")
        with pytest.raises(ScheduleError, match="unknown sequence"):
            schedule.include("nope")

    def test_library_include(self):
        schedule = Schedule().use_library()
        schedule.match("scf.for", position="first") \
                .include("tile_and_unroll_remainder")
        assert '"transform.named_sequence"' in schedule.mlir
        assert not errors_of(schedule.lint())

    def test_redefinition_rejected(self):
        schedule = Schedule()
        schedule.define("twice", lambda scope: None)
        with pytest.raises(ScheduleError, match="already defined"):
            schedule.define("twice", lambda scope: None)


class TestAlternatives:
    def test_regions_and_fallback(self):
        schedule = Schedule()
        schedule.match("scf.for", position="first")
        schedule.alternatives(
            lambda alt: alt.tile(sizes=[16, 16]).unroll(4),
            None,
        )
        alts = [op for op in schedule.script.walk()
                if op.name == "transform.alternatives"]
        assert len(alts[0].regions) == 2
        assert not errors_of(schedule.lint())

    def test_region_handles_do_not_escape(self):
        schedule = Schedule()
        schedule.match("scf.for", position="first")
        escaped = []
        schedule.alternatives(
            lambda alt: escaped.append(
                alt.tile(sizes=[4, 4], names=("o", "i"))._cursor),
        )
        with pytest.raises(ScheduleError, match="use-after-consume"):
            schedule.use(escaped[0])


class TestBuildLifecycle:
    def test_build_is_idempotent(self):
        schedule = Schedule()
        schedule.match("scf.for").unroll(2)
        assert schedule.build() is schedule.build()
        assert schedule.digest == op_digest(schedule.script)

    def test_emission_after_build_rejected(self):
        schedule = Schedule()
        schedule.match("scf.for")
        schedule.build()
        with pytest.raises(ScheduleError, match="closed|already built"):
            schedule.match("scf.for")

    def test_built_script_roundtrips(self):
        schedule = Schedule().use_library()
        tile = schedule.param([4, 4], binding="TILES")
        schedule.match("scf.for", position="first") \
                .tile(sizes=tile).include("lower_to_llvm", args=[])
        script = schedule.script
        reparsed = parse(print_op(script), "<again>")
        assert op_digest(reparsed) == op_digest(script)
