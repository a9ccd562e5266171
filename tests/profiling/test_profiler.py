"""Tests for the profiling layer: counters, timers, and the report."""

from repro.dialects import builtin, func
from repro.ir import Builder
from repro.profiling import Profiler
from repro.rewrite.greedy import apply_patterns_greedily
from repro.rewrite.pattern import pattern


class TestCounters:
    def test_pattern_stats_accumulate(self):
        profiler = Profiler()
        profiler.record_pattern("p", applied=True, seconds=0.25)
        profiler.record_pattern("p", applied=False, seconds=0.75)
        stat = profiler.patterns["p"]
        assert stat.attempts == 2
        assert stat.applies == 1
        assert stat.seconds == 1.0
        assert stat.hit_rate == 0.5

    def test_transform_and_pass_stats(self):
        profiler = Profiler()
        profiler.record_transform("transform.foo", 0.1)
        profiler.record_transform("transform.foo", 0.2)
        profiler.record_pass("canonicalize", 0.3)
        assert profiler.transforms["transform.foo"].count == 2
        assert profiler.passes["canonicalize"].count == 1

    def test_invalidation_fanout(self):
        profiler = Profiler()
        profiler.record_invalidation(1)
        profiler.record_invalidation(3)
        assert profiler.invalidation.events == 2
        assert profiler.invalidation.handles_invalidated == 4
        assert profiler.invalidation.mean_fanout == 2.0


class TestReport:
    def test_empty_report(self):
        assert "(nothing recorded)" in Profiler().render()

    def test_sections_render(self):
        profiler = Profiler()
        profiler.record_transform("transform.foo", 0.001)
        profiler.record_pattern("my-pat", applied=True, seconds=0.002)
        profiler.record_pass("canonicalize", 0.003)
        profiler.record_worklist_seed(5)
        profiler.record_driver_run()
        profiler.record_invalidation(2)
        report = profiler.render()
        assert "Transform ops" in report
        assert "transform.foo" in report
        assert "my-pat" in report
        assert "canonicalize" in report
        assert "Greedy-driver worklist" in report
        assert "Handle invalidation" in report


class TestDriverIntegration:
    def test_greedy_driver_records_worklist_and_patterns(self):
        @pattern("test.a", label="a-to-b-profiled")
        def a_to_b(op, rewriter):
            rewriter.replace_op_with(op, "test.b")
            return True

        module = builtin.module()
        f = func.func("f", [])
        module.body.append(f)
        builder = Builder.at_end(f.body)
        for _ in range(3):
            builder.create("test.a")
        func.return_(builder)

        profiler = Profiler()
        apply_patterns_greedily(module, [a_to_b], profiler=profiler)
        assert profiler.worklist.runs == 1
        assert profiler.worklist.pops >= profiler.worklist.pushes > 0
        stat = profiler.patterns["a-to-b-profiled"]
        assert stat.applies == 3
        assert stat.seconds > 0
        assert "a-to-b-profiled" in profiler.render()
