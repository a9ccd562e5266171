"""Extra pass-infrastructure coverage: timing, printing."""

from repro.dialects import builtin, func
from repro.ir import Builder, I32, print_op
from repro.passes.manager import PassManager
from repro.profiling import Profiler


class TestPassTiming:
    """``Profiler.passes`` is the pass manager's one timing record."""

    def test_total_sums_per_pass(self):
        profiler = Profiler()
        profiler.record_pass("a", 0.5)
        profiler.record_pass("b", 0.25)
        assert "Passes (750.000 ms total)" in profiler.render()

    def test_render_contains_rows(self):
        profiler = Profiler()
        PassManager(["canonicalize"]).run(builtin.module(),
                                          profiler=profiler)
        rendered = profiler.render()
        assert "canonicalize" in rendered
        assert "Passes (" in rendered

    def test_manager_timing_shape(self):
        profiler = Profiler()
        PassManager(["cse", "cse", "canonicalize"]).run(builtin.module(),
                                                       profiler=profiler)
        assert {name: stat.count
                for name, stat in profiler.passes.items()} == {
            "cse": 2, "canonicalize": 1
        }


class TestValueName:
    def test_reports_printed_name(self):
        module = builtin.module()
        f = func.func("f", [I32])
        module.body.append(f)
        builder = Builder.at_end(f.body)
        op = builder.create("test.op", operands=[f.body.args[0]],
                            result_types=[I32])
        builder.create("func.return")
        text = print_op(module)
        assert "^bb0(%0: i32):" in text
        assert '%1 = "test.op"(%0) : (i32) -> i32' in text

    def test_unknown_value(self):
        """A value defined outside the printed op is named where the
        print first meets it."""
        from repro.ir import Operation

        stray = Operation.create("test.stray", result_types=[I32])
        user = Operation.create("test.user",
                                operands=[stray.result, stray.result])
        assert print_op(user) == '"test.user"(%0, %0) : (i32, i32) -> ()'
