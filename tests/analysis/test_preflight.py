"""Tests for the static preflight gate: ``lint_script`` run by the
compile engine before anything executes."""

from repro.analysis import lint_script
from repro.core import dialect as transform
from repro.execution.workloads import build_matmul_module
from repro.ir import Builder, Operation
from repro.ir.printer import print_op
from repro.service import CompileEngine, CompileJob, JobStatus


def empty_payload():
    module = Operation.create("builtin.module", regions=1)
    module.regions[0].add_block()
    return module


def double_unroll_script():
    seq, builder, root = transform.sequence()
    loop = transform.match_op(builder, root, "scf.for",
                              position="first")
    transform.loop_unroll(builder, loop, full=True)
    transform.loop_unroll(builder, loop, full=True)
    transform.yield_(builder)
    return seq


def run(script, payload=None, preflight=True):
    """One job through an in-process engine; returns (result, stats)."""
    job = CompileJob(payload_text=print_op(payload or empty_payload()),
                     script_text=print_op(script))
    with CompileEngine(workers=0, cache=None,
                       preflight=preflight) as engine:
        return engine.run_job(job), engine.stats


class TestPreflight:
    def test_refuses_definite_static_errors_before_executing(self):
        result, stats = run(double_unroll_script(),
                            build_matmul_module(8, 4, 4))
        assert result.status is JobStatus.REJECTED
        # Nothing ran: no worker, no interpreter, no payload touched.
        assert stats.executed == 0
        assert "uses an invalidated handle" in result.diagnostics

    def test_clean_script_executes_normally(self):
        seq, builder, root = transform.sequence()
        loop = transform.match_op(builder, root, "scf.for",
                                  position="first")
        transform.loop_unroll(builder, loop, full=True)
        transform.yield_(builder)
        result, stats = run(seq, build_matmul_module(8, 4, 4))
        assert result.status is JobStatus.SUCCESS
        assert stats.executed == 1

    def test_off_by_default_same_script_fails_dynamically_or_not(self):
        # Without preflight the double unroll is only caught when the
        # handles are actually populated; on an empty payload the first
        # match fails silenceably and nothing else runs.
        result, stats = run(double_unroll_script(), preflight=False)
        assert result.status is JobStatus.SILENCEABLE
        assert stats.executed == 1

    def test_warnings_do_not_block_execution(self):
        # May-consumption (one alternatives region of two) is a static
        # warning: preflight lets the script run; the dynamic layer
        # would still catch the real invalidation had region 1 won.
        seq, builder, root = transform.sequence()
        handle = transform.match_op(builder, root, "scf.for")
        alts = transform.alternatives(builder, 2)
        r0 = Builder.at_end(alts.regions[0].entry_block)
        transform.loop_unroll(r0, handle, full=True)
        r1 = Builder.at_end(alts.regions[1].entry_block)
        transform.annotate(r1, root, "fallback")
        transform.print_(builder, handle, "after")
        transform.yield_(builder)
        lint = lint_script(seq)
        assert lint.warnings and not lint.has_errors()
        result, stats = run(seq, build_matmul_module(8, 4, 4))
        assert result.status is JobStatus.SUCCESS
        assert stats.executed == 1
