"""CompileEngine: classification, caching, coalescing, crash containment.

The sleep/crash transform ops below are registered at import time —
before any engine (and hence any pool) is constructed — so fork-started
workers inherit them and can execute the hostile schedules.
"""

import asyncio
import os
import subprocess
import sys
import textwrap
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.core  # registers transform ops
import repro.dialects  # registers payload ops
from repro.core.dialect import TransformOp
from repro.core.errors import TransformResult
from repro.ir.core import register_op
from repro.observability import EventLog
from repro.service import (
    CompilationCache,
    CompileEngine,
    CompileJob,
    JobStatus,
    RetryPolicy,
    ServiceFrontier,
)


@register_op
class _ServiceTestSleepOp(TransformOp):
    """Blocks the worker long enough to trip any sub-second deadline."""

    NAME = "transform.test.service_sleep"

    def apply(self, interpreter, state) -> TransformResult:
        time.sleep(5.0)
        return TransformResult.success()


@register_op
class _ServiceTestRaiseOp(TransformOp):
    """Raises a raw exception from transform code — contained into a
    definite failure on every route."""

    NAME = "transform.test.service_raise"

    def apply(self, interpreter, state) -> TransformResult:
        raise ValueError("raw crash from transform code")


@register_op
class _ServiceTestCrashOp(TransformOp):
    """Kills the worker process outright — no exception barrier can
    contain ``os._exit``, which is exactly the point."""

    NAME = "transform.test.service_crash"

    def apply(self, interpreter, state) -> TransformResult:
        os._exit(3)


PAYLOAD = textwrap.dedent("""
    "builtin.module"() ({
      "func.func"() ({
        %lb = "arith.constant"() {value = 0 : index} : () -> index
        %ub = "arith.constant"() {value = 8 : index} : () -> index
        %st = "arith.constant"() {value = 1 : index} : () -> index
        "scf.for"(%lb, %ub, %st) ({
        ^bb0(%i: index):
          %c = "arith.constant"() {value = 1 : i64} : () -> i64
          "scf.yield"() : () -> ()
        }) : (index, index, index) -> ()
        "func.return"() : () -> ()
      }) {sym_name = "f", function_type = () -> ()} : () -> ()
    }) : () -> ()
""").strip()

UNROLL = textwrap.dedent("""
    "transform.sequence"() ({
    ^bb0(%root: !transform.any_op):
      %loops = "transform.match_op"(%root) {names = ["scf.for"], position = "all"} : (!transform.any_op) -> !transform.any_op
      "transform.loop.unroll"(%loops) {factor = 2 : i64} : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) : () -> ()
""").strip()

UNROLL_BOUND = textwrap.dedent("""
    "transform.sequence"() ({
    ^bb0(%root: !transform.any_op):
      %factor = "transform.param.constant"() {binding = "factor", value = 2 : i64} : () -> !transform.param<i64>
      %loops = "transform.match_op"(%root) {names = ["scf.for"], position = "all"} : (!transform.any_op) -> !transform.any_op
      "transform.loop.unroll"(%loops, %factor) : (!transform.any_op, !transform.param<i64>) -> ()
      "transform.yield"() : () -> ()
    }) : () -> ()
""").strip()

#: Statically broken: %loops is used after loop.unroll consumed it.
USE_AFTER_CONSUME = textwrap.dedent("""
    "transform.sequence"() ({
    ^bb0(%root: !transform.any_op):
      %loops = "transform.match_op"(%root) {names = ["scf.for"], position = "all"} : (!transform.any_op) -> !transform.any_op
      "transform.loop.unroll"(%loops) {factor = 2 : i64} : (!transform.any_op) -> ()
      "transform.annotate"(%loops) {attr_name = "mark", value = 1 : i64} : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) : () -> ()
""").strip()


def _hostile_script(op_name):
    return textwrap.dedent(f"""
        "transform.sequence"() ({{
        ^bb0(%root: !transform.any_op):
          "{op_name}"() : () -> ()
          "transform.yield"() : () -> ()
        }}) : () -> ()
    """).strip()


def _job(payload=PAYLOAD, script=UNROLL, **kwargs):
    return CompileJob(payload_text=payload, script_text=script, **kwargs)


def _run(engine, jobs):
    """The jobs through a frontier over ``engine``, in submission order."""
    async def go():
        async with ServiceFrontier(engine) as frontier:
            return await frontier.run(jobs)

    return asyncio.run(go())


class TestClassification:
    def test_success_inline(self):
        with CompileEngine(workers=0) as engine:
            result = engine.run_job(_job())
        assert result.status is JobStatus.SUCCESS
        # Partial unroll by 2 duplicates the loop body in place.
        assert result.output and result.output.count("1 : i64") == 2
        assert result.stats["transforms_executed"] > 0
        assert result.ok

    def test_success_pooled(self):
        with CompileEngine(workers=1) as engine:
            result = engine.run_job(_job())
        assert result.status is JobStatus.SUCCESS
        assert result.worker_seconds > 0
        assert result.attempts == 1

    def test_preflight_rejects_use_after_consume(self):
        with CompileEngine(workers=0) as engine:
            result = engine.run_job(_job(script=USE_AFTER_CONSUME))
        assert result.status is JobStatus.REJECTED
        assert "error" in result.diagnostics
        assert engine.stats.rejected == 1
        assert engine.stats.executed == 0
        assert not result.ok

    def test_preflight_verdict_is_memoized(self):
        with CompileEngine(workers=0) as engine:
            for _ in range(3):
                engine.run_job(_job(script=USE_AFTER_CONSUME))
            assert len(engine._scripts) == 1
            (info,) = engine._scripts.values()
            assert list(info.verdicts) == [None]
            assert engine.stats.rejected == 3

    def test_unparsable_payload_rejected(self):
        with CompileEngine(workers=0) as engine:
            result = engine.run_job(_job(payload="not ir at all"))
        assert result.status is JobStatus.REJECTED
        assert "does not parse" in result.diagnostics

    def test_definite_failure_classified(self):
        # Statically clean, dynamically definite: unregistered op name
        # inside the sequence trips the interpreter's dispatch error.
        with CompileEngine(workers=0, preflight=False) as engine:
            result = engine.run_job(
                _job(script=_hostile_script("transform.test.nonexistent"))
            )
        assert result.status is JobStatus.DEFINITE
        assert result.output is None
        assert "error" in result.diagnostics

    def test_shutdown_cancels_new_work(self):
        engine = CompileEngine(workers=0)
        engine.shutdown()
        result = engine.run_job(_job())
        assert result.status is JobStatus.CANCELLED
        assert engine.stats.cancelled == 1

    def test_shutdown_cancels_only_what_needs_a_worker(self):
        # CANCELLED is "before a worker picked it up": what the front
        # end answers alone — a cached result, a static rejection — is
        # still answered by an engine that has shut its pool down.
        engine = CompileEngine(workers=0, cache=CompilationCache(capacity=4))
        assert engine.run_job(_job()).ok
        engine.shutdown()
        assert engine.run_job(_job()).cache_hit
        assert engine.run_job(_job(script=USE_AFTER_CONSUME)).status \
            is JobStatus.REJECTED
        assert engine.run_job(_job(params={"n": 1})).status \
            is JobStatus.CANCELLED
        assert engine.stats.cancelled == 1


#: Handle types spelled ``!transform.op<"...">`` only parse once the
#: transform dialect is registered.
TYPED_HANDLE = textwrap.dedent("""
    "transform.sequence"() ({
    ^bb0(%root: !transform.any_op):
      %f = "transform.match_op"(%root) {names = ["func.func"], position = "all"} : (!transform.any_op) -> !transform.op<"func.func">
      "transform.annotate"(%f) {attr_name = "seen", value = 1 : i64} : (!transform.op<"func.func">) -> ()
      "transform.yield"() : () -> ()
    }) : () -> ()
""").strip()


class TestFreshProcess:
    def test_engine_registers_dialects_before_its_first_parse(self):
        # Regression: a process that imported only repro.service
        # REJECTED this script ("does not parse ... near '<'") because
        # the engine parsed it before anything imported repro.core.
        program = textwrap.dedent(f"""
            from repro.service import CompileEngine, CompileJob
            for workers in (0, 1):
                with CompileEngine(workers=workers) as engine:
                    result = engine.run_job(
                        CompileJob({PAYLOAD!r}, {TYPED_HANDLE!r}))
                print(result.status.value, result.output_digest)
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        fresh = subprocess.run(
            [sys.executable, "-c", program], env=env, timeout=120,
            capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        with CompileEngine(workers=0) as engine:
            here = engine.run_job(_job(script=TYPED_HANDLE))
        assert here.status is JobStatus.SUCCESS
        assert fresh == [f"success {here.output_digest}"] * 2


class TestInputMemo:
    @staticmethod
    def _count_parses(monkeypatch):
        import repro.ir.parser as parser

        parses = Counter()
        real = parser.parse

        def counting(text, source="<input>"):
            parses[source] += 1
            return real(text, source)

        monkeypatch.setattr(parser, "parse", counting)
        return parses

    def test_one_engine_side_parse_per_input_text(self, monkeypatch):
        parses = self._count_parses(monkeypatch)
        with CompileEngine(workers=0) as engine:
            engine.run_job(_job())
            # The engine's parse is the job's only one: the execution
            # consumes the payload module the memo miss parsed and
            # interprets a clone of the memoized script.
            assert parses == {"<payload>": 1, "<script>": 1}
            engine.run_job(_job())
            # Uncached repeat: the memo kept no payload IR, so the
            # execution parses the text; the script is cloned again.
            assert parses == {"<payload>": 2, "<script>": 1}

    def test_handed_off_payload_is_never_shared(self):
        # Same payload text under two scripts through one uncached
        # engine: the first job consumes the module its memo miss
        # parsed (and unrolls it in place); the second must not see it.
        from repro.service.worker import compile_job

        with CompileEngine(workers=0) as engine:
            results = [engine.run_job(_job(script=script, params=params))
                       for script, params in ((UNROLL, None),
                                              (UNROLL_BOUND, {"factor": 4}))]
        for result, (script, params) in zip(
                results, ((UNROLL, None), (UNROLL_BOUND, {"factor": 4}))):
            bare = compile_job(PAYLOAD, script, params)
            assert result.output == bare["output"]
            assert result.output_digest == bare["output_digest"]
        assert results[0].output != results[1].output

    def test_params_never_rebind_the_memoized_script(self):
        from repro.ir.hashing import op_digest

        with CompileEngine(workers=0) as engine:
            four = engine.run_job(
                _job(script=UNROLL_BOUND, params={"factor": 4}))
            info = engine._scripts[UNROLL_BOUND]
            # Recomputed from the ops, not read from the memoized field.
            assert op_digest(info.op.clone()) == info.digest
            default = engine.run_job(_job(script=UNROLL_BOUND))
        assert four.output.count("1 : i64") == 4
        assert default.output.count("1 : i64") == 2

    def test_degraded_engine_matches_the_pool_from_two_threads(self):
        payloads = [PAYLOAD.replace("8 : index", f"{8 + 2 * n} : index")
                    for n in range(6)]
        jobs = [_job(payload=payload) for payload in payloads] * 2
        with CompileEngine(workers=1) as pooled:
            expected = [r.output for r in _run(pooled, jobs)]
        with CompileEngine(workers=1) as engine:
            engine._degrade_pool()
            assert engine.degraded
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                with ThreadPoolExecutor(max_workers=2) as threads:
                    results = list(threads.map(engine.run_job, jobs))
            finally:
                sys.setswitchinterval(interval)
        assert [r.status for r in results] == [JobStatus.SUCCESS] * len(jobs)
        assert [r.output for r in results] == expected
        assert len(set(expected)) == len(payloads)

    @pytest.mark.parametrize("workers", [0, 1])
    def test_tier_population_parses_no_output(self, monkeypatch, workers):
        # The worker splits the transformed module while it is still
        # IR: the engine process never parses an "<output>" (a forked
        # worker's parses are not counted here; workers=0 shows the
        # worker does not parse one either).
        from .test_sharding import MULTI

        parses = self._count_parses(monkeypatch)
        cache = CompilationCache(capacity=8)
        with CompileEngine(workers=workers, cache=cache) as engine:
            result = engine.run_job(_job(payload=MULTI))
        assert result.status is JobStatus.SUCCESS
        assert cache.stats.function_puts == 3
        assert parses["<output>"] == 0
        assert parses["<payload>"] == 1

    def test_new_entry_point_relints_without_reparsing(self, monkeypatch):
        import repro.analysis.lint as lint

        lints = []
        real = lint.lint_script
        monkeypatch.setattr(
            lint, "lint_script",
            lambda script, **kw: lints.append(kw) or real(script, **kw))
        parses = self._count_parses(monkeypatch)
        with CompileEngine(workers=0) as engine:
            engine.run_job(_job())
            engine.run_job(_job(entry_point="other"))
            engine.run_job(_job(entry_point="other"))
        assert lints == [{"entry_point": None}, {"entry_point": "other"}]
        assert parses["<script>"] == 1  # executions clone the memo's

    def test_memo_is_lru_bounded_by_cache_capacity(self, monkeypatch):
        parses = self._count_parses(monkeypatch)
        payloads = [PAYLOAD.replace("8 : index", f"{8 + n} : index")
                    for n in range(4)]
        with CompileEngine(workers=0, preflight=False,
                           cache=CompilationCache(capacity=3)) as engine:
            for payload in payloads[:3]:
                engine.run_job(_job(payload=payload))
            engine.run_job(_job(payload=payloads[0]))  # re-touch: hot
            engine.run_job(_job(payload=payloads[3]))  # evicts the LRU
            assert list(engine._payloads) == \
                [payloads[2], payloads[0], payloads[3]]
            assert len(engine._scripts) == 1
            before = parses["<payload>"]
            assert engine.run_job(_job(payload=payloads[0])).cache_hit
            assert parses["<payload>"] == before  # still memoized


class TestCacheIntegration:
    def test_second_job_hits_cache(self):
        cache = CompilationCache(capacity=8)
        with CompileEngine(workers=0, cache=cache) as engine:
            first = engine.run_job(_job())
            second = engine.run_job(_job())
        assert not first.cache_hit
        assert second.cache_hit
        assert second.output == first.output
        assert engine.stats.executed == 1
        assert engine.stats.cache_hits == 1
        assert cache.stats.hit_rate > 0

    def test_formatting_differences_share_a_key(self):
        # Jobs are keyed on digests of the parsed IR's print, so
        # whitespace-shifted payload text maps to the same address.
        reindented = PAYLOAD.replace("    ", "  ")
        cache = CompilationCache(capacity=8)
        with CompileEngine(workers=0, cache=cache) as engine:
            first = engine.run_job(_job())
            second = engine.run_job(_job(payload=reindented))
        assert second.cache_hit
        assert second.key == first.key

    def test_params_split_the_key(self):
        cache = CompilationCache(capacity=8)
        with CompileEngine(workers=0, cache=cache) as engine:
            two = engine.run_job(
                _job(script=UNROLL_BOUND, params={"factor": 2})
            )
            four = engine.run_job(
                _job(script=UNROLL_BOUND, params={"factor": 4})
            )
        assert not four.cache_hit
        assert two.output != four.output
        # Partial unroll duplicates the body `factor` times in place.
        assert two.output.count("1 : i64") == 2
        assert four.output.count("1 : i64") == 4

    def test_rejected_jobs_never_cached(self):
        cache = CompilationCache(capacity=8)
        with CompileEngine(workers=0, cache=cache) as engine:
            engine.run_job(_job(script=USE_AFTER_CONSUME))
            engine.run_job(_job(script=USE_AFTER_CONSUME))
        assert cache.stats.puts == 0


class TestParameterBinding:
    def test_binding_overrides_the_default(self):
        with CompileEngine(workers=0, cache=None) as engine:
            default = engine.run_job(_job(script=UNROLL_BOUND))
            bound = engine.run_job(
                _job(script=UNROLL_BOUND, params={"factor": 8})
            )
        assert default.status is JobStatus.SUCCESS
        assert bound.status is JobStatus.SUCCESS
        assert default.output != bound.output

    def test_unknown_binding_ignored(self):
        with CompileEngine(workers=0, cache=None) as engine:
            default = engine.run_job(_job(script=UNROLL_BOUND))
            stray = engine.run_job(
                _job(script=UNROLL_BOUND, params={"nope": 8})
            )
        assert stray.output == default.output


class TestPooledEquivalence:
    """Satellite: pooled runs reproduce sequential runs exactly —
    byte-identical output and identical interpreter stats, proving no
    hidden module-level state leaks between jobs in a worker."""

    def test_sequential_vs_pooled_identical(self):
        jobs = [
            _job(),
            _job(script=UNROLL_BOUND, params={"factor": 4}),
            _job(script=UNROLL_BOUND),
        ]
        with CompileEngine(workers=0, cache=None) as engine:
            sequential = [engine.run_job(job) for job in jobs]
        with CompileEngine(workers=2, cache=None) as engine:
            pooled = _run(engine, jobs)
        assert len(sequential) == len(pooled) == len(jobs)
        for seq, pool in zip(sequential, pooled):
            assert pool.status is seq.status
            assert pool.output == seq.output
            assert pool.stats == seq.stats
            assert pool.diagnostics == seq.diagnostics

    def test_declared_function_crosses_the_pool_boundary(self):
        # Regression: the bodiless @use declaration re-parsed with an
        # argument-less entry block and failed verification, so the
        # Fig. 1 payload was `definite` on every route that ships text.
        from repro.execution.workloads import build_uneven_loop_module
        from repro.ir.printer import print_op
        from repro.service.worker import compile_job

        payload = print_op(build_uneven_loop_module())
        # The inner, 2042-trip loop.
        script = UNROLL.replace('position = "all"', 'position = "last"')
        reference = compile_job(payload, script)
        assert reference["status"] == "success"
        assert "({\n  }) {function_type = (f64) -> ()" in \
            reference["output"]
        for workers in (0, 1):
            with CompileEngine(workers=workers) as engine:
                result = engine.run_job(_job(payload, script))
            assert result.status is JobStatus.SUCCESS
            assert result.output == reference["output"]
            assert result.output_digest == reference["output_digest"]

    def test_worker_state_does_not_accumulate(self):
        # The same job through one single-process worker, repeatedly:
        # stats must not drift run over run.
        job_stats = []
        with CompileEngine(workers=1, cache=None) as engine:
            for _ in range(3):
                result = engine.run_job(_job())
                assert result.status is JobStatus.SUCCESS
                job_stats.append(result.stats)
        assert job_stats[0] == job_stats[1] == job_stats[2]


class TestBatchAndCoalescing:
    def test_batch_preserves_submission_order(self):
        jobs = [
            _job(job_id="a"),
            _job(script=UNROLL_BOUND, job_id="b"),
            _job(script=USE_AFTER_CONSUME, job_id="c"),
        ]
        with CompileEngine(workers=1) as engine:
            results = _run(engine, jobs)
        assert [r.job_id for r in results] == ["a", "b", "c"]
        assert results[2].status is JobStatus.REJECTED

    def test_duplicate_jobs_coalesce_or_hit_cache(self):
        cache = CompilationCache(capacity=8)
        jobs = [_job(job_id=f"dup-{i}") for i in range(6)]
        with CompileEngine(workers=2, cache=cache) as engine:
            results = _run(engine, jobs)
            stats = engine.stats
        assert all(r.status is JobStatus.SUCCESS for r in results)
        outputs = {r.output for r in results}
        assert len(outputs) == 1
        # One execution did the work; everyone else shared it.
        assert stats.executed == 1
        assert stats.coalesced + stats.cache_hits == 5

    def test_empty_batch(self):
        with CompileEngine(workers=0) as engine:
            assert _run(engine, []) == []


class TestStrictParity:
    """Pooled and workers=0 execution must classify error paths
    identically."""

    def test_nonstrict_classifies_identically(self):
        script = _hostile_script("transform.test.service_raise")
        with CompileEngine(workers=0, preflight=False) as engine:
            inline = engine.run_job(_job(script=script))
        with CompileEngine(workers=1, preflight=False) as engine:
            pooled = engine.run_job(_job(script=script))
        assert inline.status is JobStatus.DEFINITE
        assert pooled.status is inline.status
        assert pooled.diagnostics == inline.diagnostics


class TestHostileWorkers:
    def test_timeout_classified_and_contained(self):
        script = _hostile_script("transform.test.service_sleep")
        with CompileEngine(workers=1, preflight=False,
                           job_timeout=0.25) as engine:
            result = engine.run_job(_job(script=script))
        assert result.status is JobStatus.TIMEOUT
        assert "deadline" in result.diagnostics
        assert engine.stats.timeouts == 1

    def test_timeout_reclaims_the_pool(self):
        # Regression: the hung worker used to keep running after
        # cancel(), so with workers=1 every later job timed out too.
        script = _hostile_script("transform.test.service_sleep")
        with CompileEngine(workers=1, preflight=False,
                           job_timeout=0.25) as engine:
            hung = engine.run_job(_job(script=script))
            assert hung.status is JobStatus.TIMEOUT
            assert engine.stats.worker_restarts >= 1
            healthy = engine.run_job(_job(timeout=30.0))
            assert healthy.status is JobStatus.SUCCESS

    def test_crash_retries_then_classifies(self):
        script = _hostile_script("transform.test.service_crash")
        with CompileEngine(workers=1, preflight=False) as engine:
            result = engine.run_job(_job(script=script))
            assert result.status is JobStatus.CRASHED
            assert result.attempts == 2
            assert engine.stats.crashes == 2
            assert engine.stats.worker_restarts >= 1
            # The restarted pool still serves well-behaved jobs.
            healthy = engine.run_job(_job())
            assert healthy.status is JobStatus.SUCCESS

    def test_pool_already_broken_at_submit_takes_the_crash_path(self):
        # Regression: submit() on a pool another job's crash had just
        # broken raised BrokenProcessPool straight out of run_job
        # (chaos seed 1 hit it); it is a pool failure like any other.
        with CompileEngine(workers=1) as engine:
            assert engine.run_job(_job()).ok
            pool = engine._pool
            engine._terminate(pool)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                try:
                    pool.submit(int).result(timeout=30.0)
                except BrokenProcessPool:
                    break
            result = engine.run_job(_job(params={"n": 1}))
            assert result.status is JobStatus.SUCCESS
            assert result.attempts == 2
            assert engine.stats.crashes == 1
            assert engine.stats.worker_restarts == 1

    def test_crash_without_retry(self):
        script = _hostile_script("transform.test.service_crash")
        with CompileEngine(
                workers=1, preflight=False,
                retry_policy=RetryPolicy(max_attempts=1)) as engine:
            result = engine.run_job(_job(script=script))
        assert result.status is JobStatus.CRASHED
        assert result.attempts == 1


class TestOwnedWorkers:
    """The engine forks its workers and talks to each over one pipe,
    from the thread that runs the job."""

    def test_the_engine_starts_no_thread(self):
        payloads = [PAYLOAD.replace("8 : index", f"{8 + 2 * n} : index")
                    for n in range(4)]
        before = threading.active_count()
        with CompileEngine(workers=2) as engine:
            results = [engine.run_job(_job(payload=payload))
                       for payload in payloads]
            assert threading.active_count() == before
        assert [(r.status, r.attempts) for r in results] == \
            [(JobStatus.SUCCESS, 1)] * 4

    def _hang_with_two_waiters(self, quarantine_after=3):
        # workers=1: the first job hangs on the only worker while two
        # more wait for it. The timeout replaces the pool; the waiters
        # retry on the new one instead of waiting forever.
        hang = _job(script=_hostile_script("transform.test.service_sleep"),
                    timeout=1.0)
        waiting = [_job(payload=PAYLOAD.replace(
            "8 : index", f"{10 + 2 * n} : index")) for n in range(2)]
        events = EventLog()
        dispatched = threading.Event()

        def on_event(record):
            if (record["event"], record["job_id"]) == ("DISPATCHED",
                                                       hang.job_id):
                dispatched.set()

        events.subscribe(on_event)
        with CompileEngine(workers=1, preflight=False, events=events,
                           quarantine_after=quarantine_after) as engine:
            with ThreadPoolExecutor(max_workers=3) as threads:
                hung = threads.submit(engine.run_job, hang)
                assert dispatched.wait(30.0)
                others = [threads.submit(engine.run_job, job)
                          for job in waiting]
                hung = hung.result(timeout=60.0)
                results = [other.result(timeout=60.0) for other in others]
        return engine, hung, results

    def test_jobs_waiting_behind_a_hung_worker_retry_and_finish(self):
        # The waiters' failures are the hung job's, not theirs: only the
        # timeout is charged.
        engine, hung, results = self._hang_with_two_waiters()
        assert hung.status is JobStatus.TIMEOUT
        assert [(r.status, r.attempts) for r in results] == \
            [(JobStatus.SUCCESS, 2)] * 2
        assert (engine.stats.timeouts, engine.stats.crashes,
                engine.stats.worker_restarts) == (1, 0, 1)

    def test_waiting_behind_a_hung_worker_never_poisons_the_waiters(self):
        engine, hung, results = self._hang_with_two_waiters(
            quarantine_after=1)
        assert hung.status is JobStatus.POISONED
        assert [r.status for r in results] == [JobStatus.SUCCESS] * 2
        assert engine.stats.quarantined == 1

    def test_a_failing_call_leaves_its_worker_usable(self):
        # The function's exception is raised in the caller; an argument
        # that does not pickle fails before anything reaches the worker.
        with CompileEngine(workers=1) as engine:
            pool = engine._pool
            with pytest.raises(ValueError):
                pool.submit(int, "not a number").result(timeout=30.0)
            with pytest.raises(TypeError):
                pool.submit(int, threading.Lock())
            assert pool.submit(int, "3").result(timeout=30.0) == 3
            assert engine.run_job(_job()).ok
            assert engine.stats.crashes == engine.stats.worker_restarts == 0


class TestValidation:
    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            CompileEngine(workers=-1)

    @pytest.mark.parametrize("setting", ["quarantine_after",
                                         "crash_loop_limit"])
    def test_negative_resilience_settings_rejected(self, setting):
        # 0 disables; a negative value is a mistake, not "off".
        with pytest.raises(ValueError, match=setting):
            CompileEngine(workers=0, **{setting: -1})

    @pytest.mark.parametrize("seconds", [0, -1.0, float("nan"), "5"])
    def test_non_positive_timeouts_rejected(self, seconds):
        with pytest.raises(ValueError, match="job_timeout"):
            CompileEngine(workers=0, job_timeout=seconds)
        with pytest.raises(ValueError, match="timeout"):
            CompileJob(PAYLOAD, UNROLL, timeout=seconds)

    def test_non_string_entry_point_rejected(self):
        with pytest.raises(ValueError, match="entry_point"):
            CompileJob(PAYLOAD, UNROLL, entry_point=5)

    def test_bad_cache_capacity_rejected(self):
        with pytest.raises(ValueError):
            CompilationCache(capacity=0)
