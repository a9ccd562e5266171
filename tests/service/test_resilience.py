"""Resilience policies: retry/backoff, quarantine, pool health — unit
level and wired through a live CompileEngine.

Hostile transform ops come from test_engine (registered at import
time, so fork-started workers inherit them).
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service import CompileEngine, CompileJob, JobStatus
from repro.service.resilience import (
    CRASH_LOOP_WINDOW,
    JobQuarantine,
    PoolHealthMonitor,
    RetryPolicy,
)
from repro.testing.faults import FaultPlan, FaultSite

from .test_engine import PAYLOAD, UNROLL, _hostile_script

CRASH = _hostile_script("transform.test.service_crash")
SLEEP = _hostile_script("transform.test.service_sleep")


def _job(payload=PAYLOAD, script=UNROLL, **kwargs):
    return CompileJob(payload_text=payload, script_text=script, **kwargs)


class TestRetryPolicy:
    def test_default_matches_legacy_retry_once_on_crash(self):
        policy = RetryPolicy()
        assert policy.should_retry("crashed", 1)
        assert not policy.should_retry("crashed", 2)
        assert not policy.should_retry("timeout", 1)

    def test_none_never_retries(self):
        policy = RetryPolicy(max_attempts=1, retry_timeouts=True)
        assert not policy.should_retry("crashed", 1)
        assert not policy.should_retry("timeout", 1)

    def test_timeout_opt_in(self):
        policy = RetryPolicy(max_attempts=3, retry_timeouts=True)
        assert policy.should_retry("timeout", 2)
        assert not policy.should_retry("timeout", 3)
        # A crash is always retry-eligible; nothing else ever is.
        assert policy.should_retry("crashed", 1)
        assert not policy.should_retry("definite", 1)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(max_attempts=8, base_backoff=0.1)
        # Doubling from 0.1 s; 1.6 raw at attempt 5, capped to 1 s.
        for attempts, seconds in enumerate((0.1, 0.2, 0.4, 0.8, 1.0), 1):
            delay = policy.backoff_seconds("k", attempts)
            # Jitter multiplies into [1, 1.1).
            assert seconds <= delay < 1.1 * seconds

    def test_backoff_jitter_is_deterministic(self):
        policy = RetryPolicy(base_backoff=0.1)
        a = policy.backoff_seconds("key-one", 1)
        b = RetryPolicy(base_backoff=0.1).backoff_seconds("key-one", 1)
        assert a == b
        # Jitter multiplies into [1, 1.1); a different key decorrelates.
        assert 0.1 <= a < 0.11
        assert policy.backoff_seconds("key-two", 1) != a

    def test_zero_base_means_no_sleep(self):
        assert RetryPolicy().backoff_seconds("k", 1) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff=-1.0)


class TestJobQuarantine:
    def test_poisons_at_threshold(self):
        ledger = JobQuarantine(2)
        assert not ledger.record_failure("k", "crashed")
        assert not ledger.is_poisoned("k")
        # The tripping failure reports True exactly once.
        assert ledger.record_failure("k", "crashed")
        assert ledger.is_poisoned("k")
        assert not ledger.record_failure("k", "crashed")
        assert not ledger.is_poisoned("other")

    def test_ignores_non_pool_failures(self):
        ledger = JobQuarantine(1)
        assert not ledger.record_failure("k", "definite")
        assert not ledger.is_poisoned("k")

    def test_diagnose_names_the_breaker(self):
        ledger = JobQuarantine(1)
        ledger.record_failure("k", "timeout")
        message = ledger.diagnose("k")
        assert "quarantined" in message and "timeout" in message

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            JobQuarantine(-1)
        # 0 disables the breaker.
        ledger = JobQuarantine(0)
        assert not ledger.record_failure("k", "crashed")
        assert not ledger.is_poisoned("k")


class TestPoolHealthMonitor:
    def test_trips_inside_window(self):
        monitor = PoolHealthMonitor(3)
        assert not monitor.record_restart(now=100.0)
        assert not monitor.record_restart(now=101.0)
        assert monitor.record_restart(now=102.0)
        # Tripped is latched; no second True.
        assert not monitor.record_restart(now=103.0)

    def test_old_restarts_age_out(self):
        assert CRASH_LOOP_WINDOW == 30.0
        monitor = PoolHealthMonitor(3)
        assert not monitor.record_restart(now=0.0)
        assert not monitor.record_restart(now=1.0)
        # 30s later the first two are outside the window.
        assert not monitor.record_restart(now=31.0)
        # Only the restart at 31s is in the window: two more trip it.
        assert not monitor.record_restart(now=32.0)
        assert monitor.record_restart(now=33.0)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            PoolHealthMonitor(-1)
        # 0 disables the monitor.
        monitor = PoolHealthMonitor(0)
        assert not any(monitor.record_restart(now=float(second))
                       for second in range(10))


class TestEngineRetry:
    def test_injected_crash_recovers_on_retry(self):
        # worker_crash at rate 1.0 but max_fires=1: the first pooled
        # execution dies, the retry (a fresh decision) succeeds —
        # output identical to a clean run.
        plan = FaultPlan(seed=7, rates={FaultSite.WORKER_CRASH: 1.0},
                         max_fires=1)
        with CompileEngine(workers=1, faults=plan) as engine:
            result = engine.run_job(_job())
            reference = engine.run_job(_job(job_id="ref"))
        assert result.status is JobStatus.SUCCESS
        assert result.attempts == 2
        assert result.output == reference.output
        assert engine.stats.crashes == 1
        assert engine.stats.retries == 1
        assert engine.metrics_snapshot()["counters"][
            "engine.retries"] == 1
        assert plan.injected == {"worker_crash": 1}

    def test_timeout_retry_opt_in(self):
        plan = FaultPlan(seed=3, rates={FaultSite.WORKER_HANG: 1.0},
                         max_fires=1)
        policy = RetryPolicy(max_attempts=2, retry_timeouts=True)
        with CompileEngine(workers=1, job_timeout=0.5, faults=plan,
                           retry_policy=policy) as engine:
            result = engine.run_job(_job())
        assert result.status is JobStatus.SUCCESS
        assert result.attempts == 2
        assert engine.stats.timeouts == 1
        assert engine.stats.retries == 1

    def test_retry_none_makes_first_crash_terminal(self):
        with CompileEngine(workers=1, preflight=False,
                           retry_policy=RetryPolicy(max_attempts=1),
                           quarantine_after=0) as engine:
            result = engine.run_job(_job(script=CRASH))
        assert result.status is JobStatus.CRASHED
        assert result.attempts == 1
        assert engine.stats.retries == 0


class TestEngineQuarantine:
    def test_poison_job_trips_breaker_then_short_circuits(self):
        with CompileEngine(
                workers=1, preflight=False,
                retry_policy=RetryPolicy(max_attempts=1),
                quarantine_after=2) as engine:
            first = engine.run_job(_job(script=CRASH))
            second = engine.run_job(_job(script=CRASH))
            executed_before = engine.stats.crashes
            third = engine.run_job(_job(script=CRASH))
        assert first.status is JobStatus.CRASHED
        assert second.status is JobStatus.POISONED
        assert "quarantined" in second.diagnostics
        # The third submission never reaches the pool.
        assert third.status is JobStatus.POISONED
        assert engine.stats.crashes == executed_before == 2
        assert engine.stats.quarantined == 2
        assert engine.metrics_snapshot()["counters"][
            "engine.quarantined"] == 2

    def test_retries_count_toward_quarantine(self):
        # threshold=2 with retry-once: attempt 1 crashes (count 1,
        # retry granted), attempt 2 crashes (count 2 → poisoned).
        with CompileEngine(
                workers=1, preflight=False,
                retry_policy=RetryPolicy(max_attempts=3),
                quarantine_after=2) as engine:
            result = engine.run_job(_job(script=CRASH))
        assert result.status is JobStatus.POISONED
        assert result.attempts == 2
        assert engine.stats.retries == 1

    def test_quarantine_none_disables_breaker(self):
        with CompileEngine(workers=1, preflight=False,
                           retry_policy=RetryPolicy(max_attempts=1),
                           quarantine_after=0) as engine:
            for _ in range(4):
                result = engine.run_job(_job(script=CRASH))
                assert result.status is JobStatus.CRASHED


class TestPoolDegradation:
    def test_crash_loop_degrades_to_in_process(self):
        with CompileEngine(
                workers=1, preflight=False,
                retry_policy=RetryPolicy(max_attempts=1),
                quarantine_after=0,
                crash_loop_limit=2) as engine:
            # Two distinct poison jobs (params split the content key)
            # crash the pool twice inside the window.
            engine.run_job(_job(script=CRASH, params={"n": 1}))
            engine.run_job(_job(script=CRASH, params={"n": 2}))
            assert engine.degraded
            # The engine stays live: jobs now run in-process.
            survivor = engine.run_job(_job())
        assert survivor.status is JobStatus.SUCCESS
        assert engine.stats.pool_degradations == 1
        assert engine.metrics_snapshot()["counters"][
            "engine.pool_degradations"] == 1
        assert "degraded to in-process" in engine.degraded_diagnostic

    def test_pool_health_none_never_degrades(self):
        with CompileEngine(workers=1, preflight=False,
                           retry_policy=RetryPolicy(max_attempts=1),
                           quarantine_after=0, crash_loop_limit=0) as engine:
            for index in range(3):
                engine.run_job(_job(script=CRASH,
                                    params={"n": index}))
            assert not engine.degraded
        assert engine.stats.worker_restarts == 3


class TestRestartRace:
    def test_concurrent_timeouts_restart_pool_exactly_once(self):
        # Both workers hang on the same generation; both dispatcher
        # threads time out and race into _restart_pool. The generation
        # guard must produce exactly one restart (and increment).
        barrier = threading.Barrier(2)

        with CompileEngine(workers=2, preflight=False,
                           job_timeout=0.4,
                           retry_policy=RetryPolicy(max_attempts=1),
                           quarantine_after=0) as engine:
            def run(index):
                barrier.wait()
                return engine.run_job(
                    _job(script=SLEEP, params={"n": index},
                         job_id=f"hang-{index}")
                )

            with ThreadPoolExecutor(max_workers=2) as threads:
                results = list(threads.map(run, range(2)))
            restarts = engine.stats.worker_restarts
            # The replacement pool still works.
            survivor = engine.run_job(_job())
        # The race loser may see the killed pool as a crash before its
        # own deadline fires; either way both jobs fail terminally and
        # the pool restarts exactly once.
        assert all(r.status in (JobStatus.TIMEOUT, JobStatus.CRASHED)
                   for r in results)
        assert JobStatus.TIMEOUT in {r.status for r in results}
        assert restarts == 1
        assert survivor.status is JobStatus.SUCCESS
