"""FaultPlan determinism and the chaos driver's invariant checking."""

import json

import pytest

from repro.testing.faults import (
    CHAOS_RATES,
    FaultPlan,
    FaultSite,
    main as chaos_main,
    run_chaos,
    run_chaos_case,
)


class TestFaultPlan:
    def test_decisions_replay_across_instances(self):
        keys = [f"job-{i}" for i in range(64)]
        first = FaultPlan(seed=11, rates={FaultSite.WORKER_CRASH: 0.3})
        second = FaultPlan(seed=11, rates={FaultSite.WORKER_CRASH: 0.3})
        decisions_a = [first.fire(FaultSite.WORKER_CRASH, k) for k in keys]
        decisions_b = [second.fire(FaultSite.WORKER_CRASH, k) for k in keys]
        assert decisions_a == decisions_b
        assert any(decisions_a) and not all(decisions_a)

    def test_different_seeds_diverge(self):
        keys = [f"job-{i}" for i in range(64)]
        a = FaultPlan(seed=1, rates={FaultSite.WORKER_CRASH: 0.5})
        b = FaultPlan(seed=2, rates={FaultSite.WORKER_CRASH: 0.5})
        assert ([a.fire(FaultSite.WORKER_CRASH, k) for k in keys]
                != [b.fire(FaultSite.WORKER_CRASH, k) for k in keys])

    def test_occurrence_index_gives_fresh_decisions(self):
        # Same (site, key) consulted repeatedly draws independent
        # decisions — "crash the first execution but not the retry".
        plan = FaultPlan(seed=5, rates={FaultSite.WORKER_CRASH: 0.5})
        draws = [plan.fire(FaultSite.WORKER_CRASH, "k")
                 for _ in range(32)]
        assert any(draws) and not all(draws)

    def test_rate_bounds(self):
        plan = FaultPlan(seed=0, rates={FaultSite.QUEUE_STALL: 0.0,
                                        FaultSite.POOL_BREAK: 1.0})
        assert not any(plan.fire(FaultSite.QUEUE_STALL, f"k{i}")
                       for i in range(16))
        assert all(plan.fire(FaultSite.POOL_BREAK, f"k{i}")
                   for i in range(16))

    def test_unconfigured_site_never_fires(self):
        plan = FaultPlan(seed=0, rates={FaultSite.WORKER_CRASH: 1.0})
        assert not plan.fire(FaultSite.WORKER_HANG, "k")

    def test_max_fires_budget(self):
        plan = FaultPlan(seed=0, rates={FaultSite.WORKER_CRASH: 1.0},
                         max_fires=3)
        fired = sum(plan.fire(FaultSite.WORKER_CRASH, f"k{i}")
                    for i in range(10))
        assert fired == 3
        assert plan.injected == {"worker_crash": 3}

    def test_worker_fault_crash_takes_precedence(self):
        plan = FaultPlan(seed=0, rates={FaultSite.WORKER_CRASH: 1.0,
                                        FaultSite.WORKER_HANG: 1.0})
        assert plan.worker_fault("key", 1) == "crash"
        hang_only = FaultPlan(seed=0,
                              rates={FaultSite.WORKER_HANG: 1.0})
        assert hang_only.worker_fault("key", 1) == "hang"
        quiet = FaultPlan(seed=0)
        assert quiet.worker_fault("key", 1) is None

    def test_schedule_log_is_replay_material(self):
        plan = FaultPlan(seed=0, rates={FaultSite.DISK_WRITE_ERROR: 1.0})
        plan.fire(FaultSite.DISK_WRITE_ERROR, "cache-key")
        log = plan.schedule()
        assert log == [{"site": "disk_write_error", "key": "cache-key",
                        "occurrence": 0}]
        json.dumps(log)  # must be artifact-serializable

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(rates={"not_a_site": 0.5})
        with pytest.raises(ValueError):
            FaultPlan(rates={FaultSite.WORKER_CRASH: 1.5})

    def test_chaos_rates_cover_every_site(self):
        assert set(CHAOS_RATES) == set(FaultSite)


class TestChaosDriver:
    def test_single_case_invariants_hold(self):
        report, plans = run_chaos_case(12345, workers=1,
                                       job_timeout=0.5)
        assert report.ok, "\n".join(str(f) for f in report.failures)
        assert report.jobs > 0
        assert report.statuses
        # The batch ran through both routes, each under its own plan
        # seeded by the case alone.
        assert list(plans) == ["frontier", "daemon"]
        assert all(plan.seed == 12345 for plan in plans.values())
        assert sum(report.statuses.values()) == report.jobs

    def test_multi_case_aggregation(self):
        report = run_chaos(seed=9, cases=2, workers=1, job_timeout=0.5)
        assert report.ok, "\n".join(str(f) for f in report.failures)
        assert report.cases == 2
        assert report.jobs >= 2 * 3  # >= 3 jobs per case by construction

    def test_cli_smoke(self, capsys):
        assert chaos_main(["--seed", "4", "--cases", "1"]) == 0
        out = capsys.readouterr().out
        assert "chaos: 1 cases" in out
        assert "(routes: frontier, daemon)" in out
        assert "all invariants held" in out

    def test_cli_single_case_replay(self, capsys):
        assert chaos_main(["--case-seed", "12345"]) == 0
        out = capsys.readouterr().out
        assert "fault schedule:" in out
