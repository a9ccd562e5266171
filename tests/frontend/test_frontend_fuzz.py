"""Satellite: the builder fuzz mode (``repro.testing.fuzz --frontend``).

Random fluent chains must emit scripts that lint with zero
error-severity diagnostics, survive print->parse digest round-trips,
and reject stale-handle reuse at the Python level; a replayed stale
use is flagged by the analysis and never runs in the interpreter.
"""

import random

from repro.testing.fuzz import (
    FrontendScheduleFuzzer,
    main,
    run_frontend_case,
    run_frontend_fuzz,
)


def test_frontend_fuzz_smoke():
    report = run_frontend_fuzz(seed=0, cases=40)
    assert report.ok, report.render()
    assert report.cases == 40
    assert report.outcomes.get("clean") == 40
    assert not report.outcomes.get("violated")
    assert "all invariants held" in report.render()


def test_single_case_is_deterministic():
    first, first_failures = run_frontend_case(12345)
    again, again_failures = run_frontend_case(12345)
    assert not first_failures and not again_failures
    assert first.kind == again.kind == "clean"
    assert first.payload_print == again.payload_print


def test_stale_probes_never_slip_through():
    # ``violations`` records stale-handle probes the builder FAILED to
    # reject; the guard must hold for every generated chain.
    for seed in range(30):
        fuzzer = FrontendScheduleFuzzer(random.Random(seed))
        fuzzer.build()
        assert not fuzzer.violations, (seed, fuzzer.violations)


def test_replayed_probes_reach_the_interpreter():
    """The three-way leg keeps the run-time rule exercised: replayed
    stale-handle probes must actually reach the interpreter and fail
    there with an invalidation error, or the leg proves nothing."""
    report = run_frontend_fuzz(seed=0, cases=40)
    assert report.probes["reached"] >= 3, report.render()
    assert report.probes["probes"] == (report.probes["lint errors"]
                                       + report.probes["lint warnings"])
    assert "stale probes:" in report.render()


def test_cli_frontend_flag():
    assert main(["--frontend", "--cases", "10"]) == 0
    assert main(["--frontend", "--case-seed", "7"]) == 0
