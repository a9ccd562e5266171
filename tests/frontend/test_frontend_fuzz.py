"""Satellite: the builder leg of every fuzz case
(``python -m repro.testing.fuzz``).

Random fluent chains must emit scripts that lint with zero
error-severity diagnostics, face every invariant a textual script
faces, and reject stale-handle reuse at the Python level; a replayed
stale use is flagged by the analysis and never runs in the
interpreter.
"""

import random

from repro.testing.fuzz import FrontendScheduleFuzzer, run_case


def test_frontend_fuzz_smoke(fuzz_seed0_report):
    report = fuzz_seed0_report
    assert report.ok, report.render()
    assert report.cases == 40
    assert sum(report.outcomes["builder"].values()) == 40
    assert not report.outcomes["builder"].get("crash")
    assert "all invariants held" in report.render()


def test_single_case_is_deterministic():
    first, first_failures = run_case(12345)
    again, again_failures = run_case(12345)
    assert not first_failures and not again_failures
    assert (first["builder"].kind, first["builder"].message) == \
        (again["builder"].kind, again["builder"].message)
    assert first["builder"].payload_print == again["builder"].payload_print
    assert first["builder"].probes == again["builder"].probes


def test_stale_probes_never_slip_through():
    # ``violations`` records stale-handle probes the builder FAILED to
    # reject; the guard must hold for every generated chain.
    for seed in range(30):
        fuzzer = FrontendScheduleFuzzer(random.Random(seed))
        fuzzer.build()
        assert not fuzzer.violations, (seed, fuzzer.violations)


def test_replayed_probes_reach_the_interpreter(fuzz_seed0_report):
    """The three-way leg keeps the run-time rule exercised: replayed
    stale-handle probes must actually reach the interpreter and fail
    there with an invalidation error, or the leg proves nothing."""
    report = fuzz_seed0_report
    assert report.probes["reached"] >= 3, report.render()
    assert report.probes["probes"] == (report.probes["lint errors"]
                                       + report.probes["lint warnings"])
    assert "stale probes:" in report.render()
