"""Smoke tests for the schedule/payload fuzzer (fixed seeds).

The heavier sweep runs as the CI ``fuzz`` job; here small fixed-seed
runs assert the invariants hold on both legs of every case and the
harness itself behaves deterministically.
"""

import random

import pytest

from repro.core.interpreter import find_entry
from repro.ir.printer import print_op
from repro.testing import fuzz
from repro.testing.fuzz import (
    build_rollback_case,
    main,
    run_case,
    run_fuzz,
)


@pytest.fixture(scope="module")
def seed1_report():
    """100 cases (200 scripts) from seed 1: enough for every outcome
    kind of each leg to show."""
    return run_fuzz(seed=1, cases=100)


class TestFuzzInvariants:
    def test_fixed_seed_run_holds_all_invariants(self, fuzz_seed0_report):
        report = fuzz_seed0_report
        assert report.ok, report.render()
        assert report.cases == 40
        for leg, counts in report.outcomes.items():
            assert sum(counts.values()) == 40, leg
            assert counts.get("crash", 0) == 0, leg

    def test_outcomes_cover_failure_space(self, seed1_report):
        """Across a few hundred cases each generator must exercise both
        success and failure paths, or the fuzzing proves nothing."""
        assert seed1_report.ok, seed1_report.render()
        for leg in ("textual", "builder"):
            assert seed1_report.outcomes[leg]["success"] > 0, leg
            assert seed1_report.outcomes[leg]["silenceable"] > 0, leg

    def test_run_case_is_deterministic(self):
        outcomes1, failures1 = run_case(4242)
        outcomes2, failures2 = run_case(4242)
        assert not failures1 and not failures2
        assert outcomes1.keys() == outcomes2.keys() == {"textual",
                                                        "builder"}
        for leg, first in outcomes1.items():
            again = outcomes2[leg]
            assert (first.kind, first.message, first.payload_print) == \
                (again.kind, again.message, again.payload_print), leg

    @pytest.mark.parametrize("case_seed", [2000062, 2000110, 3000151])
    def test_scf_to_cf_on_a_loop_handle_fails_definite(self, case_seed):
        """The builder leg runs ``convert-scf-to-cf`` on a handle to
        ``scf.for`` ops: the pass refuses the loop it would have left
        with a multi-block body, and the run stops definite."""
        outcomes, failures = run_case(case_seed)
        assert not failures, failures
        assert outcomes["builder"].kind == "definite"
        assert "convert-scf-to-cf failed" in outcomes["builder"].message

    def test_rollback_case_shape(self):
        scoped = set()
        for seed in range(8):
            payload, script = build_rollback_case(random.Random(seed))
            assert payload.name == "builtin.module"
            alts = [op for op in script.walk()
                    if op.name == "transform.alternatives"]
            assert len(alts) >= 1
            # Region 2 of the outermost alternatives is the empty
            # fallback, or, in a case scoped to a loop, annotates it.
            scoped.add(alts[0].num_operands)
            fallback = [op.name
                        for op in alts[0].regions[1].entry_block.ops]
            assert fallback == (["transform.annotate"]
                                if alts[0].num_operands else [])
            print_op(payload)  # printable (verifies in module())
        assert scoped == {0, 1}


class TestNormalizationOracle:
    def test_a_raising_pipeline_is_a_failure_report(self, monkeypatch):
        """``expand_includes`` raising inside the normalization oracle
        is reported against the case seed; the run goes on."""
        def raising(script):
            raise RuntimeError("injected")

        monkeypatch.setattr(fuzz, "expand_includes", raising)
        outcomes, failures = run_case(4242)
        assert {outcome.kind for outcome in outcomes.values()} \
            <= {"success", "silenceable"}
        contained = [failure for failure in failures
                     if failure.invariant == "normalize-containment"]
        assert sorted(failure.detail.split(":")[0]
                      for failure in contained) == ["builder", "textual"]
        assert all(failure.case_seed == 4242 and "injected" in
                   failure.detail for failure in contained)

    def test_builder_cases_are_normalized(self, monkeypatch):
        """A normalization that drops an op from the entry sequence is
        caught on builder-made scripts, so the oracle sees them."""
        normalize = fuzz._normalize

        def drop_an_op(script):
            normalize(script)
            ops = find_entry(script).regions[0].entry_block.ops
            next(op for op in reversed(ops)
                 if op.name != "transform.yield"
                 and not any(result.users for result in op.results)
                 ).erase()

        monkeypatch.setattr(fuzz, "_normalize", drop_an_op)
        monkeypatch.setattr(fuzz, "LEGS",
                            {"builder": fuzz.LEGS["builder"]})
        caught = [failure for case_seed in range(10)
                  for failure in run_case(case_seed)[1]
                  if failure.invariant.startswith("normalize-keeps-")]
        assert caught
        assert all(failure.detail.startswith("builder: ")
                   for failure in caught)


class TestDifferentialFuzz:
    def test_differential_invariants_hold(self, seed1_report):
        """Every case runs the static oracles and outlining; none of
        them fails on either leg."""
        static = {"static-analysis-containment", "static-soundness",
                  "static-precision", "outline-keeps-outcome"}
        assert not [failure for failure in seed1_report.failures
                    if failure.invariant in static]

    def test_oracle_sees_a_real_dynamic_invalidation(self):
        """Case-seed 40 dynamically dies with a handle-invalidation
        error on the textual leg (verified offline): the soundness
        oracle must accept it — i.e. the static analysis predicted the
        invalidation."""
        outcomes, failures = run_case(40)
        assert outcomes["textual"].kind == "definite"
        assert "invalidated by" in outcomes["textual"].message
        assert not failures, failures

    def test_generator_emits_use_after_consume_chains(self):
        """The closing consume-then-use chain keeps the soundness
        oracle exercised: dynamic invalidation errors must actually
        occur across a modest sweep, or the oracle proves nothing."""
        from repro.testing.fuzz import _build_case, _interpret

        hits = 0
        for case_seed in range(150):
            leg = _build_case(case_seed)
            outcome = _interpret(leg.payload, leg.script)
            if outcome.kind == "definite" \
                    and "invalidated by" in outcome.message:
                hits += 1
        assert hits >= 3


class TestFuzzCli:
    def test_cli_smoke(self, capsys):
        assert main(["--seed", "3", "--cases", "20"]) == 0
        out = capsys.readouterr().out
        assert "fuzz: 20 cases" in out
        assert "textual: 20 (" in out and "builder: 20 (" in out
        assert "all invariants held" in out

    def test_cli_single_case(self, capsys):
        assert main(["--case-seed", "1000044"]) == 0
        assert "case-seed 1000044" in capsys.readouterr().out

    def test_cli_case_seed_replays_both_legs(self, capsys):
        assert main(["--case-seed", "40"]) == 0
        first = capsys.readouterr().out
        assert main(["--case-seed", "40"]) == 0
        assert capsys.readouterr().out == first
        lines = first.splitlines()
        assert lines[0] == "case-seed 40"
        assert lines[1].startswith("  textual: definite: ")
        assert lines[2].startswith("  builder: ")

    @pytest.mark.parametrize("flag", ["--differential", "--frontend"])
    def test_cli_rejects_removed_mode_flags(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([flag, "--cases", "1"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestRollbackOracleBites:
    def test_an_unjournaled_write_fails_rollback_byte_identical(
            self, monkeypatch):
        """A mutant ``set_attr`` that journals no inverse: its writes
        survive a rollback, and the fuzzer's rollback oracle must say
        so."""
        from repro.ir import core
        from repro.ir.attributes import attr

        def unjournaled(op, name, value):
            op.attributes = {**op.attributes, name: attr(value)}

        monkeypatch.setattr(core.Operation, "set_attr", unjournaled)
        invariants = {failure.invariant for case_seed in (1, 3)
                      for failure in run_case(case_seed)[1]}
        assert "rollback-byte-identical" in invariants
