"""Tests for tuning transform scripts end-to-end (case study 5)."""

import pytest

from repro.autotuning import (
    BayesianTuner,
    RandomSearchTuner,
    case_study_5_problem,
    tune_transform_script,
)


@pytest.fixture(scope="module")
def problem():
    # The cost model is analytic: the benchmark instance is as fast as
    # a smaller one.
    return case_study_5_problem()


class TestProblem:
    def test_space_has_constraints(self, problem):
        # VEC=16 invalid because 104 % 16 != 0.
        assert not problem.space.is_valid(
            {"TILE1": 4, "TILE2": 4, "VEC": 16}
        )
        assert problem.space.is_valid(
            {"TILE1": 4, "TILE2": 4, "VEC": 8}
        )

    def test_tile_values_divide_dimension(self, problem):
        tile1 = next(
            p for p in problem.space.parameters if p.name == "TILE1"
        )
        assert all(128 % v == 0 for v in tile1.values)

    def test_objective_runs(self, problem):
        seconds = problem.objective({"TILE1": 4, "TILE2": 4, "VEC": 1})
        assert seconds > 0

    def test_objective_differs_across_configs(self, problem):
        first = problem.objective({"TILE1": 1, "TILE2": 1, "VEC": 1})
        second = problem.objective({"TILE1": 8, "TILE2": 8, "VEC": 8})
        assert first != second

    def test_baseline(self, problem):
        assert problem.baseline_seconds() > 0


class TestTuning:
    def test_bayesian_improves_over_naive(self, problem):
        result, summary = tune_transform_script(
            problem, BayesianTuner(seed=0, n_initial=3), n_trials=12
        )
        assert summary["speedup_over_naive"] > 1.0
        assert summary["best_seconds"] <= result.trials[0].value

    def test_evolution_is_monotone(self, problem):
        _result, summary = tune_transform_script(
            problem, RandomSearchTuner(seed=0), n_trials=10
        )
        evolution = summary["speedup_evolution"]
        assert len(evolution) == 10
        assert all(b >= a - 1e-12 for a, b in
                   zip(evolution, evolution[1:]))
        assert evolution[0] == pytest.approx(1.0)

    def test_best_config_is_valid(self, problem):
        result, summary = tune_transform_script(
            problem, RandomSearchTuner(seed=1), n_trials=8
        )
        assert problem.space.is_valid(summary["best_config"])
