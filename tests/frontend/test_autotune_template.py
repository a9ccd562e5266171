"""Builder templates with param bindings on the autotuning path."""

from repro.analysis.lint import Severity
from repro.autotuning import (
    Parameter,
    RandomSearchTuner,
    SearchSpace,
    case_study_5_template,
    case_study_5_template_problem,
    template_tuning_problem,
    tune_transform_script,
)
from repro.execution.workloads import build_batch_matmul_module


def test_template_is_lint_clean_with_bindings():
    template = case_study_5_template()
    text = template.mlir
    for binding in ("TILE1", "TILE2", "VEC"):
        assert f'binding = "{binding}"' in text
    errors = [d for d in template.lint().diagnostics
              if d.severity is Severity.ERROR]
    assert not errors


def test_template_objective_differentiates_configs():
    problem = case_study_5_template_problem()
    fast = problem.objective({"TILE1": 8, "TILE2": 8, "VEC": 8})
    slow = problem.objective({"TILE1": 1, "TILE2": 1, "VEC": 1})
    assert fast != float("inf") and slow != float("inf")
    assert fast != slow


def test_template_problem_respects_constraints():
    problem = case_study_5_template_problem()
    assert problem.space.is_valid({"TILE1": 4, "TILE2": 4, "VEC": 8})
    assert not problem.space.is_valid({"TILE1": 4, "TILE2": 4, "VEC": 16})


def test_template_tuning_short_run_improves_on_worst():
    problem = case_study_5_template_problem()
    result, summary = tune_transform_script(
        problem, tuner=RandomSearchTuner(seed=3), n_trials=8)
    assert result.trials
    best = result.best
    assert best.value <= max(t.value for t in result.trials)
    assert best.value != float("inf")
    curve = result.best_so_far()
    assert curve == sorted(curve, reverse=True)
    assert summary["best_seconds"] == best.value
    assert summary["baseline_seconds"] > 0


def test_template_tuning_problem_accepts_prebuilt_script():
    template = case_study_5_template()
    script = template.build()
    space = SearchSpace(parameters=[
        Parameter.of("TILE1", [2, 4]),
        Parameter.of("TILE2", [2, 4]),
        Parameter.of("VEC", [1]),
    ])
    problem = template_tuning_problem(
        script, lambda: build_batch_matmul_module(2, 16, 16, 16), space)
    value = problem.objective({"TILE1": 2, "TILE2": 2, "VEC": 1})
    assert value != float("inf")
