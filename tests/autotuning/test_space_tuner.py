"""Tests for constrained search spaces and the tuners."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autotuning import (
    BayesianTuner,
    Parameter,
    RandomSearchTuner,
    SearchSpace,
)


def make_space():
    return SearchSpace(
        parameters=[
            Parameter.of("x", [1, 2, 4, 8]),
            Parameter.of("y", [1, 2, 4, 8]),
        ],
        constraints=[lambda c: c["x"] * c["y"] <= 16],
    )


class TestParameter:
    def test_divisors(self):
        p = Parameter.divisors_of("t", 12)
        assert p.values == (1, 2, 3, 4, 6, 12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Parameter.of("t", [])


class TestSearchSpace:
    def test_validity(self):
        space = make_space()
        assert space.is_valid({"x": 2, "y": 8})
        assert not space.is_valid({"x": 8, "y": 8})  # constraint
        assert not space.is_valid({"x": 3, "y": 1})  # not in values

    def test_enumeration_respects_constraints(self):
        space = make_space()
        configs = list(space.all_configs())
        assert all(c["x"] * c["y"] <= 16 for c in configs)
        assert space.size() == len(configs)

    def test_sampling_valid(self):
        space = make_space()
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert space.is_valid(space.sample(rng))

    def test_unsatisfiable_constraint(self):
        space = SearchSpace(
            [Parameter.of("x", [1])], [lambda c: False]
        )
        with pytest.raises(RuntimeError, match="unsatisfiable"):
            space.sample(np.random.default_rng(0), max_attempts=10)

    def test_encode_normalized(self):
        space = make_space()
        encoded = space.encode({"x": 1, "y": 8})
        assert encoded[0] == 0.0
        assert encoded[1] == 1.0

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SearchSpace([Parameter.of("x", [1]), Parameter.of("x", [2])])

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_sample_always_valid(self, seed):
        space = make_space()
        config = space.sample(np.random.default_rng(seed))
        assert space.is_valid(config)


def quadratic(config):
    """Minimum at x=4, y=2."""
    return (config["x"] - 4) ** 2 + (config["y"] - 2) ** 2


class TestRandomSearch:
    def test_finds_reasonable_point(self):
        space = make_space()
        result = RandomSearchTuner(seed=0).minimize(
            quadratic, space, n_trials=30
        )
        assert result.best.value <= 1.0

    def test_best_so_far_monotone(self):
        space = make_space()
        result = RandomSearchTuner(seed=1).minimize(
            quadratic, space, n_trials=20
        )
        curve = result.best_so_far()
        assert all(a >= b for a, b in zip(curve, curve[1:]))

    def test_trials_recorded(self):
        space = make_space()
        result = RandomSearchTuner(seed=2).minimize(
            quadratic, space, n_trials=10
        )
        assert len(result.trials) == 10


class TestBayesianTuner:
    def test_finds_optimum(self):
        space = make_space()
        result = BayesianTuner(seed=0, n_initial=4).minimize(
            quadratic, space, n_trials=20
        )
        assert result.best.value == 0.0
        assert result.best.config == {"x": 4, "y": 2}

    def test_at_least_matches_random(self):
        space = SearchSpace(
            [Parameter.of("x", list(range(1, 33))),
             Parameter.of("y", list(range(1, 33)))],
        )

        def rosenbrockish(config):
            return (
                (config["x"] - 20) ** 2 + (config["y"] - 7) ** 2
                + 0.1 * config["x"] * config["y"]
            )

        bayes = BayesianTuner(seed=3, n_initial=5).minimize(
            rosenbrockish, space, n_trials=25
        )
        random = RandomSearchTuner(seed=3).minimize(
            rosenbrockish, space, n_trials=25
        )
        assert bayes.best.value <= random.best.value * 1.25

    def test_respects_constraints(self):
        space = make_space()
        result = BayesianTuner(seed=1).minimize(
            quadratic, space, n_trials=15
        )
        assert all(
            space.is_valid(trial.config) for trial in result.trials
        )

    def test_speedup_evolution(self):
        space = make_space()
        result = BayesianTuner(seed=0).minimize(
            lambda c: quadratic(c) + 1.0, space, n_trials=10
        )
        evolution = result.speedup_evolution(baseline=10.0)
        assert len(evolution) == 10
        assert all(b >= a - 1e-12 for a, b in
                   zip(evolution, evolution[1:]))
