"""Tuners: random search and BaCO-style Bayesian optimization.

The Bayesian tuner implements the standard GP + expected-improvement
loop on numpy: RBF-kernel Gaussian-process regression over the
normalized configuration encoding, EI acquisition maximized over a
sampled candidate pool from the *constrained* space (so constraints are
respected by construction, as in BaCO).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from .space import Config, SearchSpace

Objective = Callable[[Config], float]

#: The RBF kernel's length scale over the normalized encoding, the
#: noise added to the Gram matrix's diagonal, the exploration margin of
#: expected improvement, and the candidates sampled per acquisition.
_LENGTH_SCALE = 0.3
_NOISE = 1e-6
_XI = 0.01
_CANDIDATE_POOL = 256


@dataclass
class Trial:
    config: Config
    value: float


@dataclass
class TuningResult:
    trials: List[Trial] = field(default_factory=list)

    @property
    def best(self) -> Trial:
        return min(self.trials, key=lambda t: t.value)

    def best_so_far(self) -> List[float]:
        """The Fig. 11 evolution curve: running minimum per iteration."""
        out: List[float] = []
        current = math.inf
        for trial in self.trials:
            current = min(current, trial.value)
            out.append(current)
        return out

    def speedup_evolution(self, baseline: float) -> List[float]:
        return [baseline / value for value in self.best_so_far()]


class RandomSearchTuner:
    """Uniform random sampling from the constrained space."""

    def __init__(self, seed: int = 0):
        self.rng = np.random.default_rng(seed)

    def minimize(self, objective: Objective, space: SearchSpace,
                 n_trials: int = 30) -> TuningResult:
        result = TuningResult()
        seen = set()
        for _ in range(n_trials):
            config = space.sample(self.rng)
            key = tuple(sorted(config.items()))
            if key in seen and space.size() > n_trials:
                config = space.sample(self.rng)
                key = tuple(sorted(config.items()))
            seen.add(key)
            result.trials.append(Trial(config, objective(config)))
        return result


class _GaussianProcess:
    """Minimal RBF-kernel GP regression (numpy only)."""

    def __init__(self):
        self._x: Optional[np.ndarray] = None
        self._alpha: Optional[np.ndarray] = None
        self._chol: Optional[np.ndarray] = None
        self._mean = 0.0
        self._std = 1.0

    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        sq = (
            np.sum(a**2, axis=1)[:, None]
            + np.sum(b**2, axis=1)[None, :]
            - 2.0 * a @ b.T
        )
        return np.exp(-0.5 * np.maximum(sq, 0.0) / _LENGTH_SCALE**2)

    def fit(self, x: np.ndarray, y: np.ndarray) -> None:
        self._mean = float(np.mean(y))
        self._std = float(np.std(y)) or 1.0
        normalized = (y - self._mean) / self._std
        gram = self._kernel(x, x) + _NOISE * np.eye(len(x))
        self._chol = np.linalg.cholesky(gram)
        self._alpha = np.linalg.solve(
            self._chol.T, np.linalg.solve(self._chol, normalized)
        )
        self._x = x

    def predict(self, x: np.ndarray):
        assert self._x is not None and self._alpha is not None
        cross = self._kernel(x, self._x)
        mean = cross @ self._alpha * self._std + self._mean
        v = np.linalg.solve(self._chol, cross.T)
        variance = np.maximum(
            1.0 - np.sum(v**2, axis=0), 1e-12
        ) * self._std**2
        return mean, np.sqrt(variance)


def _expected_improvement(mean: np.ndarray, std: np.ndarray,
                          best: float) -> np.ndarray:
    from scipy.stats import norm

    improvement = best - mean - _XI
    z = improvement / std
    return improvement * norm.cdf(z) + std * norm.pdf(z)


class BayesianTuner:
    """BaCO-style Bayesian optimization over a constrained space."""

    def __init__(self, seed: int = 0, n_initial: int = 5):
        self.rng = np.random.default_rng(seed)
        self.n_initial = n_initial

    def minimize(self, objective: Objective, space: SearchSpace,
                 n_trials: int = 30) -> TuningResult:
        result = TuningResult()
        evaluated: Dict[tuple, float] = {}

        def run(config: Config) -> None:
            key = tuple(sorted(config.items()))
            if key in evaluated:
                value = evaluated[key]
            else:
                value = objective(config)
                evaluated[key] = value
            result.trials.append(Trial(config, value))

        # Phase 1: random initialization.
        for _ in range(min(self.n_initial, n_trials)):
            run(space.sample(self.rng))

        # Phase 2: GP + EI.
        while len(result.trials) < n_trials:
            xs = space.encode_batch([t.config for t in result.trials])
            ys = np.array([t.value for t in result.trials])
            gp = _GaussianProcess()
            try:
                gp.fit(xs, ys)
            except np.linalg.LinAlgError:
                run(space.sample(self.rng))
                continue
            candidates = space.sample_batch(self.rng, _CANDIDATE_POOL)
            fresh = [
                c for c in candidates
                if tuple(sorted(c.items())) not in evaluated
            ] or candidates
            encoded = space.encode_batch(fresh)
            mean, std = gp.predict(encoded)
            acquisition = _expected_improvement(
                mean, std, float(np.min(ys))
            )
            run(fresh[int(np.argmax(acquisition))])
        return result
