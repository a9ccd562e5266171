"""Constrained tuning-parameter spaces (Fig. 10 of the paper).

A :class:`SearchSpace` holds ordinal parameters plus *constraints*
(predicates over full configurations) — e.g. "tile sizes must divide
their dimension" and "vectorization is disabled if the innermost trip
count is not divisible by the vector size".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Sequence

import numpy as np

Config = Dict[str, int]


@dataclass(frozen=True)
class Parameter:
    """An ordinal tuning parameter with an explicit value set."""

    name: str
    values: tuple

    @staticmethod
    def of(name: str, values: Sequence[int]) -> "Parameter":
        if not values:
            raise ValueError(f"parameter {name!r} needs at least one value")
        return Parameter(name, tuple(values))

    @staticmethod
    def divisors_of(name: str, n: int) -> "Parameter":
        """All divisors of ``n`` (the Fig. 10 tile-size sets)."""
        values = [d for d in range(1, n + 1) if n % d == 0]
        return Parameter(name, tuple(values))


class SearchSpace:
    """Parameters + configuration constraints."""

    def __init__(self, parameters: Sequence[Parameter],
                 constraints: Sequence[Callable[[Config], bool]] = ()):
        if not parameters:
            raise ValueError("search space needs at least one parameter")
        self.parameters = list(parameters)
        self.constraints = list(constraints)
        names = [p.name for p in self.parameters]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")

    # -- membership --------------------------------------------------------

    def is_valid(self, config: Config) -> bool:
        for parameter in self.parameters:
            if config.get(parameter.name) not in parameter.values:
                return False
        return all(constraint(config) for constraint in self.constraints)

    # -- enumeration / sampling ----------------------------------------------

    def all_configs(self) -> Iterator[Config]:
        """Every valid configuration (cartesian product, filtered)."""
        names = [p.name for p in self.parameters]
        for combo in itertools.product(
            *(p.values for p in self.parameters)
        ):
            config = dict(zip(names, combo))
            if all(constraint(config) for constraint in self.constraints):
                yield config

    def size(self) -> int:
        return sum(1 for _ in self.all_configs())

    def sample(self, rng: np.random.Generator,
               max_attempts: int = 10_000) -> Config:
        """Rejection-sample a valid configuration."""
        for _ in range(max_attempts):
            config = {
                p.name: p.values[int(rng.integers(len(p.values)))]
                for p in self.parameters
            }
            if all(constraint(config) for constraint in self.constraints):
                return config
        raise RuntimeError(
            "could not sample a valid configuration; constraints may be "
            "unsatisfiable"
        )

    def sample_batch(self, rng: np.random.Generator,
                     count: int) -> List[Config]:
        return [self.sample(rng) for _ in range(count)]

    # -- encoding for surrogate models --------------------------------------

    def encode(self, config: Config) -> np.ndarray:
        """Normalize a config to [0, 1]^d by value-set position."""
        out = np.empty(len(self.parameters))
        for index, parameter in enumerate(self.parameters):
            position = parameter.values.index(config[parameter.name])
            denominator = max(len(parameter.values) - 1, 1)
            out[index] = position / denominator
        return out

    def encode_batch(self, configs: Sequence[Config]) -> np.ndarray:
        return np.stack([self.encode(c) for c in configs])
