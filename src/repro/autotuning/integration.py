"""Driving parameterized transform scripts with a tuner (case study 5).

The paper's Fig. 9 script exposes its tile sizes as *parameters*; an
autotuner (BaCO) proposes configurations, the interpreter applies the
script, and a measurement feeds back into the search. Here the
measurement is the cache-aware cost model of
:mod:`repro.execution.costmodel`, so convergence happens for the same
mechanistic reason as on hardware: better tilings have better locality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ..core import dialect as transform
from ..core.interpreter import TransformInterpreter
from ..execution.costmodel import CostModel
from ..execution.workloads import build_batch_matmul_module
from ..ir.core import Operation
from .space import Config, Parameter, SearchSpace
from .tuner import BayesianTuner, TuningResult


@dataclass
class TransformTuningProblem:
    """A tunable compilation problem: payload + parameterized script."""

    space: SearchSpace
    payload_factory: Callable[[], Operation]
    script_factory: Callable[[Config], Operation]
    cost_model: CostModel = field(default_factory=CostModel)
    #: Penalty value for configs whose script fails to apply.
    failure_seconds: float = float("inf")

    def objective(self, config: Config) -> float:
        """Apply the script for ``config`` and return modelled seconds."""
        payload = self.payload_factory()
        script = self.script_factory(config)
        try:
            TransformInterpreter().apply(script, payload)
        except Exception:
            return self.failure_seconds
        return self.cost_model.estimate_module(payload)

    def baseline_seconds(self) -> float:
        """Modelled runtime of the untransformed payload."""
        return self.cost_model.estimate_module(self.payload_factory())


#: The machine vector size VEC is a multiple of (Fig. 10).
_VECTOR_WIDTH = 8


def case_study_5_problem() -> TransformTuningProblem:
    """The Fig. 9/10 setup: tunable tiling of a 4x128x128x104 batch
    matmul.

    Parameters TILE1/TILE2 range over the divisors of the tiled
    dimensions (the "tile sizes must divide their dimension"
    constraint holds by construction of the value sets) and VEC toggles
    vectorization of the innermost loop — disabled unless the innermost
    trip count is divisible by the machine vector size (Fig. 10).
    """
    batch, m, n, k = 4, 128, 128, 104
    space = SearchSpace(
        parameters=[
            Parameter.divisors_of("TILE1", m),
            Parameter.divisors_of("TILE2", n),
            Parameter.of("VEC", [1, _VECTOR_WIDTH, 2 * _VECTOR_WIDTH]),
        ],
        constraints=[
            lambda config: config["VEC"] == 1 or k % config["VEC"] == 0,
        ],
    )

    def payload_factory() -> Operation:
        return build_batch_matmul_module(batch, m, n, k)

    def script_factory(config: Config) -> Operation:
        """The Fig. 9 script with parametric tile sizes."""
        script, builder, root = transform.sequence()
        i_loop = transform.match_op(builder, root, "scf.for",
                                    position="second")
        tile1 = config["TILE1"]
        tile2 = config["TILE2"]
        sizes = transform.param_constant(builder, [tile1, tile2])
        if tile1 > 1 or tile2 > 1:
            _outer, inner = transform.loop_tile(builder, i_loop, sizes)
            scope = inner
        else:
            scope = i_loop
        if config["VEC"] > 1:
            innermost = transform.match_op(builder, scope, "scf.for",
                                           position="last")
            transform.loop_vectorize(builder, innermost, config["VEC"])
        transform.yield_(builder)
        return script

    return TransformTuningProblem(space, payload_factory, script_factory)


def tune_transform_script(
    problem: TransformTuningProblem,
    tuner: Optional[object] = None,
    n_trials: int = 30,
) -> Tuple[TuningResult, Dict[str, object]]:
    """Run the tuning loop; returns the result plus a summary dict with
    the baseline runtime and the speedup evolution (the Fig. 11 series).
    """
    tuner = tuner or BayesianTuner(seed=0)
    result = tuner.minimize(problem.objective, problem.space, n_trials)
    # Fig. 11 normalizes to the first sampled configuration, as is usual
    # for autotuning evolution plots; we also report the untransformed
    # payload's runtime for reference.
    first_sample = result.trials[0].value
    naive = problem.baseline_seconds()
    summary = {
        "baseline_seconds": first_sample,
        "naive_seconds": naive,
        "best_config": result.best.config,
        "best_seconds": result.best.value,
        "final_speedup": first_sample / result.best.value,
        "speedup_over_naive": naive / result.best.value,
        "speedup_evolution": result.speedup_evolution(first_sample),
    }
    return result, summary


# ---------------------------------------------------------------------------
# Frontend builder templates
# ---------------------------------------------------------------------------


def template_tuning_problem(
    template,
    payload_factory: Callable[[], Operation],
    space: SearchSpace,
) -> TransformTuningProblem:
    """A tuning problem driven by ONE schedule template.

    ``template`` is a :class:`repro.frontend.Schedule` (or an already
    built script op) whose ``transform.param.constant {binding}`` knobs
    name the parameters of ``space``. Each trial clones the template
    and rebinds the knobs through the *same* override path the compile
    service uses for job params
    (:func:`repro.service.worker.bind_parameters`), so a configuration
    tuned here is directly replayable as ``--param NAME=VALUE`` against
    ``repro-serve``.
    """
    script = template.build() if hasattr(template, "build") else template

    def script_factory(config: Config) -> Operation:
        bound = script.clone()
        from ..service.worker import bind_parameters
        bind_parameters(bound, dict(config))
        return bound

    return TransformTuningProblem(
        space=space,
        payload_factory=payload_factory,
        script_factory=script_factory,
    )


def case_study_5_template():
    """The Fig. 9 schedule as a frontend builder template: tile sizes
    and vector width are ``param.constant {binding}`` knobs (4, 4 and 1
    until bound) instead of baked-in constants."""
    from ..frontend import Schedule

    schedule = Schedule()
    tile1 = schedule.param(4, binding="TILE1")
    tile2 = schedule.param(4, binding="TILE2")
    vec = schedule.param(1, binding="VEC")
    schedule.match("scf.for", position="second") \
            .tile(sizes=[tile1, tile2], keep="inner")
    schedule.match("scf.for", position="last").vectorize(vec)
    return schedule


def case_study_5_template_problem() -> TransformTuningProblem:
    """The Fig. 9/10 problem re-expressed over the builder template."""
    problem = case_study_5_problem()
    return template_tuning_problem(
        case_study_5_template(), problem.payload_factory, problem.space)
