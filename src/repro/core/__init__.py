"""The Transform dialect: the paper's primary contribution.

Public surface:

* :mod:`repro.core.dialect` — transform operations and script builders;
* :class:`TransformInterpreter` — executes scripts against payload IR;
* :class:`TransformState` — handle/payload mapping with invalidation;
* :func:`expand_includes` / :func:`infer_ad_dialects` — transformations
  of transform IR (§3.4); ``canonicalize`` and ``cse`` simplify it;
* :func:`pipeline_to_transform_script` — pass pipeline conversion (§4.1);
* :class:`DynamicConditionChecker` — IRDL-backed dynamic checks (§3.3).
"""

from . import dialect  # noqa: F401 — registers the transform ops
from .conditions import (
    TransformConditions,
    conditions_of,
    pass_conditions,
    payload_op_specs,
    spec_matches_name,
    spec_subsumes,
)
from .dialect import (
    LIBRARY_REGISTRY,
    TRANSFORM_PATTERN_REGISTRY,
    TransformOp,
    register_transform_pattern,
)
from .dynamic_checks import ConditionViolation, DynamicConditionChecker
from .errors import (
    FailureKind,
    TransformInterpreterError,
    TransformResult,
)
from .interpreter import InterpreterStats, TransformInterpreter
from .pass_to_transform import (
    pipeline_to_transform_script,
    transform_script_to_pipeline,
)
from .script_transforms import (
    ScriptTransformError,
    expand_includes,
    infer_ad_dialects,
)
from .state import HandleInvalidatedError, StateSnapshot, TransformState
from .transaction import PayloadTransaction, TransactionError
from .types import (
    ANY_OP,
    AnyOpType,
    OperationHandleType,
    PARAM_I64,
    ParamType,
    TransformHandleType,
)

__all__ = [name for name in dir() if not name.startswith("_")]
