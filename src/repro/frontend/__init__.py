"""`repro.frontend`: a Python eDSL for payloads and schedules.

Two authoring surfaces over the textual IR the rest of the system
speaks (nelli-style tracing + the structured-codegen fluent schedule
shape):

* :func:`jit` traces a restricted Python function into a `repro.ir`
  module — ``range`` loops become ``scf.for``, scalar arithmetic
  becomes ``arith``, and the NumPy-ish helpers in
  :mod:`repro.frontend.ops` become ``tosa``/``linalg``/``tensor`` ops.
  Traced modules are digest-stable under print→parse round-trip, so
  they key the compile-service caches exactly like textual payloads.
* :class:`Schedule` builds transform scripts fluently
  (``Schedule().match("linalg.matmul").tile(sizes=[32, 32]).unroll(4)``)
  by stepping each emitted op through the lint's use-after-consume
  analysis, so build-time consumption follows the lint's rule:
  use-after-consume is a Python :class:`ScheduleError`, and emitted
  scripts pass ``repro-lint`` with no error-severity diagnostics by
  construction.

``repro-batch`` / ``repro-submit`` accept ``.py`` modules using either
surface via :mod:`repro.frontend.loader`.
"""

from . import ops
from .errors import FrontendError, ScheduleError, TraceError
from .loader import (
    load_payload_text,
    load_schedule_text,
    read_payload_source,
    read_schedule_source,
)
from .schedule import Handle, Schedule
from .tracer import Tensor, TracedFunction, TracedValue, jit
from ..ir.types import F16, F32, F64, I1, I32, I64, INDEX

__all__ = [
    "F16", "F32", "F64", "I1", "I32", "I64", "INDEX",
    "FrontendError", "Handle", "Schedule", "ScheduleError", "Tensor",
    "TraceError", "TracedFunction", "TracedValue", "jit",
    "load_payload_text", "load_schedule_text", "ops",
    "read_payload_source", "read_schedule_source",
]
