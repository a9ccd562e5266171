"""Pass infrastructure and the passes used by the case studies.

Importing this package registers every pass in the global registry so
pipelines can be assembled by name, either through the
:class:`~repro.passes.manager.PassManager` or from a transform script
via ``transform.apply_registered_pass`` (case study 1).
"""

from .manager import (
    PASS_REGISTRY,
    Pass,
    PassManager,
    parse_pipeline,
    register_pass,
)
from . import canonicalize  # noqa: F401
from . import cse  # noqa: F401
from . import inliner  # noqa: F401
from . import licm  # noqa: F401
from . import lowerings  # noqa: F401
from . import stablehlo_lowering  # noqa: F401
from . import tosa_pipeline  # noqa: F401

__all__ = [
    "PASS_REGISTRY",
    "Pass",
    "PassManager",
    "parse_pipeline",
    "register_pass",
]
