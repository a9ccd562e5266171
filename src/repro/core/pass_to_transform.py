"""Convert pass pipelines into transform scripts (case study 1, §4.1).

The paper modified MLIR to automatically create a Transform script from
a pass pipeline, using the generic ``transform.apply_registered_pass``
transform to invoke MLIR passes. This module does the same: a pipeline
string or pass-name list becomes a ``transform.sequence`` chaining one
``apply_registered_pass`` per pass.
"""

from __future__ import annotations

from typing import List, Sequence, Union

from ..ir.core import Operation
from ..passes.manager import PASS_REGISTRY, PassManager, parse_pipeline
from . import dialect as transform


def pipeline_to_transform_script(
    pipeline: Union[str, Sequence[str], PassManager],
) -> Operation:
    """Build a transform script module equivalent to ``pipeline``.

    The resulting script applies each pass to the payload root in
    order — the identical compilation flow, interpreted through the
    Transform dialect (the worst-case overhead scenario measured in
    Table 1).
    """
    if isinstance(pipeline, str):
        pipeline = parse_pipeline(pipeline)
    if isinstance(pipeline, PassManager):
        names = [p.NAME for p in pipeline.passes]
    else:
        names = list(pipeline)

    for name in names:
        if name not in PASS_REGISTRY:
            raise ValueError(f"unknown pass in pipeline: {name!r}")

    script = Operation.create("builtin.module", regions=1)
    script.regions[0].add_block()
    sequence_op, builder, root = transform.sequence()
    script.regions[0].entry_block.append(sequence_op)

    current = root
    for name in names:
        current = transform.apply_registered_pass(builder, current, name)
    transform.yield_(builder)
    return script


def transform_script_to_pipeline(script: Operation) -> List[str]:
    """The inverse direction: extract the pass names a script applies."""
    names: List[str] = []
    for op in script.walk_ops("transform.apply_registered_pass"):
        pass_name = op.attr("pass_name")
        if pass_name is not None:
            names.append(pass_name.value)  # type: ignore[union-attr]
    return names
