#!/usr/bin/env python
"""Quickstart: the paper's Fig. 1 worked example, end to end.

Builds the payload program (a function with an uneven nested loop),
writes the ``@split_then_tile_and_unroll`` transform script using the
public builder API, interprets it, and shows that the deliberate
line-11 error (unrolling an already-consumed handle) is caught both
statically and dynamically.

Run:  python examples/quickstart.py
"""

from repro.analysis import analyze_script
from repro.core import (
    TransformInterpreter,
    TransformInterpreterError,
    dialect as transform,
)
from repro.execution.workloads import build_uneven_loop_module


def build_script(with_line_11_error: bool):
    """Fig. 1a, transcribed with the builder API."""
    script, builder, func_handle = transform.sequence()

    # %outer = match.op "scf.for" {first} in %func
    outer = transform.match_op(builder, func_handle, "scf.for",
                               position="first")
    # %hoisted = loop.hoist from %outer to %func
    function = transform.match_op(builder, func_handle, "func.func",
                                  position="last")
    transform.loop_hoist(builder, outer, function)
    # %inner = match.op "scf.for" {first} in %outer
    inner = transform.match_op(builder, outer, "scf.for",
                               position="first")
    # %param = param.constant 8
    param = transform.param_constant(builder, 8)
    # %part:2 = loop.split %inner ub_div_by=%param
    part_1, part_2 = transform.loop_split(builder, inner, param)
    # %tiled:2 = loop.tile %part#1 tile_sizes=[%param]
    transform.loop_tile(builder, part_1, param)
    # %unrolled = loop.unroll %part#2 {full}
    transform.loop_unroll(builder, part_2, full=True)
    if with_line_11_error:
        # line 11: %unrolled2 = loop.unroll %part#2 {full}
        transform.loop_unroll(builder, part_2, full=True)
    transform.yield_(builder)
    return script


def main() -> None:
    payload = build_uneven_loop_module()
    print("=== initial payload IR (Fig. 1b) ===")
    print(payload)

    script = build_script(with_line_11_error=False)
    print("\n=== transform script (Fig. 1a) ===")
    print(script)

    result = TransformInterpreter().apply(script, payload)
    print(f"\ninterpretation: {result}")
    payload.verify()
    print("\n=== transformed payload IR (Fig. 1c) ===")
    print(payload)

    # --- the deliberate error of line 11 ---------------------------------
    broken = build_script(with_line_11_error=True)
    print("\n=== line 11: static detection (§3.4) ===")
    for issue in analyze_script(broken, may_alias=False):
        print(f"static error: {issue}")

    print("\n=== line 11: dynamic detection (§3.1) ===")
    try:
        TransformInterpreter().apply(broken, build_uneven_loop_module())
    except TransformInterpreterError as error:
        print(f"dynamic error: {error}")


if __name__ == "__main__":
    main()
