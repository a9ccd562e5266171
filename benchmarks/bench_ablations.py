"""Ablation benchmarks for the design choices DESIGN.md calls out.

1. handle-invalidation tracking cost (safety mechanism overhead);
2. script pre-simplification (include inlining + no-op folding, §3.4);
3. dynamic IRDL condition checking overhead;
4. greedy-driver scaling with pattern-set size (case-study-3 scale).
"""

import pytest

from repro.core import (
    DynamicConditionChecker,
    TransformInterpreter,
    dialect as transform,
    expand_includes,
    pipeline_to_transform_script,
)
from repro.enzyme import ALL_PATTERN_NAMES, build_llm_block_module, make_pattern
from repro.execution.workloads import build_resnet_layer_module
from repro.ir import Builder, Operation
from repro.passes.manager import PassManager
from repro.rewrite.greedy import apply_patterns_greedily


def fig8_script():
    script, builder, root = transform.sequence()
    loop = transform.match_op(builder, root, "scf.for",
                              position="first")
    main, rest = transform.loop_split(builder, loop, 32)
    outer, inner = transform.loop_tile(builder, main, [32, 32])
    alts = transform.alternatives(builder, 2)
    first = Builder.at_end(alts.regions[0].entry_block)
    transform.to_library(first, inner, "libxsmm")
    transform.yield_(first)
    transform.loop_unroll(builder, rest, full=True)
    transform.yield_(builder)
    return script


@pytest.mark.parametrize("track", [True, False],
                         ids=["tracking-on", "tracking-off"])
def test_ablation_invalidation_tracking(benchmark, track):
    """Cost of nested-alias invalidation tracking (§3.1 safety)."""

    def run():
        payload = build_resnet_layer_module()
        interpreter = TransformInterpreter(track_invalidation=track)
        interpreter.apply(fig8_script(), payload)
        return payload

    benchmark(run)


def _script_with_noops():
    """A script padded with no-op transforms and macro includes."""
    module = Operation.create("builtin.module", regions=1)
    module.regions[0].add_block()
    macro, macro_builder, macro_args = transform.named_sequence(
        "noop_macro", n_args=1
    )
    noop_loop = transform.match_op(macro_builder, macro_args[0],
                                   "scf.for", position="first")
    transform.loop_unroll(macro_builder, noop_loop, factor=1)
    transform.yield_(macro_builder)
    module.regions[0].entry_block.append(macro)

    seq, builder, root = transform.sequence()
    for _ in range(8):
        transform.include(builder, "noop_macro", [root])
        transform.match_op(builder, root, "scf.for")  # dead match
        transform.param_constant(builder, 8)  # dead param
    loop = transform.match_op(builder, root, "scf.for",
                              position="first")
    main, rest = transform.loop_split(builder, loop, 32)
    transform.loop_tile(builder, main, [32, 32])
    transform.loop_unroll(builder, rest, full=True)
    transform.yield_(builder)
    module.regions[0].entry_block.append(seq)
    return module


@pytest.mark.parametrize("simplify", [False, True],
                         ids=["raw-script", "pre-simplified"])
def test_ablation_script_presimplification(benchmark, simplify):
    """§3.4: simplifying the transform IR saves payload-side work."""

    def run():
        payload = build_resnet_layer_module()
        script = _script_with_noops()
        expand_includes(script)
        if simplify:
            PassManager(["canonicalize", "cse"]).run(script)
        sequence = next(script.walk_ops("transform.sequence"))
        TransformInterpreter().apply(sequence, payload)
        return payload

    benchmark(run)


FIXED_PIPELINE = [
    "convert-scf-to-cf", "convert-arith-to-llvm", "convert-cf-to-llvm",
    "convert-func-to-llvm", "expand-strided-metadata", "lower-affine",
    "convert-arith-to-llvm", "finalize-memref-to-llvm",
    "reconcile-unrealized-casts",
]


@pytest.mark.parametrize("checked", [False, True],
                         ids=["plain", "irdl-checked"])
def test_ablation_dynamic_condition_checking(benchmark, checked):
    """Cost of verifying declared conditions while compiling (§3.3)."""
    from tests.passes.test_lowerings import build_subview_payload

    def run():
        payload = build_subview_payload(dynamic_offset=True)
        script = pipeline_to_transform_script(FIXED_PIPELINE)
        interpreter = (
            DynamicConditionChecker() if checked
            else TransformInterpreter()
        )
        interpreter.apply(script, payload)
        return payload

    benchmark(run)


@pytest.mark.parametrize("n_patterns", [10, 50, 101],
                         ids=["10-patterns", "50-patterns",
                              "101-patterns"])
def test_ablation_pattern_set_scaling(benchmark, n_patterns):
    """Greedy-driver cost as the pattern set grows (case-3 scale)."""
    names = ALL_PATTERN_NAMES[:n_patterns]

    def run():
        payload = build_llm_block_module(seq=64, dim=64, n_blocks=2)
        apply_patterns_greedily(
            payload, [make_pattern(n) for n in names]
        )
        return payload

    benchmark(run)
