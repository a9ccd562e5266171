"""Tests for the distributable schedule library (§3.2) and the
annotate/select transforms."""

import numpy as np
import pytest

from repro.core import TransformInterpreter, dialect as transform
from repro.core.schedules import (
    link_schedule_library,
    load_schedule_library,
)
from repro.execution.interpreter import PayloadInterpreter
from repro.execution.workloads import (
    build_matmul_module,
    build_resnet_layer_module,
    reference_matmul,
)
from repro.ir import Builder, Operation
from repro.ir.context import SymbolTable


def script_module():
    module = Operation.create("builtin.module", regions=1)
    module.regions[0].add_block()
    return module


class TestLibrary:
    def test_library_parses(self):
        library = load_schedule_library()
        library.verify()
        assert sorted(SymbolTable(library).symbols()) == [
            "lower_to_llvm",
            "offload_to_microkernel",
            "tile_and_unroll_remainder",
        ]

    def test_linking_copies_sequences(self):
        script = script_module()
        linked = link_schedule_library(script)
        assert linked == 3
        names = [
            op.attr("sym_name").value
            for op in script.walk_ops("transform.named_sequence")
        ]
        assert "tile_and_unroll_remainder" in names

    def test_user_definitions_shadow_library(self):
        script = script_module()
        own, own_builder, own_args = transform.named_sequence(
            "tile_and_unroll_remainder", n_args=1
        )
        transform.yield_(own_builder)
        script.regions[0].entry_block.append(own)
        linked = link_schedule_library(script)
        assert linked == 2  # the shadowed one is skipped
        defined = [
            op for op in script.walk_ops("transform.named_sequence")
            if op.attr("sym_name").value == "tile_and_unroll_remainder"
        ]
        assert len(defined) == 1

    def test_included_schedule_runs_and_preserves_semantics(self):
        payload = build_matmul_module(36, 32, 32)
        script = script_module()
        link_schedule_library(script)
        seq, builder, root = transform.sequence()
        loop = transform.match_op(builder, root, "scf.for",
                                  position="first")
        transform.include(builder, "tile_and_unroll_remainder", [loop],
                          n_results=1)
        transform.yield_(builder)
        script.regions[0].entry_block.append(seq)
        result = TransformInterpreter().apply(script, payload)
        assert result.succeeded
        a, b, c, expected = reference_matmul(36, 32, 32)
        PayloadInterpreter(payload).run("matmul", a, b, c)
        assert np.allclose(c, expected)

    def test_microkernel_schedule_from_library(self):
        payload = build_resnet_layer_module()
        script = script_module()
        link_schedule_library(script)
        seq, builder, root = transform.sequence()
        loop = transform.match_op(builder, root, "scf.for",
                                  position="first")
        transform.include(builder, "offload_to_microkernel", [loop])
        transform.yield_(builder)
        script.regions[0].entry_block.append(seq)
        result = TransformInterpreter().apply(script, payload)
        assert result.succeeded
        calls = [op for op in payload.walk()
                 if op.name == "func.call" and op.attr("microkernel")]
        assert calls

    def test_lowering_schedule_from_library(self):
        from tests.passes.test_lowerings import build_subview_payload

        payload = build_subview_payload(dynamic_offset=True)
        script = script_module()
        link_schedule_library(script)
        seq, builder, root = transform.sequence()
        transform.include(builder, "lower_to_llvm", [root],
                          n_results=1)
        transform.yield_(builder)
        script.regions[0].entry_block.append(seq)
        result = TransformInterpreter().apply(script, payload)
        assert result.succeeded
        names = {op.name for op in payload.walk() if op is not payload}
        assert all(name.startswith("llvm.") for name in names)

    def test_include_expansion_works_on_linked_library(self):
        from repro.core import expand_includes

        script = script_module()
        link_schedule_library(script)
        seq, builder, root = transform.sequence()
        loop = transform.match_op(builder, root, "scf.for",
                                  position="first")
        transform.include(builder, "tile_and_unroll_remainder", [loop],
                          n_results=1)
        transform.yield_(builder)
        script.regions[0].entry_block.append(seq)
        assert expand_includes(script) >= 1
        assert not list(seq.walk_ops("transform.include"))


class TestAnnotateSelect:
    def test_annotate_unit(self):
        payload = build_matmul_module(4, 4, 4)
        script, builder, root = transform.sequence()
        loads = transform.match_op(builder, root, "memref.load")
        transform.annotate(builder, loads, "hot")
        transform.yield_(builder)
        TransformInterpreter().apply(script, payload)
        loads_ops = list(payload.walk_ops("memref.load"))
        assert all(op.attr("hot") is not None for op in loads_ops)

    def test_annotate_with_value(self):
        payload = build_matmul_module(4, 4, 4)
        script, builder, root = transform.sequence()
        loop = transform.match_op(builder, root, "scf.for",
                                  position="last")
        transform.annotate(builder, loop, "unroll_hint", 8)
        transform.yield_(builder)
        TransformInterpreter().apply(script, payload)
        k_loop = [op for op in payload.walk()
                  if op.name == "scf.for"][-1]
        assert k_loop.attr("unroll_hint").value == 8

    def test_annotate_from_param(self):
        from repro.core.state import TransformState

        payload = build_matmul_module(4, 4, 4)
        script, builder, root = transform.sequence()
        loop = transform.match_op(builder, root, "scf.for",
                                  position="first")
        width = transform.param_constant(builder, 16)
        transform.annotate(builder, loop, "vector_hint", width)
        transform.yield_(builder)
        TransformInterpreter().apply(script, payload)
        i_loop = next(payload.walk_ops("scf.for"))
        assert i_loop.attr("vector_hint") == 16 or \
            getattr(i_loop.attr("vector_hint"), "value", None) == 16

    def test_select_filters_by_name(self):
        from repro.core.state import TransformState

        payload = build_matmul_module(4, 4, 4)
        script, builder, root = transform.sequence()
        everything = transform.match_op(
            builder, root, ["memref.load", "memref.store"]
        )
        stores = transform.select(builder, everything, "memref.store")
        transform.yield_(builder)
        state = TransformState(payload)
        state.set_payload(script.body.args[0], [payload])
        TransformInterpreter().run_block(script.body, state)
        selected = state.get_payload(stores)
        assert len(selected) == 1
        assert selected[0].name == "memref.store"

    def test_annotate_then_match_annotation_via_select(self):
        """Scripts replace brittle metadata plumbing (§2.1): the script
        marks ops and later transforms act on the marks."""
        payload = build_matmul_module(8, 4, 4)
        script, builder, root = transform.sequence()
        first = transform.match_op(builder, root, "scf.for",
                                   position="first")
        transform.annotate(builder, first, "tile_me")
        transform.yield_(builder)
        TransformInterpreter().apply(script, payload)
        marked = [op for op in payload.walk()
                  if op.attr("tile_me") is not None]
        assert len(marked) == 1
