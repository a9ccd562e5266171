"""Tests for matmul matching and microkernel library substitution."""

import numpy as np
import pytest

from repro.execution.interpreter import PayloadInterpreter
from repro.execution.workloads import build_matmul_module, reference_matmul
from repro.transforms import (
    LoopTransformError,
    MicrokernelLibrary,
    match_matmul_nest,
    replace_with_library_call,
)


def first_loop(module):
    return next(module.walk_ops("scf.for"))


class TestMatch:
    def test_matches_canonical_matmul(self):
        module = build_matmul_module(4, 8, 16)
        pattern = match_matmul_nest(first_loop(module))
        assert (pattern.m, pattern.n, pattern.k) == (4, 8, 16)
        assert pattern.flops == 2 * 4 * 8 * 16

    def test_identifies_accumulator(self):
        module = build_matmul_module(4, 4, 4)
        f = next(module.walk_ops("func.func"))
        pattern = match_matmul_nest(first_loop(module))
        assert pattern.c is f.body.args[2]
        assert {id(pattern.a), id(pattern.b)} == {
            id(f.body.args[0]), id(f.body.args[1])
        }

    def test_rejects_shallow_nest(self):
        from repro.dialects import arith, builtin, func, scf
        from repro.ir import Builder

        module = builtin.module()
        f = func.func("f", [])
        module.body.append(f)
        builder = Builder.at_end(f.body)
        lb = arith.index_constant(builder, 0)
        ub = arith.index_constant(builder, 4)
        step = arith.index_constant(builder, 1)
        loop = scf.for_(builder, lb, ub, step)
        scf.yield_(Builder.at_end(loop.body))
        func.return_(builder)
        with pytest.raises(LoopTransformError):
            match_matmul_nest(loop)

    def test_rejects_non_matmul_body(self):
        module = build_matmul_module(4, 4, 4)
        loop = first_loop(module)
        # Remove the store: no longer a matmul shape.
        innermost = [op for op in module.walk()
                     if op.name == "scf.for"][-1]
        store = [op for op in innermost.body.ops
                 if op.name == "memref.store"][0]
        store.erase()
        with pytest.raises(LoopTransformError, match="matmul"):
            match_matmul_nest(loop)


class TestLibrary:
    def test_supports(self):
        library = MicrokernelLibrary()
        assert library.find_kernel(32, 32, 256) == \
            "libxsmm_smm_32x32x256"
        assert library.find_kernel(100, 4, 4) is None  # m too large
        assert library.find_kernel(6, 4, 4) is None  # misaligned
        assert library.find_kernel(4, 4, 1024) is None  # k too large

    def test_replace_creates_declaration_and_call(self):
        module = build_matmul_module(32, 32, 32)
        call = replace_with_library_call(first_loop(module))
        module.verify()
        assert call.name == "func.call"
        assert call.attr("microkernel") is not None
        from repro.ir.context import SymbolTable

        declaration = SymbolTable(module).lookup("libxsmm_smm_32x32x32")
        assert declaration is not None
        assert declaration.is_declaration

    def test_replace_fails_silenceably_when_unsupported(self):
        module = build_matmul_module(100, 4, 4)
        with pytest.raises(LoopTransformError, match="no kernel"):
            replace_with_library_call(first_loop(module))
        # Payload untouched (silenceable semantics).
        assert len(list(module.walk_ops("scf.for"))) == 3

    def test_declaration_reused_across_calls(self):
        from repro.ir.context import SymbolTable

        module = build_matmul_module(16, 16, 16)
        replace_with_library_call(first_loop(module))
        # Second function with the same shapes.
        from repro.execution.workloads import build_matmul_module as bm

        other = bm(16, 16, 16, function_name="matmul2")
        second_func = next(other.walk_ops("func.func"))
        other.body.remove(second_func)
        module.body.append(second_func)
        replace_with_library_call(first_loop(second_func))
        declarations = [
            name for name in SymbolTable(module).symbols()
            if name.startswith("libxsmm")
        ]
        assert declarations == ["libxsmm_smm_16x16x16"]

    def test_microkernel_call_executes_as_matmul(self):
        module = build_matmul_module(8, 8, 8)
        replace_with_library_call(module and first_loop(module))
        a, b, c, expected = reference_matmul(8, 8, 8)
        PayloadInterpreter(module).run("matmul", a, b, c)
        assert np.allclose(c, expected)

    def test_tiled_replacement_uses_tile_subviews(self):
        """After tiling, the kernel must see subviews at the tile
        offsets, not the full matrices (regression test)."""
        from repro.transforms import tile_loop_nest

        module = build_matmul_module(16, 16, 8)
        tiles, points = tile_loop_nest(first_loop(module), [8, 8])
        call = replace_with_library_call(points[0])
        assert call.attr("callee").name == "libxsmm_smm_8x8x8"
        # The call's operands are subviews, created right before it.
        assert all(
            operand.defining_op() is not None
            and operand.defining_op().name == "memref.subview"
            for operand in call.operands
        )
        module.verify()
        a, b, c, expected = reference_matmul(16, 16, 8, seed=3)
        PayloadInterpreter(module).run("matmul", a, b, c)
        assert np.allclose(c, expected)

    def test_tiled_pattern_reports_tile_dims(self):
        from repro.transforms import tile_loop_nest

        module = build_matmul_module(16, 16, 8)
        _tiles, points = tile_loop_nest(first_loop(module), [4, 8])
        pattern = match_matmul_nest(points[0])
        assert (pattern.m, pattern.n, pattern.k) == (4, 8, 8)


class TestLinalgUtils:
    def test_generalize_matmul(self):
        from repro.dialects import builtin, func, linalg
        from repro.ir import Builder
        from repro.ir.types import tensor
        from repro.transforms import generalize_named_op

        module = builtin.module()
        t = tensor(4, 4)
        f = func.func("f", [t, t, t], [t])
        module.body.append(f)
        builder = Builder.at_end(f.body)
        matmul = linalg.matmul(builder, *f.body.args, [t])
        func.return_(builder, [matmul.results[0]])
        generic = generalize_named_op(matmul)
        assert generic.name == "linalg.generic"
        assert generic.attr("generalized_from").value == "linalg.matmul"
        body_names = [op.name for op in generic.body.ops]
        assert "arith.mulf" in body_names and "arith.addf" in body_names

    def test_lower_matmul_to_loops(self):
        from repro.dialects import builtin, func, linalg
        from repro.ir import Builder
        from repro.ir.types import memref
        from repro.transforms import lower_linalg_to_loops

        module = builtin.module()
        f = func.func("matmul", [memref(4, 8), memref(8, 4),
                                 memref(4, 4)])
        module.body.append(f)
        builder = Builder.at_end(f.body)
        matmul = linalg.matmul(builder, *f.body.args)
        func.return_(builder)
        loops = lower_linalg_to_loops(matmul)
        module.verify()
        assert len(loops) == 3
        assert [l.trip_count() for l in loops] == [4, 4, 8]
        # The lowered form is a recognisable matmul again.
        pattern = match_matmul_nest(loops[0])
        assert (pattern.m, pattern.n, pattern.k) == (4, 4, 8)

    def test_lower_requires_memrefs(self):
        from repro.dialects import builtin, func, linalg
        from repro.ir import Builder
        from repro.ir.types import tensor
        from repro.transforms import lower_linalg_to_loops

        module = builtin.module()
        t = tensor(4, 4)
        f = func.func("f", [t, t, t], [t])
        module.body.append(f)
        builder = Builder.at_end(f.body)
        matmul = linalg.matmul(builder, *f.body.args, [t])
        func.return_(builder, [matmul.results[0]])
        with pytest.raises(LoopTransformError, match="memref"):
            lower_linalg_to_loops(matmul)
