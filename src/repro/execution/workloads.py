"""Payload workload builders shared by tests, examples and benchmarks.

These construct the loop nests the paper's case studies operate on:
plain matmul nests (case 4's ResNet-50 layer is a 196x-something
matmul-shaped nest after im2col), batched matmuls (case 5's autotuning
target), and the Fig. 1 uneven-loop function.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..dialects import arith, builtin, func, memref as memref_dialect, scf
from ..ir.builder import Builder
from ..ir.core import Operation, Value
from ..ir.types import F64, memref


def _matmul_body(builder: Builder, a: Value, b: Value, c: Value,
                 m: int, n: int, k: int) -> Operation:
    """Emit the i/j/k matmul nest; returns the outermost loop."""
    zero = arith.index_constant(builder, 0)
    one = arith.index_constant(builder, 1)
    m_bound = arith.index_constant(builder, m)
    n_bound = arith.index_constant(builder, n)
    k_bound = arith.index_constant(builder, k)

    loop_i = scf.for_(builder, zero, m_bound, one)
    builder_i = Builder.at_end(loop_i.body)
    loop_j = scf.for_(builder_i, zero, n_bound, one)
    builder_j = Builder.at_end(loop_j.body)
    loop_k = scf.for_(builder_j, zero, k_bound, one)
    builder_k = Builder.at_end(loop_k.body)

    i = loop_i.induction_var
    j = loop_j.induction_var
    kk = loop_k.induction_var
    a_val = memref_dialect.load(builder_k, a, [i, kk])
    b_val = memref_dialect.load(builder_k, b, [kk, j])
    c_val = memref_dialect.load(builder_k, c, [i, j])
    product = arith.mulf(builder_k, a_val, b_val)
    accumulated = arith.addf(builder_k, c_val, product)
    memref_dialect.store(builder_k, accumulated, c, [i, j])
    scf.yield_(builder_k)
    scf.yield_(Builder.at_end(loop_j.body))
    scf.yield_(Builder.at_end(loop_i.body))
    return loop_i


def build_matmul_module(m: int, n: int, k: int,
                        function_name: str = "matmul") -> Operation:
    """``func @matmul(%A: memref<mxk>, %B: memref<kxn>, %C: memref<mxn>)``.

    The canonical C[i,j] += A[i,k] * B[k,j] loop nest.
    """
    module = builtin.module()
    element = F64
    function = func.func(
        function_name,
        [memref(m, k, element_type=element),
         memref(k, n, element_type=element),
         memref(m, n, element_type=element)],
    )
    module.body.append(function)
    builder = Builder.at_end(function.body)
    a, b, c = function.body.args
    _matmul_body(builder, a, b, c, m, n, k)
    func.return_(builder)
    module.verify()
    return module


def build_batch_matmul_module(batch: int, m: int, n: int, k: int,
                              function_name: str = "batch_matmul"
                              ) -> Operation:
    """A batched matmul: an outer batch loop over 3-d memrefs.

    The case-study-5 workload (Fig. 9-11 tunes its tile sizes).
    """
    module = builtin.module()
    element = F64
    function = func.func(
        function_name,
        [memref(batch, m, k, element_type=element),
         memref(batch, k, n, element_type=element),
         memref(batch, m, n, element_type=element)],
    )
    module.body.append(function)
    builder = Builder.at_end(function.body)
    a, b, c = function.body.args

    zero = arith.index_constant(builder, 0)
    one = arith.index_constant(builder, 1)
    batch_bound = arith.index_constant(builder, batch)
    m_bound = arith.index_constant(builder, m)
    n_bound = arith.index_constant(builder, n)
    k_bound = arith.index_constant(builder, k)

    loop_b = scf.for_(builder, zero, batch_bound, one)
    builder_b = Builder.at_end(loop_b.body)
    loop_i = scf.for_(builder_b, zero, m_bound, one)
    builder_i = Builder.at_end(loop_i.body)
    loop_j = scf.for_(builder_i, zero, n_bound, one)
    builder_j = Builder.at_end(loop_j.body)
    loop_k = scf.for_(builder_j, zero, k_bound, one)
    builder_k = Builder.at_end(loop_k.body)

    bb = loop_b.induction_var
    i = loop_i.induction_var
    j = loop_j.induction_var
    kk = loop_k.induction_var
    a_val = memref_dialect.load(builder_k, a, [bb, i, kk])
    b_val = memref_dialect.load(builder_k, b, [bb, kk, j])
    c_val = memref_dialect.load(builder_k, c, [bb, i, j])
    product = arith.mulf(builder_k, a_val, b_val)
    accumulated = arith.addf(builder_k, c_val, product)
    memref_dialect.store(builder_k, accumulated, c, [bb, i, j])
    scf.yield_(builder_k)
    scf.yield_(Builder.at_end(loop_j.body))
    scf.yield_(Builder.at_end(loop_i.body))
    scf.yield_(Builder.at_end(loop_b.body))
    func.return_(builder)
    module.verify()
    return module


def build_resnet_layer_module() -> Operation:
    """The case-study-4 loop nest: a ResNet-50 layer after im2col.

    A 1x1 convolution over a 14x14x... activation becomes a matmul with
    M = 196 (14*14 spatial positions, *not* divisible by the tile size
    32 — which is the whole point of the split-then-tile script),
    N = 256 output channels, K = 256 input channels.
    """
    return build_matmul_module(196, 256, 256, "resnet_layer")


def build_uneven_loop_module(function_name: str = "myFunc") -> Operation:
    """The Fig. 1 payload: nested loops with hoistable constants.

    ``func @myFunc(%values: memref<4x4096x4096>)`` with a j-loop nesting
    an i-loop of trip 2042 (not divisible by 8), whose body loads
    through loop-invariant constants and calls ``@use``.
    """
    module = builtin.module()
    use = func.func("use", [F64], declaration=True)
    module.body.append(use)
    function = func.func(
        function_name, [memref(4, 4096, 4096, element_type=F64)]
    )
    module.body.append(function)
    builder = Builder.at_end(function.body)
    values = function.body.args[0]

    zero = arith.index_constant(builder, 0)
    one = arith.index_constant(builder, 1)
    j_bound = arith.index_constant(builder, 4096)
    loop_j = scf.for_(builder, zero, j_bound, one)
    builder_j = Builder.at_end(loop_j.body)

    # Loop-invariant constants inside the outer loop (hoisting targets).
    c1 = arith.index_constant(builder_j, 1)
    i_zero = arith.index_constant(builder_j, 0)
    i_bound = arith.index_constant(builder_j, 2042)
    i_step = arith.index_constant(builder_j, 1)
    loop_i = scf.for_(builder_j, i_zero, i_bound, i_step)
    builder_i = Builder.at_end(loop_i.body)
    value = memref_dialect.load(
        builder_i, values,
        [c1, loop_i.induction_var, loop_j.induction_var],
    )
    func.call(builder_i, "use", [value])
    scf.yield_(builder_i)
    scf.yield_(Builder.at_end(loop_j.body))
    func.return_(builder)
    module.verify()
    return module


def reference_matmul(m: int, n: int, k: int,
                     seed: int = 0) -> Tuple[np.ndarray, np.ndarray,
                                             np.ndarray, np.ndarray]:
    """Random inputs plus the numpy-reference product for validation."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    c = np.zeros((m, n))
    expected = a @ b
    return a, b, c, expected
