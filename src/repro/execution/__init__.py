"""Execution substrate: payload interpreter + performance simulator.

The paper measures on real x86 hardware; this repo substitutes

* a **reference interpreter** (:mod:`repro.execution.interpreter`)
  executing payload IR on numpy buffers — used to validate that every
  loop transformation preserves semantics, and
* an **analytic, cache-aware cost model**
  (:mod:`repro.execution.costmodel`) — used to *estimate* runtimes so
  the performance shapes of case studies 4 and 5 (tiling locality,
  microkernel speedups, autotuning convergence) are reproduced
  mechanistically rather than asserted.
"""

from .interpreter import ExecutionError, PayloadInterpreter
from .costmodel import CacheLevel, CostModel, MachineSpec
from .workloads import (
    build_batch_matmul_module,
    build_matmul_module,
    build_resnet_layer_module,
    reference_matmul,
)

__all__ = [
    "CacheLevel",
    "CostModel",
    "ExecutionError",
    "MachineSpec",
    "PayloadInterpreter",
    "build_batch_matmul_module",
    "build_matmul_module",
    "build_resnet_layer_module",
    "reference_matmul",
]
