"""Unit tests for the fusion cluster accounting (case study 3)."""

import pytest

from repro.dialects import builtin, func
from repro.enzyme.fusion import FusionCostModel
from repro.ir import Builder
from repro.ir.types import F32, tensor


def build_chain(n_elementwise=3, seq=16, dim=16):
    """func(x) { y = tanh(...tanh(x)); return y }"""
    module = builtin.module()
    t = tensor(seq, dim, element_type=F32)
    f = func.func("f", [t], [t])
    module.body.append(f)
    builder = Builder.at_end(f.body)
    current = f.body.args[0]
    ops = []
    for _ in range(n_elementwise):
        op = builder.create("stablehlo.tanh", operands=[current],
                            result_types=[t])
        ops.append(op)
        current = op.result
    func.return_(builder, [current])
    return module, f, ops


class TestClusterAccounting:
    def test_chain_forms_one_cluster(self):
        module, f, ops = build_chain(4)
        clusters = FusionCostModel().build_clusters(f)
        assert len(clusters) == 1
        assert len(clusters[0].ops) == 4

    def test_boundary_excludes_internal_tensors(self):
        module, f, ops = build_chain(3, seq=8, dim=8)
        cluster = FusionCostModel().build_clusters(f)[0]
        # Boundary = the input arg + the returned result: 2 tensors.
        assert cluster.boundary_bytes == pytest.approx(2 * 8 * 8 * 4)

    def test_working_set_counts_all_intermediates(self):
        module, f, ops = build_chain(3, seq=8, dim=8)
        cluster = FusionCostModel().build_clusters(f)[0]
        # input + 3 results = 4 distinct tensors.
        assert cluster.working_set_bytes == pytest.approx(4 * 8 * 8 * 4)

    def test_flops_counts_elements_per_elementwise_op(self):
        module, f, ops = build_chain(2, seq=4, dim=4)
        cluster = FusionCostModel().build_clusters(f)[0]
        assert cluster.flops == pytest.approx(2 * 16)

    def test_constants_excluded_from_clustering(self):
        module = builtin.module()
        t = tensor(4, 4, element_type=F32)
        f = func.func("f", [t], [t])
        module.body.append(f)
        builder = Builder.at_end(f.body)
        constant = builder.create("stablehlo.constant",
                                  result_types=[t],
                                  attributes={"value": 1.0})
        out = builder.create(
            "stablehlo.multiply",
            operands=[f.body.args[0], constant.result],
            result_types=[t],
        )
        func.return_(builder, [out.result])
        clusters = FusionCostModel().build_clusters(f)
        all_ops = [op.name for c in clusters for op in c.ops]
        assert "stablehlo.constant" not in all_ops

    def test_oversized_cluster_penalized(self):
        model = FusionCostModel()
        model.cache_bytes = 64.0  # tiny cache
        module, f, ops = build_chain(3, seq=32, dim=32)
        cluster = model.build_clusters(f)[0]
        base = max(
            cluster.flops / model.peak_flops,
            cluster.boundary_bytes / model.memory_bandwidth,
        ) + model.kernel_launch_seconds
        assert model.cluster_seconds(cluster) > base

    def test_small_cluster_unpenalized(self):
        model = FusionCostModel()
        module, f, ops = build_chain(1, seq=2, dim=2)
        cluster = model.build_clusters(f)[0]
        base = max(
            cluster.flops / model.peak_flops,
            cluster.boundary_bytes / model.memory_bandwidth,
        ) + model.kernel_launch_seconds
        assert model.cluster_seconds(cluster) == pytest.approx(base)

    def test_reduce_rooted_fusion_slowdown(self):
        from repro.dialects import stablehlo as hlo

        module = builtin.module()
        t = tensor(64, element_type=F32)
        f = func.func("f", [t], [tensor(1, element_type=F32)])
        module.body.append(f)
        builder = Builder.at_end(f.body)
        doubled = builder.create("stablehlo.tanh",
                                 operands=[f.body.args[0]],
                                 result_types=[t])
        zero = builder.create("stablehlo.constant",
                              result_types=[tensor(1, element_type=F32)],
                              attributes={"value": 0.0})
        loss = hlo.reduce(builder, doubled.result, zero.result, [0],
                          tensor(1, element_type=F32))
        func.return_(builder, [loss])

        model = FusionCostModel()
        clusters = model.build_clusters(f)
        merged = [c for c in clusters
                  if any(op.name == "stablehlo.reduce" for op in c.ops)]
        assert merged and len(merged[0].ops) > 1  # tanh fused in
        # The slowdown applies to the merged cluster.
        unpenalized = max(
            merged[0].flops / model.peak_flops,
            merged[0].boundary_bytes / model.memory_bandwidth,
        ) + model.kernel_launch_seconds
        assert model.cluster_seconds(merged[0]) >= (
            unpenalized * model.reduce_fusion_slowdown * 0.99
        )
