"""Tests for the fusion cost model and the case-study-3 binary search."""

import pytest

from repro.enzyme import (
    ALL_PATTERN_NAMES,
    CULPRIT_PATTERN,
    FusionCostModel,
    build_llm_block_module,
    evaluate_pattern_set,
    find_counterproductive_pattern,
)
from repro.enzyme.search import build_apply_patterns_script


@pytest.fixture(scope="module")
def payload_factory():
    def factory():
        return build_llm_block_module()

    return factory


class TestFusion:
    def test_clusters_built(self, payload_factory):
        model = FusionCostModel()
        report = model.estimate_module(payload_factory())
        assert len(report.clusters) > 5
        assert report.seconds > 0
        assert len(report.cluster_seconds) == len(report.clusters)

    def test_heavy_ops_not_pulled_into_fusions(self, payload_factory):
        model = FusionCostModel()
        clusters = model.build_clusters(
            next(payload_factory().walk_ops("func.func"))
        )
        for cluster in clusters:
            dot_count = sum(
                1 for op in cluster.ops
                if op.name == "stablehlo.dot_general"
            )
            if dot_count:
                assert len(cluster.ops) == 1

    def test_barriers_stop_fusion(self, payload_factory):
        model = FusionCostModel()
        clusters = model.build_clusters(
            next(payload_factory().walk_ops("func.func"))
        )
        # No cluster contains both a reshape and something fused
        # *through* it (reshape clusters are singletons here).
        for cluster in clusters:
            if any(op.name == "stablehlo.reshape" for op in cluster.ops):
                assert len(cluster.ops) == 1

    def test_gemm_clusters_exempt_from_cache_penalty(self):
        model = FusionCostModel()
        model.cache_bytes = 1.0  # everything oversized
        module = build_llm_block_module(seq=64, dim=64, n_blocks=1)
        function = next(module.walk_ops("func.func"))
        clusters = model.build_clusters(function)
        gemms = [
            c for c in clusters
            if all(op.name == "stablehlo.dot_general" for op in c.ops)
        ]
        for gemm in gemms:
            base = max(
                gemm.flops / model.peak_flops,
                gemm.boundary_bytes / model.memory_bandwidth,
            ) + model.kernel_launch_seconds
            assert model.cluster_seconds(gemm) == pytest.approx(base)


class TestEndToEndEffect:
    def test_pattern_set_helps_overall(self, payload_factory):
        none = evaluate_pattern_set(payload_factory, [])
        good = evaluate_pattern_set(
            payload_factory,
            [n for n in ALL_PATTERN_NAMES if n != CULPRIT_PATTERN],
        )
        assert good.modelled_seconds < none.modelled_seconds

    def test_culprit_is_counterproductive(self, payload_factory):
        """The ~9% penalty of §4.3."""
        good = evaluate_pattern_set(
            payload_factory,
            [n for n in ALL_PATTERN_NAMES if n != CULPRIT_PATTERN],
        )
        full = evaluate_pattern_set(payload_factory, ALL_PATTERN_NAMES)
        penalty = full.modelled_seconds / good.modelled_seconds - 1
        assert 0.04 < penalty < 0.20  # paper: up to 9%

    def test_compile_time_is_seconds_not_minutes(self, payload_factory):
        """Each iteration re-interprets a script: no 10-minute rebuild."""
        iteration = evaluate_pattern_set(
            payload_factory, ALL_PATTERN_NAMES
        )
        assert iteration.compile_seconds < 4.0  # paper: up to 4 s


class TestBinarySearch:
    def test_finds_the_culprit(self, payload_factory):
        result = find_counterproductive_pattern(
            payload_factory, ALL_PATTERN_NAMES
        )
        assert result.culprit == CULPRIT_PATTERN

    def test_iteration_count_logarithmic(self, payload_factory):
        result = find_counterproductive_pattern(
            payload_factory, ALL_PATTERN_NAMES
        )
        # 1 full + 2 per halving + 1 verification.
        import math

        bound = 2 * math.ceil(math.log2(len(ALL_PATTERN_NAMES))) + 3
        assert len(result.iterations) <= bound

    def test_no_culprit_returns_none(self, payload_factory):
        benign = [n for n in ALL_PATTERN_NAMES if n != CULPRIT_PATTERN]
        result = find_counterproductive_pattern(payload_factory, benign)
        assert result.culprit is None

    def test_script_shape_matches_paper_listing(self):
        script = build_apply_patterns_script(
            ["add_of_zero_pad", "negate_of_transpose"]
        )
        apply_op = next(script.walk_ops("transform.apply_patterns"))
        assert apply_op.pattern_names() == [
            "add_of_zero_pad", "negate_of_transpose"
        ]
