"""Tests for receptive-field composition and the fused-block planner."""

import pytest

from repro.core.multilayer import (
    BottleneckSpec,
    ConvStage,
    InvertedBottleneckPlanner,
    compose_receptive_field,
)
from repro.errors import PlanError


class TestConvStage:
    def test_out_extent(self):
        assert ConvStage("c", 3, 1, 1, 8).out_extent(10) == 10  # same padding
        assert ConvStage("c", 3, 2, 1, 8).out_extent(10) == 5
        assert ConvStage("c", 1, 2, 0, 8).out_extent(9) == 5
        assert ConvStage("c", 3, 1, 0, 8).out_extent(10) == 8  # valid

    def test_collapse_rejected(self):
        with pytest.raises(PlanError):
            ConvStage("c", 7, 1, 0, 8).out_extent(6)

    def test_validation(self):
        with pytest.raises(PlanError):
            ConvStage("c", 0, 1, 0, 8)
        with pytest.raises(PlanError):
            ConvStage("c", 3, 1, 0, 0)


class TestReceptiveField:
    def test_single_conv(self):
        rf = compose_receptive_field([ConvStage("c", 3, 1, 1, 8)])
        assert (rf.size, rf.jump, rf.offset) == (3, 1, -1)

    def test_pointwise_chain_identity(self):
        rf = compose_receptive_field(
            [ConvStage("a", 1, 1, 0, 8), ConvStage("b", 1, 1, 0, 8)]
        )
        assert (rf.size, rf.jump, rf.offset) == (1, 1, 0)

    def test_bottleneck_stride1(self):
        spec = BottleneckSpec("t", 8, 8, 16, 8, 3, (1, 1, 1))
        rf = compose_receptive_field(spec.stages)
        assert (rf.size, rf.jump, rf.offset) == (3, 1, -1)

    def test_bottleneck_strided_dw(self):
        spec = BottleneckSpec("t", 8, 8, 16, 8, 3, (1, 2, 1))
        rf = compose_receptive_field(spec.stages)
        assert rf.jump == 2

    def test_strided_expand(self):
        # B1-style: stride-2 pointwise expand widens the jump and window
        spec = BottleneckSpec("t", 16, 3, 8, 8, 3, (2, 1, 1))
        rf = compose_receptive_field(spec.stages)
        assert rf.jump == 2
        assert rf.size == 5  # (3-1)*2 + 1

    def test_input_range(self):
        rf = compose_receptive_field([ConvStage("c", 3, 1, 1, 8)])
        assert rf.input_range(0) == (-1, 1)
        assert rf.input_range(4) == (3, 5)

    def test_empty_chain_rejected(self):
        with pytest.raises(PlanError):
            compose_receptive_field([])


class TestBottleneckSpec:
    def test_residual_rule(self):
        assert BottleneckSpec("t", 8, 16, 32, 16, 3, (1, 1, 1)).has_residual
        assert not BottleneckSpec("t", 8, 16, 32, 24, 3, (1, 1, 1)).has_residual
        assert not BottleneckSpec("t", 8, 16, 32, 16, 3, (1, 2, 1)).has_residual
        # k=4's padding of 1 shrinks 8x8 to 7x7: no shape-preserving skip
        assert not BottleneckSpec("t", 8, 16, 32, 16, 4, (1, 1, 1)).has_residual

    def test_tensor_sizes(self):
        spec = BottleneckSpec("t", 20, 16, 48, 16, 3, (1, 1, 1))
        assert spec.in_bytes == 20 * 20 * 16
        assert spec.mid_bytes == 20 * 20 * 48
        assert spec.out_bytes == 20 * 20 * 16

    def test_spatial_out_with_strides(self):
        spec = BottleneckSpec("t", 16, 8, 16, 8, 3, (2, 1, 1))
        assert spec.mid_spatial() == 8
        assert spec.spatial_out() == 8

    def test_fusable_padding_aware(self):
        # 7x7 dw on a 6x6 image works with same padding (B16)
        assert BottleneckSpec("t", 6, 96, 480, 96, 7, (1, 1, 1)).fusable()

    def test_validation(self):
        with pytest.raises(PlanError):
            BottleneckSpec("t", 0, 8, 16, 8, 3, (1, 1, 1))
        with pytest.raises(PlanError):
            BottleneckSpec("t", 8, 8, 16, 8, 3, (1, 1))


class TestInvertedBottleneckPlanner:
    def test_segment_size_policy(self):
        planner = InvertedBottleneckPlanner()
        assert planner.segment_bytes(
            BottleneckSpec("t", 8, 16, 48, 16, 3, (1, 1, 1))
        ) == 16
        # non-dividing min falls back to gcd
        assert planner.segment_bytes(
            BottleneckSpec("t", 8, 24, 48, 16, 3, (1, 1, 1))
        ) == 8

    def test_workspace_recompute_matches_paper_count(self):
        # 3x3 + 1 + 1 segments (Figure 6): 9*c_mid + c_mid + c_out bytes
        spec = BottleneckSpec("t", 20, 16, 48, 16, 3, (1, 1, 1))
        planner = InvertedBottleneckPlanner(halo_mode="recompute")
        assert planner.workspace_bytes(spec) == 9 * 48 + 48 + 16

    def test_workspace_cache_rows(self):
        spec = BottleneckSpec("t", 20, 16, 48, 16, 3, (1, 1, 1))
        planner = InvertedBottleneckPlanner(halo_mode="cache_rows")
        assert planner.workspace_bytes(spec) == 3 * 20 * 48 + 48 + 16

    def test_bad_halo_mode(self):
        with pytest.raises(PlanError):
            InvertedBottleneckPlanner(halo_mode="nope")

    def test_plan_s1_shape(self):
        # S1: distance is one image row plus one pixel (window halo)
        spec = BottleneckSpec("S1", 20, 16, 48, 16, 3, (1, 1, 1))
        plan = InvertedBottleneckPlanner().plan(spec)
        assert plan.seg_bytes == 16
        assert plan.distance == 21
        assert plan.in_segments == 400
        assert plan.span_slots == 421

    def test_plan_eliminates_intermediates(self):
        spec = BottleneckSpec("t", 12, 8, 32, 8, 3, (1, 1, 1))
        plan = InvertedBottleneckPlanner().plan(spec)
        # the pool never holds B or C; footprint far below A+B
        assert plan.footprint_bytes < spec.in_bytes + spec.mid_bytes
        assert plan.eliminated_bytes > 0

    def test_plan_footprint_monotone_in_image(self):
        planner = InvertedBottleneckPlanner()
        sizes = [
            planner.plan(
                BottleneckSpec("t", hw, 8, 16, 8, 3, (1, 1, 1))
            ).footprint_bytes
            for hw in (8, 12, 16)
        ]
        assert sizes == sorted(sizes)

    def test_unfusable_rejected(self):
        # even kernel on a 1x1 image: 4 > 1 + 2*1, not computable even
        # with the same-style padding (the paper's excluded-block case)
        spec = BottleneckSpec("t", 1, 8, 16, 8, 4, (1, 1, 1))
        assert not spec.fusable()
        with pytest.raises(PlanError):
            InvertedBottleneckPlanner().plan(spec)
