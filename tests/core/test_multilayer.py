"""Tests for receptive-field composition and the fused-block planner."""

import sys
import threading
from dataclasses import replace

import pytest

from repro.core.multilayer import (
    BottleneckSpec,
    ConvStage,
    InvertedBottleneckPlanner,
    compose_receptive_field,
)
from repro.errors import PlanError
from repro.graph.models import table2_specs

TABLE2 = table2_specs("vww") + table2_specs("imagenet")


def fresh_geometry(spec: BottleneckSpec) -> dict:
    """Every derived value of ``spec``, recomputed from its fields alone."""
    s1, s2, s3 = spec.strides
    stages = (
        ConvStage("pw_expand", 1, s1, 0, spec.c_mid),
        ConvStage("depthwise", spec.kernel, s2, (spec.kernel - 1) // 2,
                  spec.c_mid),
        ConvStage("pw_project", 1, s3, 0, spec.c_out),
    )
    mid = stages[0].out_extent(spec.hw)
    out = stages[2].out_extent(stages[1].out_extent(mid))
    return dict(
        stages=stages,
        mid_spatial=mid,
        spatial_out=out,
        stride_product=s1 * s2 * s3,
        has_residual=(
            s1 * s2 * s3 == 1 and spec.c_in == spec.c_out and out == spec.hw
        ),
        in_bytes=spec.hw * spec.hw * spec.c_in,
        mid_bytes=mid * mid * spec.c_mid,
        out_bytes=out * out * spec.c_out,
    )


def stored_geometry(spec: BottleneckSpec) -> dict:
    return dict(
        stages=spec.stages,
        mid_spatial=spec.mid_spatial(),
        spatial_out=spec.spatial_out(),
        stride_product=spec.stride_product,
        has_residual=spec.has_residual,
        in_bytes=spec.in_bytes,
        mid_bytes=spec.mid_bytes,
        out_bytes=spec.out_bytes,
    )


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


class TestBottleneckSpecGeometry:
    """The derived geometry is computed once and never leaks into identity."""

    @pytest.mark.parametrize("spec", TABLE2, ids=lambda s: s.name)
    def test_stored_geometry_matches_fresh_recomputation(self, spec):
        assert stored_geometry(spec) == fresh_geometry(spec)
        assert isinstance(spec.stages, tuple)
        assert spec.stages is spec.stages  # stored, not rebuilt per read

    @pytest.mark.parametrize("spec", TABLE2, ids=lambda s: s.name)
    def test_replace_recomputes(self, spec):
        stored_geometry(spec)
        for changed in (
            replace(spec, hw=2 * spec.hw),
            replace(spec, c_out=2 * spec.c_out),
            replace(spec, kernel=spec.kernel + 2),
        ):
            assert stored_geometry(changed) == fresh_geometry(changed)
            assert stored_geometry(spec) == fresh_geometry(spec)

    @pytest.mark.parametrize("spec", TABLE2, ids=lambda s: s.name)
    def test_equality_hash_and_repr_ignore_stored_geometry(self, spec):
        cold = replace(spec)  # same fields, nothing derived yet
        stored_geometry(spec)
        assert spec == cold
        assert hash(spec) == hash(cold)
        assert repr(spec) == repr(cold)
        assert stored_geometry(cold) == stored_geometry(spec)

    def test_concurrent_first_reads_agree(self):
        # serving threads may be the first to read a spec's geometry
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for spec in TABLE2:
                cold = replace(spec)
                seen = []
                threads = [
                    threading.Thread(
                        target=lambda: seen.append(stored_geometry(cold))
                    )
                    for _ in range(8)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(10.0)
                assert not any(t.is_alive() for t in threads)
                assert len(seen) == 8
                assert all(g == fresh_geometry(spec) for g in seen)
        finally:
            sys.setswitchinterval(old)


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
