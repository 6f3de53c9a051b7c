"""Fast-backend parity: bit-exact outputs, costs and pool events.

Property-style coverage over random shapes, strides, paddings and segment
sizes: for every kernel family the vectorized ``execution="fast"`` backend
must agree with the ``"simulate"`` pool replay on

* the output tensor (bit for bit),
* the planned footprint (same plan object semantics),
* the full :class:`CostReport` (cycles, instruction counters, traffic), and
* the pool statistics (loads/stores/frees/wraps/clobbers/peak live).

The cost agreement is the strong claim of the fast path: its analytically
generated event totals reproduce the simulator's bookkeeping exactly, not
approximately.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.multilayer import BottleneckSpec
from repro.errors import KernelError
from repro.kernels import (
    Conv2dKernel,
    DepthwiseConvKernel,
    FullyConnectedKernel,
    FusedBottleneckKernel,
    PointwiseConvKernel,
    execution_backends,
    get_execution_backend,
)
from repro.kernels.base import cached_pack
from repro.kernels.fully_connected import pack_fc_weights
from repro.kernels.pooling import GlobalAvgPoolKernel
from repro.quant import quantize_multiplier

MULT = quantize_multiplier(0.02)
BLOCK_MULTS = (
    quantize_multiplier(0.02),
    quantize_multiplier(0.015),
    quantize_multiplier(0.03),
)


def random_int8(rng, shape):
    return rng.integers(-128, 128, size=shape, dtype=np.int8)


def assert_runs_identical(sim, fast):
    """Bit-exact output plus identical cost report and pool statistics."""
    np.testing.assert_array_equal(sim.output, fast.output)
    assert sim.plan.footprint_bytes == fast.plan.footprint_bytes
    assert sim.report.cycles == fast.report.cycles
    assert sim.report.instructions == fast.report.instructions
    assert sim.report.sram_bytes == fast.report.sram_bytes
    assert sim.report.flash_bytes == fast.report.flash_bytes
    assert sim.report.macs == fast.report.macs
    assert sim.report.modulo_ops == fast.report.modulo_ops
    assert sim.report.energy_mj == fast.report.energy_mj
    assert vars(sim.pool_stats) == vars(fast.pool_stats)


class TestFullyConnectedParity:
    @given(
        m=st.integers(1, 8),
        k=st.sampled_from([4, 8, 16]),
        n=st.sampled_from([4, 8, 12]),
        seg=st.sampled_from([2, 4]),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_fc(self, m, k, n, seg, seed):
        rng = np.random.default_rng(seed)
        kern = FullyConnectedKernel(m, k, n, seg_bytes=seg)
        x, w = random_int8(rng, (m, k)), random_int8(rng, (k, n))
        assert_runs_identical(
            kern.run(x, w, MULT), kern.run(x, w, MULT, execution="fast")
        )


class TestPointwiseParity:
    @given(
        hw=st.integers(3, 12),
        c=st.sampled_from([4, 8]),
        k=st.sampled_from([4, 8, 16]),
        stride=st.integers(1, 3),
        seg=st.sampled_from([2, 4]),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_pointwise(self, hw, c, k, stride, seg, seed):
        rng = np.random.default_rng(seed)
        kern = PointwiseConvKernel(hw, hw, c, k, stride=stride, seg_bytes=seg)
        x, w = random_int8(rng, (hw, hw, c)), random_int8(rng, (c, k))
        assert_runs_identical(
            kern.run(x, w, MULT), kern.run(x, w, MULT, execution="fast")
        )


class TestConv2dParity:
    @given(
        hw=st.integers(5, 12),
        c=st.sampled_from([2, 4]),
        k=st.sampled_from([4, 8]),
        kernel=st.sampled_from([1, 3, 5]),
        stride=st.integers(1, 2),
        padding=st.integers(0, 2),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_conv2d(self, hw, c, k, kernel, stride, padding, seed):
        if hw + 2 * padding < kernel:
            return
        rng = np.random.default_rng(seed)
        kern = Conv2dKernel(
            hw, hw, c, k, kernel=kernel, stride=stride, padding=padding
        )
        x = random_int8(rng, (hw, hw, c))
        w = random_int8(rng, (kernel, kernel, c, k))
        assert_runs_identical(
            kern.run(x, w, MULT), kern.run(x, w, MULT, execution="fast")
        )


class TestDepthwiseParity:
    @given(
        hw=st.integers(5, 12),
        c=st.sampled_from([4, 8, 16]),
        kernel=st.sampled_from([3, 5]),
        stride=st.integers(1, 2),
        padding=st.integers(0, 2),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_depthwise(self, hw, c, kernel, stride, padding, seed):
        if hw + 2 * padding < kernel:
            return
        rng = np.random.default_rng(seed)
        kern = DepthwiseConvKernel(
            hw, hw, c, kernel=kernel, stride=stride, padding=padding
        )
        x = random_int8(rng, (hw, hw, c))
        w = random_int8(rng, (kernel, kernel, c))
        assert_runs_identical(
            kern.run(x, w, MULT), kern.run(x, w, MULT, execution="fast")
        )


class TestAvgPoolParity:
    @given(
        hw=st.integers(2, 10),
        c=st.sampled_from([4, 8]),
        seg=st.sampled_from([2, 4]),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_avgpool(self, hw, c, seg, seed):
        rng = np.random.default_rng(seed)
        kern = GlobalAvgPoolKernel(hw, hw, c, seg_bytes=seg)
        x = random_int8(rng, (hw, hw, c))
        assert_runs_identical(
            kern.run(x, MULT), kern.run(x, MULT, execution="fast")
        )


class TestBottleneckParity:
    @given(
        hw=st.integers(6, 12),
        c=st.sampled_from([4, 8]),
        c_mid=st.sampled_from([8, 16]),
        kernel=st.sampled_from([3, 5]),
        strides=st.sampled_from(
            [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)]
        ),
        halo=st.sampled_from(["cache_rows", "recompute"]),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_bottleneck(
        self, hw, c, c_mid, kernel, strides, halo, seed
    ):
        rng = np.random.default_rng(seed)
        spec = BottleneckSpec(
            name="t", hw=hw, c_in=c, c_mid=c_mid, c_out=c,
            kernel=kernel, strides=strides,
        )
        if not spec.fusable():
            return
        kern = FusedBottleneckKernel(spec, halo_mode=halo)
        x = random_int8(rng, (hw, hw, c))
        w1 = random_int8(rng, (c, c_mid))
        wd = random_int8(rng, (kernel, kernel, c_mid))
        w2 = random_int8(rng, (c_mid, c))
        assert_runs_identical(
            kern.run(x, w1, wd, w2, BLOCK_MULTS),
            kern.run(x, w1, wd, w2, BLOCK_MULTS, execution="fast"),
        )

    @pytest.mark.parametrize("kernel", [2, 4, 6])
    def test_even_kernel_all_backends_agree(self, kernel):
        """An even kernel's padding shrinks 8x8 to 7x7, so the block has
        no residual even at unit strides and c_in == c_out, and every
        backend computes the same block."""
        rng = np.random.default_rng(kernel)
        spec = BottleneckSpec(
            name="t", hw=8, c_in=8, c_mid=16, c_out=8, kernel=kernel
        )
        assert spec.spatial_out() == 7 and not spec.has_residual
        kern = FusedBottleneckKernel(spec)
        args = (
            random_int8(rng, (8, 8, 8)),
            random_int8(rng, (8, 16)),
            random_int8(rng, (kernel, kernel, 16)),
            random_int8(rng, (16, 8)),
            BLOCK_MULTS,
        )
        sim = kern.run(*args)
        for execution in ("fast", "turbo"):
            assert_runs_identical(sim, kern.run(*args, execution=execution))


class TestBackendRegistry:
    def test_both_backends_registered(self):
        assert "simulate" in execution_backends()
        assert "fast" in execution_backends()

    def test_unknown_backend_lists_available(self):
        with pytest.raises(KernelError, match="simulate"):
            get_execution_backend("warp-drive")

    def test_unknown_backend_at_run(self):
        kern = FullyConnectedKernel(1, 4, 4)
        x = np.zeros((1, 4), np.int8)
        w = np.zeros((4, 4), np.int8)
        with pytest.raises(KernelError, match="unknown execution backend"):
            kern.run(x, w, MULT, execution="nope")

    def test_fast_backend_rejects_pool(self):
        from repro.core.pool import CircularSegmentPool

        kern = FullyConnectedKernel(1, 4, 4)
        x = np.zeros((1, 4), np.int8)
        w = np.zeros((4, 4), np.int8)
        pool = CircularSegmentPool(8, 4)
        with pytest.raises(KernelError, match="without a pool"):
            kern.run(x, w, MULT, pool=pool, execution="fast")


class TestPackCache:
    def test_same_array_packs_once(self):
        rng = np.random.default_rng(0)
        w = random_int8(rng, (8, 8))
        p1 = cached_pack(w, 4, pack_fc_weights)
        p2 = cached_pack(w, 4, pack_fc_weights)
        assert p1 is p2
        np.testing.assert_array_equal(p1, pack_fc_weights(w, 4))

    def test_distinct_segments_distinct_entries(self):
        rng = np.random.default_rng(0)
        w = random_int8(rng, (8, 8))
        assert cached_pack(w, 4, pack_fc_weights) is not cached_pack(
            w, 2, pack_fc_weights
        )

    def test_equal_but_distinct_arrays_not_conflated(self):
        rng = np.random.default_rng(0)
        w1 = random_int8(rng, (8, 8))
        w2 = w1.copy()
        p1 = cached_pack(w1, 4, pack_fc_weights)
        p2 = cached_pack(w2, 4, pack_fc_weights)
        assert p1 is not p2
        np.testing.assert_array_equal(p1, p2)

    def test_in_place_mutation_invalidates_entry(self):
        """Identity-keyed memoization must not serve stale packs silently."""
        rng = np.random.default_rng(2)
        w = random_int8(rng, (8, 8))
        stale = cached_pack(w, 4, pack_fc_weights)
        w[0, 0] = np.int8(~int(w[0, 0]) & 0x7F)
        fresh = cached_pack(w, 4, pack_fc_weights)
        assert fresh is not stale
        np.testing.assert_array_equal(fresh, pack_fc_weights(w, 4))

    def test_repeated_runs_reuse_packed_weights(self):
        rng = np.random.default_rng(1)
        kern = FullyConnectedKernel(2, 8, 8, seg_bytes=4)
        x, w = random_int8(rng, (2, 8)), random_int8(rng, (8, 8))
        kern.run(x, w, MULT)
        packed = cached_pack(w, 4, pack_fc_weights)
        # a second simulated run must hit the same cache entry
        assert cached_pack(w, 4, pack_fc_weights) is packed
        kern.run(x, w, MULT)
        assert cached_pack(w, 4, pack_fc_weights) is packed
