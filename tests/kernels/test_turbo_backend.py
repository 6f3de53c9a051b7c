"""Turbo backend parity: BLAS-rate arithmetic must not change a single bit.

Three layers of evidence:

* ``requantize_fast`` is property-tested against the exact gemmlowp
  pipeline, including accumulators crafted to sit exactly on (and within
  one ULP of) the rounding-boundary band it special-cases;
* the native leaves (:mod:`repro.kernels.native`) are property-tested
  against the NumPy reference arithmetic of ``"fast"``: requantize on
  int32 and float64-held accumulators at the int32 extremes, on exact
  rounding ties at every shift and both multiplier ends and with a
  saturating residual, the depthwise kernel over even and odd kernel
  sizes, strides, batch sizes, channel counts and padded borders, and
  the int16 pair packing both leaves' weights take;
* whole pipelines and single kernels run ``execution="turbo"`` against
  ``"fast"`` (itself parity-locked to ``"simulate"``) and must agree on
  outputs, per-stage cost reports and pool statistics; bottleneck
  stages must run the fused native leaf wherever the leaves load.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.multilayer import BottleneckSpec
from repro.errors import ShapeError
from repro.kernels import (
    Conv2dKernel,
    DepthwiseConvKernel,
    FullyConnectedKernel,
    FusedBottleneckKernel,
    PointwiseConvKernel,
    execution_backends,
    get_execution_backend,
    native,
)
from repro.kernels.native import pack_i16_pairs
from repro.kernels.pooling import GlobalAvgPoolKernel
from repro.kernels.turbo import I32_SAFE_K, TurboBackend, gemm_is_exact
from repro.quant import (
    FixedPointMultiplier,
    quantize_multiplier,
    requantize,
    requantize_fast,
)
from repro.runtime.pipeline import (
    BottleneckStage,
    DenseStage,
    GlobalAvgPoolStage,
    Pipeline,
    PointwiseStage,
)

MULT = quantize_multiplier(0.02)


def random_int8(rng, shape):
    return rng.integers(-128, 128, size=shape, dtype=np.int8)


# --------------------------------------------------------------------------- #
# requantize_fast
# --------------------------------------------------------------------------- #
class TestRequantizeFast:
    @given(
        real=st.floats(1e-4, 0.999),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_exact_pipeline(self, real, seed):
        mult = quantize_multiplier(real)
        rng = np.random.default_rng(seed)
        acc = rng.integers(-(2**26), 2**26, size=2048).astype(np.int32)
        np.testing.assert_array_equal(
            requantize(acc, mult), requantize_fast(acc, mult)
        )

    @given(real=st.floats(1e-4, 0.999))
    @settings(max_examples=40, deadline=None)
    def test_boundary_band_elements(self, real):
        """Accumulators at/near half-integer scaled values — the cases the
        float64 round alone could get wrong — must hit the exact path."""
        mult = quantize_multiplier(real)
        denom = mult.multiplier
        scale = 1 << (31 + mult.shift)
        accs = []
        for k in range(-40, 41):
            center = round((k + 0.5) * scale / denom)
            accs.extend(center + d for d in (-2, -1, 0, 1, 2))
        acc = np.clip(np.array(accs, dtype=np.int64), -(2**31), 2**31 - 1)
        acc = acc.astype(np.int32)
        np.testing.assert_array_equal(
            requantize(acc, mult), requantize_fast(acc, mult)
        )

    def test_shift_zero_degenerates_to_exact(self):
        mult = quantize_multiplier(0.75)
        assert mult.shift == 0
        rng = np.random.default_rng(3)
        acc = rng.integers(-(2**20), 2**20, size=512).astype(np.int32)
        np.testing.assert_array_equal(
            requantize(acc, mult), requantize_fast(acc, mult)
        )

    def test_accepts_float64_integer_accumulators(self):
        mult = quantize_multiplier(0.013)
        rng = np.random.default_rng(4)
        acc = rng.integers(-(2**24), 2**24, size=1024).astype(np.int32)
        np.testing.assert_array_equal(
            requantize(acc, mult),
            requantize_fast(acc.astype(np.float64), mult),
        )


# --------------------------------------------------------------------------- #
# native leaves vs the NumPy reference arithmetic
# --------------------------------------------------------------------------- #
INT32_EXTREMES = np.array(
    [2**31 - 1, 2**31 - 2, -(2**31) + 1, -(2**31), 0, 1, -1], dtype=np.int64
)
#: every shift of the 32-bit requantize form, plus one beyond it, where
#: every output rounds to 0
SHIFTS = (*range(32), 40)
#: both ends of the Q31 mantissa range, and one half (which puts every
#: odd accumulator on a SQRDMULH tie)
MULTIPLIERS = (1, 1 << 30, 2**31 - 1)


def fused_bottleneck_expected() -> bool:
    """Whether turbo must run bottlenecks through the fused leaf: every
    build of the native leaves has it."""
    return native.leaves() is not None


@contextmanager
def fused_calls():
    """Count the calls of the native fused bottleneck leaf."""
    calls = []
    real = native._Leaves.bottleneck

    def counting(self, *args):
        calls.append(1)
        return real(self, *args)

    with mock.patch.object(native._Leaves, "bottleneck", counting):
        yield calls


@pytest.fixture(scope="module")
def leaves():
    found = native.leaves()
    if found is None:
        pytest.skip(native.status())
    return found


def tie_accumulators(shift: int) -> np.ndarray:
    """int32 accumulators whose requantize lands exactly on rounding ties.

    With the Q31 mantissa ``2**30`` (one half), SQRDMULH maps ``a`` to
    ``a / 2``: a tie for every odd ``a``.  For even ``a = 2x`` the
    rounding shift then ties wherever ``x = j * 2**shift + 2**(shift-1)``.
    Each tie comes with its neighbours one and two away, near zero and
    near both ends of the int32 range.
    """
    top = (1 << 30) >> shift
    j = np.concatenate(
        [np.arange(-50, 50), top - np.arange(1, 20), np.arange(20) - top]
    ).astype(np.int64)
    if shift == 0:
        centers = 2 * j + 1
    else:
        centers = 2 * (j * 2**shift + 2 ** (shift - 1))
    acc = np.concatenate(
        [(centers[:, None] + np.arange(-2, 3)).ravel(), INT32_EXTREMES]
    )
    return np.clip(acc, -(2**31), 2**31 - 1).astype(np.int32)


class TestNativeRequantize:
    @pytest.mark.parametrize("dtype", [np.int32, np.float64])
    @pytest.mark.parametrize("shift", SHIFTS)
    def test_rounding_ties(self, leaves, shift, dtype):
        acc = tie_accumulators(min(shift, 31))
        for m in MULTIPLIERS:
            mult = FixedPointMultiplier(multiplier=m, shift=shift)
            np.testing.assert_array_equal(
                leaves.requantize(acc.astype(dtype), mult),
                requantize(acc, mult),
                err_msg=f"multiplier {m}",
            )

    @given(
        real=st.floats(1e-4, 0.999),
        seed=st.integers(0, 2**31),
        as_f64=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_exact_pipeline(self, leaves, real, seed, as_f64):
        mult = quantize_multiplier(real)
        rng = np.random.default_rng(seed)
        acc = np.concatenate(
            [
                rng.integers(-(2**31), 2**31, size=2048),
                rng.integers(-(2**20), 2**20, size=2048),
                INT32_EXTREMES,
            ]
        ).astype(np.int32)
        got = leaves.requantize(
            acc.astype(np.float64) if as_f64 else acc, mult
        )
        np.testing.assert_array_equal(got, requantize(acc, mult))

    @pytest.mark.parametrize("as_f64", [False, True])
    def test_residual_add_saturates(self, leaves, as_f64):
        mult = quantize_multiplier(0.02)
        rng = np.random.default_rng(11)
        acc = rng.integers(-(2**14), 2**14, size=(64, 32)).astype(np.int32)
        residual = rng.integers(-128, 128, size=acc.shape, dtype=np.int8)
        reference = get_execution_backend("fast")._requant(
            acc, mult, residual
        )
        got = leaves.requantize(
            acc.astype(np.float64) if as_f64 else acc, mult, residual
        )
        np.testing.assert_array_equal(got, reference)
        # both ends of the int8 range saturate somewhere in this draw
        wide = requantize(acc, mult).astype(np.int16) + residual
        assert (wide > 127).any() and (wide < -128).any()

    def test_rejects_mismatched_residual(self, leaves):
        acc = np.zeros((4, 4), dtype=np.int32)
        with pytest.raises(ShapeError):
            leaves.requantize(acc, MULT, np.zeros(15, dtype=np.int8))
        with pytest.raises(ShapeError):
            leaves.requantize(acc, MULT, np.zeros(16, dtype=np.int16))


class TestPackI16Pairs:
    @pytest.mark.parametrize(
        "shape",
        [(1, 1), (2, 16), (3, 17), (8, 24), (17, 40), (3, 3, 5), (4, 4, 33),
         (7, 7, 480)],
    )
    def test_round_trip(self, shape):
        """Unpacking the pairs returns ``w``; every padding lane is zero."""
        rng = np.random.default_rng(sum(shape))
        w = random_int8(rng, shape)
        *lead, kdim, c = shape
        packed = pack_i16_pairs(w, 0)
        assert packed.dtype == np.int16
        assert packed.shape == (*lead, (kdim + 1) // 2, -(-c // 16) * 16, 2)
        # [..., t, c, j] -> [..., 2t + j, c]
        unpacked = np.moveaxis(packed, -1, -2).reshape(
            *lead, packed.shape[-3] * 2, packed.shape[-2]
        )
        np.testing.assert_array_equal(unpacked[..., :kdim, :c], w)
        assert not unpacked[..., kdim:, :].any()
        assert not unpacked[..., c:].any()


class TestNativeDepthwise:
    @given(
        # even k pairs its taps exactly; odd k meets a zero last weight
        k=st.sampled_from([2, 3, 4, 5, 7]),
        s2=st.sampled_from([1, 2]),
        s3=st.sampled_from([1, 2]),
        batch=st.sampled_from([1, 3]),
        h=st.integers(1, 9),
        w=st.integers(1, 20),
        # channel counts off, on and across the 16-lane blocks; 260
        # spans four-vector blocks plus a single-vector remainder
        c=st.sampled_from([1, 8, 16, 33, 260]),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_numpy_tap_loop(
        self, leaves, k, s2, s3, batch, h, w, c, seed
    ):
        """Spatial sizes up to 9 against kernels up to 7 with same-style
        padding: windows cross every border, often on both sides of one
        window at once; rows up to 20 wide also run the four-pixel
        blocks."""
        rng = np.random.default_rng(seed)
        xb = random_int8(rng, (batch, h, w, c))
        wd = random_int8(rng, (k, k, c))
        mult = quantize_multiplier(float(rng.uniform(1e-3, 0.05)))
        pad, stride = (k - 1) // 2, s2 * s3
        if min(h, w) + 2 * pad < k:  # an even k collapses a 1-pixel side
            return
        np.testing.assert_array_equal(
            leaves.depthwise(xb, pack_i16_pairs(wd, 0), mult, stride, pad),
            get_execution_backend("fast")._depthwise_batch(
                xb, wd, mult, stride, pad
            ),
        )

    def test_rejects_bad_geometry(self, leaves):
        xb = np.zeros((1, 4, 4, 8), dtype=np.int8)
        packed = pack_i16_pairs(np.zeros((3, 3, 8), np.int8), 0)
        with pytest.raises(ShapeError):  # packed for 20 channels, not 8
            leaves.depthwise(
                xb, pack_i16_pairs(np.zeros((3, 3, 20), np.int8), 0),
                MULT, 1, 1,
            )
        with pytest.raises(ShapeError):  # int8, not the int16 pairs
            leaves.depthwise(xb, np.zeros((3, 2, 16, 2), np.int8), MULT, 1, 1)
        with pytest.raises(ShapeError):
            leaves.depthwise(xb, packed, MULT, 0, 1)
        with pytest.raises(ShapeError):
            leaves.depthwise(xb[0], packed, MULT, 1, 1)


# --------------------------------------------------------------------------- #
# the exactness guard
# --------------------------------------------------------------------------- #
class TestGemmGuard:
    def test_bounds(self):
        assert gemm_is_exact(1)
        assert gemm_is_exact(I32_SAFE_K - 1)
        assert not gemm_is_exact(I32_SAFE_K)
        assert not gemm_is_exact(0)

    def test_deep_reduction_falls_back_to_int32(self):
        backend = get_execution_backend("turbo")
        rng = np.random.default_rng(5)
        x = random_int8(rng, (1, I32_SAFE_K))
        w = random_int8(rng, (I32_SAFE_K, 2))
        acc = backend._gemm(x, w)
        assert acc.dtype == np.int32  # int32 fallback, wrap-exact
        np.testing.assert_array_equal(
            acc, x.astype(np.int32) @ w.astype(np.int32)
        )

    def test_shallow_reduction_uses_exact_float64(self):
        backend = get_execution_backend("turbo")
        rng = np.random.default_rng(6)
        x = random_int8(rng, (8, 64))
        w = random_int8(rng, (64, 16))
        acc = backend._gemm(x, w)
        assert acc.dtype == np.float64
        np.testing.assert_array_equal(
            acc.astype(np.int32), x.astype(np.int32) @ w.astype(np.int32)
        )


# --------------------------------------------------------------------------- #
# kernel- and pipeline-level parity vs "fast"
# --------------------------------------------------------------------------- #
def assert_runs_match(a, b):
    np.testing.assert_array_equal(a.output, b.output)
    assert a.report.cycles == b.report.cycles
    assert a.report.instructions == b.report.instructions
    assert a.report.sram_bytes == b.report.sram_bytes
    assert a.report.flash_bytes == b.report.flash_bytes
    assert a.report.macs == b.report.macs
    assert a.report.modulo_ops == b.report.modulo_ops
    assert vars(a.pool_stats) == vars(b.pool_stats)


class TestTurboParity:
    def test_registered(self):
        assert "turbo" in execution_backends()
        assert isinstance(get_execution_backend("turbo"), TurboBackend)

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: (
                PointwiseConvKernel(12, 12, 8, 16),
                (random_int8(rng, (12, 12, 8)), random_int8(rng, (8, 16)), MULT),
            ),
            lambda rng: (
                Conv2dKernel(10, 10, 8, 16, kernel=3, stride=1, padding=1),
                (
                    random_int8(rng, (10, 10, 8)),
                    random_int8(rng, (3, 3, 8, 16)),
                    MULT,
                ),
            ),
            lambda rng: (
                DepthwiseConvKernel(10, 10, 16, kernel=3, stride=1, padding=1),
                (random_int8(rng, (10, 10, 16)), random_int8(rng, (3, 3, 16)), MULT),
            ),
            lambda rng: (
                FullyConnectedKernel(4, 64, 32),
                (random_int8(rng, (4, 64)), random_int8(rng, (64, 32)), MULT),
            ),
        ],
    )
    def test_single_kernels(self, make):
        rng = np.random.default_rng(7)
        kernel, args = make(rng)
        assert_runs_match(
            kernel.run(*args, execution="turbo"),
            kernel.run(*args, execution="fast"),
        )

    @given(
        hw=st.integers(4, 10),
        kernel=st.sampled_from([2, 3, 4, 5, 7]),
        strides=st.sampled_from(
            [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (1, 2, 2)]
        ),
        # off, on and across the 16-lane channel blocks
        channels=st.tuples(*[st.sampled_from([3, 8, 17, 24, 40])] * 3),
        batch=st.sampled_from([1, 3]),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_bottleneck(self, hw, kernel, strides, channels, batch, seed):
        """Expand, depthwise at stride s2*s3 (which skips expanded rows
        when it exceeds k), project and the residual add, as one fused
        native pass wherever the leaves load.  Odd channel counts pad the
        GEMMs' pairs, odd kernels the depthwise's."""
        rng = np.random.default_rng(seed)
        c_in, c_mid, c_out = channels
        spec = BottleneckSpec(
            name="t", hw=hw, c_in=c_in, c_mid=c_mid, c_out=c_out,
            kernel=kernel, strides=strides,
        )
        if not spec.fusable():
            return
        pipe = Pipeline(hw, c_in)
        pipe.add(
            BottleneckStage(
                "b", c_mid=c_mid, c_out=c_out, kernel=kernel,
                w_expand=random_int8(rng, (c_in, c_mid)),
                w_dw=random_int8(rng, (kernel, kernel, c_mid)),
                w_project=random_int8(rng, (c_mid, c_out)),
                mults=(MULT, quantize_multiplier(0.01),
                       quantize_multiplier(0.03)),
                strides=strides,
            )
        )
        plan = pipe.plan()
        xs = [random_int8(rng, (hw, hw, c_in)) for _ in range(batch)]
        with fused_calls() as calls:
            turbo = get_execution_backend("turbo").run_pipeline_batch(
                pipe, plan, xs
            )
        # (a new plan's cost-template dry run is one more call)
        assert bool(calls) == fused_bottleneck_expected()
        fast = get_execution_backend("fast").run_pipeline_batch(
            pipe, plan, xs
        )
        for tr, fr in zip(turbo, fast):
            np.testing.assert_array_equal(tr.output, fr.output)
            for a, b in zip(tr.stage_runs, fr.stage_runs):
                assert_runs_match(a, b)

    def test_single_bottleneck_kernel(self):
        """``FusedBottleneckKernel.run`` goes through the same leaf; 100
        and 72 channels take the GEMMs' four-vector blocks even at 16
        lanes, and 9 pixels per row leave a one-pixel tail."""
        rng = np.random.default_rng(9)
        spec = BottleneckSpec(
            name="t", hw=9, c_in=16, c_mid=100, c_out=72, kernel=5
        )
        kern = FusedBottleneckKernel(spec)
        args = (
            random_int8(rng, (9, 9, 16)),
            random_int8(rng, (16, 100)),
            random_int8(rng, (5, 5, 100)),
            random_int8(rng, (100, 72)),
            (MULT, quantize_multiplier(0.01), quantize_multiplier(0.03)),
        )
        with fused_calls() as calls:
            turbo = kern.run(*args, execution="turbo")
        assert bool(calls) == fused_bottleneck_expected()
        assert_runs_match(turbo, kern.run(*args, execution="fast"))

    def test_extreme_operands(self):
        """Input and all three weights at -128: each expand pair sums to
        2**15, the largest a pmaddwd lane can take from int8 operands, and
        the depthwise and project then see saturated operands."""
        spec = BottleneckSpec(
            name="t", hw=7, c_in=16, c_mid=480, c_out=16, kernel=7
        )
        kern = FusedBottleneckKernel(spec)
        args = (
            np.full((7, 7, 16), -128, np.int8),
            np.full((16, 480), -128, np.int8),
            np.full((7, 7, 480), -128, np.int8),
            np.full((480, 16), -128, np.int8),
            (MULT, quantize_multiplier(0.01), quantize_multiplier(0.03)),
        )
        with fused_calls() as calls:
            turbo = kern.run(*args, execution="turbo")
        assert bool(calls) == fused_bottleneck_expected()
        assert_runs_match(turbo, kern.run(*args, execution="fast"))

    def test_avgpool(self):
        rng = np.random.default_rng(8)
        kernel = GlobalAvgPoolKernel(9, 9, 16)
        x = random_int8(rng, (9, 9, 16))
        assert_runs_match(
            kernel.run(x, MULT, execution="turbo"),
            kernel.run(x, MULT, execution="fast"),
        )

    @given(
        hw=st.integers(4, 12),
        c=st.sampled_from([4, 8]),
        k=st.sampled_from([4, 8, 16]),
        with_tail=st.booleans(),
        batch=st.integers(1, 5),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_chain_batches(self, hw, c, k, with_tail, batch, seed):
        rng = np.random.default_rng(seed)
        pipe = Pipeline(hw, c)
        pipe.add(
            PointwiseStage(
                name="pw0", weights=random_int8(rng, (c, k)), mult=MULT
            )
        )
        pipe.add(
            PointwiseStage(
                name="pw1", weights=random_int8(rng, (k, k)), mult=MULT
            )
        )
        if with_tail:
            pipe.add(
                GlobalAvgPoolStage(name="gap", mult=quantize_multiplier(0.01))
            )
            pipe.add(
                DenseStage(
                    name="head", weights=random_int8(rng, (k, 4)), mult=MULT
                )
            )
        plan = pipe.plan()
        xs = [random_int8(rng, (hw, hw, c)) for _ in range(batch)]
        turbo = pipe.run_batch(xs, plan=plan, execution="turbo")
        for x, res in zip(xs, turbo):
            fast = pipe.run(x, plan=plan, execution="fast")
            np.testing.assert_array_equal(res.output, fast.output)
            for tr, fr in zip(res.stage_runs, fast.stage_runs):
                assert_runs_match(tr, fr)
