"""Turbo backend parity: BLAS-rate arithmetic must not change a single bit.

Three layers of evidence:

* ``requantize_fast`` is property-tested against the exact gemmlowp
  pipeline, including accumulators crafted to sit exactly on (and within
  one ULP of) the rounding-boundary band it special-cases;
* the native leaves (:mod:`repro.kernels.native`) are property-tested
  against the NumPy reference arithmetic of ``"fast"``: requantize on
  int32 and float64-held accumulators at the int32 extremes, on exact
  rounding ties and with a saturating residual, and the depthwise kernel
  over kernel sizes, strides, batch sizes and padding-clipped borders;
* whole pipelines and single kernels run ``execution="turbo"`` against
  ``"fast"`` (itself parity-locked to ``"simulate"``) and must agree on
  outputs, per-stage cost reports and pool statistics.
"""

from __future__ import annotations

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
from repro.kernels.pooling import GlobalAvgPoolKernel
from repro.kernels.turbo import I32_SAFE_K, TurboBackend, gemm_is_exact
from repro.quant import (
    FixedPointMultiplier,
    quantize_multiplier,
    requantize,
    requantize_fast,
)
from repro.runtime.pipeline import (
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
#: requantize shifts of the Table 2 models' multipliers, plus the
#: degenerate shift 0
MODEL_SHIFTS = (0, 3, 5, 6)


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
    @pytest.mark.parametrize("shift", MODEL_SHIFTS)
    def test_rounding_ties(self, leaves, shift, dtype):
        mult = FixedPointMultiplier(multiplier=1 << 30, shift=shift)
        acc = tie_accumulators(shift)
        np.testing.assert_array_equal(
            leaves.requantize(acc.astype(dtype), mult), requantize(acc, mult)
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


class TestNativeDepthwise:
    @given(
        k=st.sampled_from([3, 5, 7]),
        s2=st.sampled_from([1, 2]),
        s3=st.sampled_from([1, 2]),
        batch=st.sampled_from([1, 3]),
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        # 260 channels spans two of the kernel's 256-channel blocks
        c=st.sampled_from([1, 8, 24, 260]),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_numpy_tap_loop(
        self, leaves, k, s2, s3, batch, h, w, c, seed
    ):
        """Spatial sizes up to 9 against kernels up to 7 with same-style
        padding: taps clip at every border, often on both sides of one
        window at once."""
        rng = np.random.default_rng(seed)
        xb = random_int8(rng, (batch, h, w, c))
        wd = random_int8(rng, (k, k, c))
        mult = quantize_multiplier(float(rng.uniform(1e-3, 0.05)))
        pad, stride = (k - 1) // 2, s2 * s3
        np.testing.assert_array_equal(
            leaves.depthwise(xb, wd, mult, stride, pad),
            get_execution_backend("fast")._depthwise_batch(
                xb, wd, mult, stride, pad
            ),
        )

    def test_rejects_bad_geometry(self, leaves):
        xb = np.zeros((1, 4, 4, 8), dtype=np.int8)
        with pytest.raises(ShapeError):
            leaves.depthwise(xb, np.zeros((3, 3, 4), np.int8), MULT, 1, 1)
        with pytest.raises(ShapeError):
            leaves.depthwise(xb, np.zeros((3, 3, 8), np.int8), MULT, 0, 1)
        with pytest.raises(ShapeError):
            leaves.depthwise(xb[0], np.zeros((3, 3, 8), np.int8), MULT, 1, 1)


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
        kernel=st.sampled_from([3, 5, 7]),
        strides=st.sampled_from(
            [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (1, 2, 2)]
        ),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=20, deadline=None)
    def test_bottleneck(self, hw, kernel, strides, seed):
        """Expand GEMM, depthwise at stride s2*s3 and the project GEMM
        with its residual add fused into the requantize."""
        rng = np.random.default_rng(seed)
        spec = BottleneckSpec(
            name="t", hw=hw, c_in=8, c_mid=24, c_out=8, kernel=kernel,
            strides=strides,
        )
        if not spec.fusable():
            return
        kern = FusedBottleneckKernel(spec)
        args = (
            random_int8(rng, (hw, hw, 8)),
            random_int8(rng, (8, 24)),
            random_int8(rng, (kernel, kernel, 24)),
            random_int8(rng, (24, 8)),
            (MULT, quantize_multiplier(0.01), quantize_multiplier(0.03)),
        )
        assert_runs_match(
            kern.run(*args, execution="turbo"),
            kern.run(*args, execution="fast"),
        )

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
