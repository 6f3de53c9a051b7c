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
  sizes, strides, batch sizes, channel counts and padded borders (every
  pad 0-3, with the paired ring row narrower and wider than the padded
  input), and the int16 pair packing both leaves' weights take;
* whole pipelines and single kernels run ``execution="turbo"`` against
  ``"fast"`` (itself parity-locked to ``"simulate"``) and must agree on
  outputs, per-stage cost reports and pool statistics; bottleneck
  stages must run the fused native leaf wherever the leaves load;
  fixed chains (``BLOCK_CHAINS``) reach every tail of the native register
  blocks and every store of their requantizing epilogue, and the residual
  add saturates at both ends.
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
    """Count the calls of the native fused bottleneck leaf on its own: a
    one-row segment whose row is a bottleneck."""
    calls = []
    real = native._Leaves.segment

    def counting(self, table, *args):
        if len(table.rows) == 1 and table.rows[0, 0] == native._BOTTLENECK:
            calls.append(1)
        return real(self, table, *args)

    with mock.patch.object(native._Leaves, "segment", counting):
        yield calls


@contextmanager
def segment_calls():
    """Count the calls of the native segment pass."""
    calls = []
    real = native._Leaves.segment

    def counting(self, *args):
        calls.append(1)
        return real(self, *args)

    with mock.patch.object(native._Leaves, "segment", counting):
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


def paired_width(q: int, stride: int, k: int) -> int:
    """Paired pixels of one ring row of the native depthwise for ``q``
    outputs per row (``paired_width`` in ``_native.c``)."""
    return (q - 1) * stride + (k + 1) // 2 * 2 - 1


#: (k, pad, stride) of standalone depthwise calls: every pad 0-3, and
#: with the row widths of DEPTHWISE_WIDTHS a paired ring row both
#: narrower than pad + width (the last pixels' pairs are dropped) and
#: wider (its right border stays zero)
DEPTHWISE_PADS = (
    (2, 0, 1), (2, 0, 2), (3, 1, 1), (3, 2, 2), (4, 3, 1), (5, 2, 2),
    (7, 3, 1), (3, 3, 2),
)
#: one pixel, and widths off the 4- and 8-pixel blocks
DEPTHWISE_WIDTHS = (1, 5, 6, 13)


def assert_depthwise_pads_match_fast(leaves, rng) -> None:
    """The depthwise leaf over DEPTHWISE_PADS x DEPTHWISE_WIDTHS (17
    channels: a whole vector and a one-channel tail) against the NumPy tap
    loop; both ring widths must occur."""
    fast = get_execution_backend("fast")
    mult = quantize_multiplier(0.02)
    rings = set()
    for k, pad, stride in DEPTHWISE_PADS:
        wd = random_int8(rng, (k, k, 17))
        for width in DEPTHWISE_WIDTHS:
            if width + 2 * pad < k:
                continue
            xb = random_int8(rng, (2, 6, width, 17))
            np.testing.assert_array_equal(
                leaves.depthwise(xb, pack_i16_pairs(wd, 0), mult, stride, pad),
                fast._depthwise_batch(xb, wd, mult, stride, pad),
                err_msg=f"k={k} pad={pad} stride={stride} width={width}",
            )
            q = (width + 2 * pad - k) // stride + 1
            rings.add(np.sign(paired_width(q, stride, k) - pad - width))
    assert {-1, 1} <= rings


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

    def test_every_pad_and_ring_width(self, leaves):
        assert_depthwise_pads_match_fast(leaves, np.random.default_rng(13))

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
        backend = get_execution_backend("turbo")
        # the cost template's dry run first: it runs the per-stage leaves
        with fused_calls() as calls:
            backend.pipeline_template(pipe, plan)
        assert bool(calls) == fused_bottleneck_expected()
        with segment_calls() as calls:
            turbo = backend.run_pipeline_batch(pipe, plan, xs)
        assert len(calls) == int(fused_bottleneck_expected())
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


# --------------------------------------------------------------------------- #
# the native segment pass
# --------------------------------------------------------------------------- #
#: a body stage: ("pw", stride, c_out) or ("bn", k, c_mid, c_out, strides)
#: where c_out None keeps the channels, so unit strides and an odd k give
#: the residual add
BODY_STAGE = st.one_of(
    st.tuples(
        st.just("pw"), st.sampled_from([1, 2]),
        st.sampled_from([1, 3, 5, 16, 17, 33]),
    ),
    st.tuples(
        st.just("bn"), st.sampled_from([2, 3, 5, 7]),
        st.sampled_from([3, 8, 17, 40]),
        st.sampled_from([None, 5, 16]),
        st.sampled_from([(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 2, 2)]),
    ),
)


def random_chain(rng, hw, c, body, classes):
    """A pipeline of the drawn body stages (bottlenecks that cannot fuse
    at their place in the chain are left out), then, with ``classes``,
    the average pool and a dense head."""
    pipe = Pipeline(hw, c)

    def mult():
        return quantize_multiplier(float(rng.uniform(1e-3, 0.05)))

    for i, stage in enumerate(body):
        if stage[0] == "pw":
            _, stride, c_out = stage
            pipe.add(
                PointwiseStage(
                    f"pw{i}", random_int8(rng, (c, c_out)), mult(),
                    stride=stride,
                )
            )
            hw, c = (hw - 1) // stride + 1, c_out
            continue
        _, k, c_mid, c_out, strides = stage
        spec = BottleneckSpec(
            name=f"b{i}", hw=hw, c_in=c, c_mid=c_mid, c_out=c_out or c,
            kernel=k, strides=strides,
        )
        if not spec.fusable():
            continue
        pipe.add(
            BottleneckStage(
                spec.name, c_mid=c_mid, c_out=spec.c_out, kernel=k,
                w_expand=random_int8(rng, (c, c_mid)),
                w_dw=random_int8(rng, (k, k, c_mid)),
                w_project=random_int8(rng, (c_mid, spec.c_out)),
                mults=(mult(), mult(), mult()), strides=strides,
            )
        )
        hw, c = spec.spatial_out(), spec.c_out
    if classes:
        pipe.add(GlobalAvgPoolStage("gap", quantize_multiplier(0.01)))
        pipe.add(DenseStage("head", random_int8(rng, (c, classes)), mult()))
    return pipe


#: channel counts on, off and across the 16-lane vectors, and the served
#: models' wide expansions
BLOCK_CHANNELS = (1, 8, 16, 17, 24, 33, 40, 48, 64, 65, 80, 240)
#: fixed chains (hw, c, body, classes) for random_chain that reach every
#: tail of the native register blocks: rows of every length mod 8 and of
#: one pixel, c_mid and c_out each over BLOCK_CHANNELS, depthwise pads 0-3
#: with the paired ring row narrower and wider than the padded expanded
#: row, and the residual add; the first is the one ASan needs, c_out 17
#: and 33 at 7 pixels, beside a ring narrower than its row
#: (TestSegmentPass.test_block_chains_cover_every_tail checks all this)
BLOCK_CHAINS = (
    (7, 3, [("pw", 1, 17), ("bn", 3, 240, None, (1, 1, 1)),
            ("bn", 2, 65, 33, (1, 1, 1))], None),
    (13, 8, [("bn", 5, 48, None, (1, 1, 1)), ("bn", 7, 80, 24, (1, 2, 1)),
             ("pw", 2, 1)], 10),
    (1, 16, [("bn", 3, 64, None, (1, 1, 1)), ("pw", 1, 40)], 1000),
    (6, 24, [("bn", 2, 17, 16, (1, 2, 1)), ("bn", 4, 33, 8, (1, 1, 1)),
             ("bn", 3, 1, None, (1, 1, 1))], None),
    (11, 5, [("pw", 2, 40), ("bn", 7, 240, None, (1, 1, 1)),
             ("bn", 3, 64, 65, (2, 1, 1))], None),
    (9, 3, [("bn", 3, 8, 80, (1, 1, 1)), ("bn", 5, 16, 48, (1, 1, 2)),
            ("bn", 3, 24, 64, (1, 1, 1)), ("bn", 3, 40, 240, (1, 1, 1))],
     None),
    (5, 1, [("bn", 3, 65, 1, (1, 1, 1))], None),
)


def assert_chain_matches_fast(pipe, xs) -> None:
    """``pipe`` over the batch ``xs`` in one native call, with and without
    a binding, against "fast": outputs and per-stage runs."""
    plan = pipe.plan()
    backend = get_execution_backend("turbo")
    backend.pipeline_template(pipe, plan)
    binding = backend.bind(pipe, plan)
    fast = get_execution_backend("fast").run_pipeline_batch(pipe, plan, xs)
    for kw in ({}, {"binding": binding}):
        with segment_calls() as calls:
            turbo = backend.run_pipeline_batch(pipe, plan, xs, **kw)
        assert len(calls) == int(native.leaves() is not None)
        for tr, fr in zip(turbo, fast):
            np.testing.assert_array_equal(tr.output, fr.output)
            for a, b in zip(tr.stage_runs, fr.stage_runs):
                assert_runs_match(a, b)


class TestSegmentPass:
    @given(
        hw=st.integers(3, 9),
        c=st.sampled_from([1, 3, 8, 17, 24]),
        body=st.lists(BODY_STAGE, min_size=1, max_size=4),
        classes=st.sampled_from([None, 1, 10, 1000]),
        batch=st.sampled_from([1, 3, 8]),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_chains_match_fast(
        self, hw, c, body, classes, batch, seed
    ):
        """Chains of every stage kind in one native call, with and
        without a binding: pointwise at stride 1 and 2, bottlenecks with
        and without the residual, odd channel counts and counts off the
        16-lane blocks, dense heads up to 1000 classes."""
        rng = np.random.default_rng(seed)
        pipe = random_chain(rng, hw, c, body, classes)
        if not pipe.stages:
            return
        xs = [random_int8(rng, (hw, hw, c)) for _ in range(batch)]
        assert_chain_matches_fast(pipe, xs)

    @pytest.mark.parametrize(
        "chain", BLOCK_CHAINS, ids=lambda ch: f"hw{ch[0]}-c{ch[1]}"
    )
    def test_block_chains_match_fast(self, chain):
        """Every block tail and every store of the blocks' epilogue."""
        hw, c, body, classes = chain
        rng = np.random.default_rng(hw * 100 + c)
        pipe = random_chain(rng, hw, c, body, classes)
        assert_chain_matches_fast(
            pipe, [random_int8(rng, (hw, hw, c)) for _ in range(3)]
        )

    def test_block_chains_cover_every_tail(self):
        """BLOCK_CHAINS reach what they are there for, read off the stage
        rows the native pass gets: no stage left out as unfusable, c_mid
        and c_out over BLOCK_CHANNELS, rows of one pixel and of every
        length mod 8, pads 0-3, both ring widths and the residual add."""
        rng = np.random.default_rng(0)
        turbo = get_execution_backend("turbo")
        index = {f: i for i, f in enumerate(native._STAGE_FIELDS)}
        mids, outs, rows, pads, rings = set(), set(), set(), set(), set()
        residual = False
        for hw, c, body, classes in BLOCK_CHAINS:
            pipe = random_chain(rng, hw, c, body, classes)
            assert len(pipe.stages) == len(body) + 2 * bool(classes)
            for row in turbo._table(pipe, pipe.plan()).rows:
                d = {f: int(row[i]) for f, i in index.items()}
                if d["kind"] == native._POINTWISE:
                    outs.add(d["c_out"])
                    if d["stride"] > 1:
                        rows.add(d["q"])
                elif d["kind"] == native._BOTTLENECK:
                    mids.add(d["c_mid"])
                    outs.add(d["c_out"])
                    rows |= {d["hb"], d["p"]}
                    pads.add(d["pad"])
                    width = paired_width(d["p"], d["stride"], d["k"])
                    rings.add(np.sign(width - d["pad"] - d["hb"]))
                    residual |= bool(d["residual"])
        assert set(BLOCK_CHANNELS) <= mids
        assert set(BLOCK_CHANNELS) <= outs
        assert 1 in rows and {n % 8 for n in rows} >= set(range(1, 8))
        assert pads == {0, 1, 2, 3}
        assert {-1, 1} <= rings
        assert residual

    def test_residual_add_saturates_at_both_ends(self, leaves):
        """The project's epilogue adds the skip connection and saturates:
        every output is the int8-clipped sum of the same row run without
        RESIDUAL and the input, and the sums leave the int8 range at both
        ends (17 channels: a whole vector and a one-channel tail)."""
        rng = np.random.default_rng(14)
        hw, c = 7, 17
        pipe = random_chain(
            rng, hw, c, [("bn", 3, 40, None, (1, 1, 1))], None
        )
        plan = pipe.plan()
        table = get_execution_backend("turbo")._table(pipe, plan)
        row = table.rows[0].copy()
        assert row[native._STAGE_FIELDS.index("residual")] == 1
        row[native._STAGE_FIELDS.index("residual")] = 0
        plain = native.SegmentTable(
            [native.Stage(row, table.in_shape, table.out_shapes[0],
                          table.packs)]
        )
        xb = random_int8(rng, (4, hw, hw, c))
        got = leaves.segment(table, xb)[0]
        wide = leaves.segment(plain, xb)[0].astype(np.int16) + xb
        assert (wide > 127).any() and (wide < -128).any()
        np.testing.assert_array_equal(got, np.clip(wide, -128, 127))
        fast = get_execution_backend("fast").run_pipeline_batch(
            pipe, plan, list(xb)
        )
        for out, want in zip(got, fast):
            np.testing.assert_array_equal(out, want.output)

    def test_each_stage_output_is_its_own_array(self, leaves):
        """A kept response pins only its own stage's batch array."""
        rng = np.random.default_rng(12)
        pipe = random_chain(
            rng, 6, 8, [("pw", 1, 16), ("bn", 3, 24, None, (1, 1, 1))], 10
        )
        plan = pipe.plan()
        xs = [random_int8(rng, (6, 6, 8)) for _ in range(3)]
        res = get_execution_backend("turbo").run_pipeline_batch(
            pipe, plan, xs
        )
        bases = [run.output.base for run in res[0].stage_runs]
        assert len({id(b) for b in bases}) == len(bases)
        for base in bases:
            assert base.flags.owndata
            assert base.shape[0] == len(xs)

    def test_table_rejects_a_broken_chain(self, leaves):
        mult = MULT
        w = pack_i16_pairs(np.ones((8, 16), np.int8), 0)
        first = native.pointwise_stage(4, 4, 8, 16, 1, w, mult)
        second = native.pointwise_stage(4, 4, 8, 16, 1, w, mult)
        with pytest.raises(ShapeError, match="cannot feed"):
            native.SegmentTable([first, second])
        with pytest.raises(ShapeError):  # packed for 16 outputs, not 32
            native.pointwise_stage(4, 4, 8, 32, 1, w, mult)
        table = native.SegmentTable([first])
        with pytest.raises(ShapeError):
            leaves.segment(table, np.zeros((2, 4, 4, 9), np.int8))
        with pytest.raises(ShapeError):
            leaves.segment(table, np.zeros((2, 4, 4, 8), np.int16))
        with pytest.raises(ShapeError):  # as many elements, but not HWC
            leaves.segment(table, np.zeros((2, 16, 8), np.int8))
        # a dense stage reads its rows from any shape of that many
        # elements (tests/serving/test_segment_binding.py), only those
        dense = native.SegmentTable([native.dense_stage(1, 8, 16, w, mult)])
        with pytest.raises(ShapeError):
            leaves.segment(dense, np.zeros((2, 9), np.int8))
