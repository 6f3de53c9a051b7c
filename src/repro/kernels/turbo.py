"""Turbo execution backend (``execution="turbo"``): native-rate serving math.

The ``"fast"`` backend already amortizes planning, weight packing and
cost derivation; what remains per request is the arithmetic itself, and
NumPy executes integer matmuls with its generic C inner loop — BLAS never
sees them — and the requantize epilogue and depthwise taps as many
whole-tensor passes.  This backend swaps the three arithmetic leaves of
:class:`~repro.kernels.fastpath.FastBackend` for implementations that
run at BLAS or compiled-C rate while remaining *provably bit-exact*:

* **GEMM** — int8 operands are exactly representable in float64, and a
  dot product over ``K`` terms is bounded by ``K * 128 * 128 = K * 2**14``
  in magnitude.  For ``K < 2**17`` that bound stays below ``2**31``, so
  the int32 accumulation the simulator performs never wraps, and below
  ``2**53`` every partial sum is exact in a double *regardless of the
  summation order BLAS chooses*.  Casting the float64 product back to
  int32 therefore reproduces the simulator's accumulator bit for bit.
  Shapes with ``K >= 2**17`` (none exist in the Table 2 models; the
  guard is there for arbitrary user graphs) fall back to the int32
  matmul, where wrapping semantics are native.

  GEMM stays on BLAS: a row-at-a-time C int8 GEMM with the requantize
  epilogue fused in, built like the leaves below, measured slower than
  BLAS plus the native requantize over the same GEMM shapes (1.35 vs
  0.93 ms per request on the VWW classifier at batch 1, 13.7 vs 7.1 on
  ImageNet at batch 8; gcc 12 ``-O3 -march=native`` against NumPy 2.4's
  BLAS on a 2-vCPU x86-64 Xeon with AVX-512).

* **requantize** and **depthwise taps** — the native leaves of
  :mod:`repro.kernels.native`, compiled once per host with ``gcc``:
  one pass per element of the exact gemmlowp integer pipeline, with the
  bottleneck's saturating residual add fused in, and a depthwise kernel
  that clips taps at the padded borders, takes the bottleneck's
  composite stride directly and requantizes each output in the same
  pass.  The requantize is exact on the GEMM's float64 accumulators, not
  just close: they hold integers of magnitude below ``2**31`` (the bound
  above), which a double represents exactly, so the C conversion to an
  integer loses nothing and everything after it is the integer pipeline
  of :func:`repro.quant.requantize`.  Without a compiler, or when the
  build fails, the backend keeps NumPy leaves instead:
  :func:`repro.quant.requantize_fast` (one float64 multiply-and-round,
  with the exact integer pipeline replayed only on the few percent of
  elements near a rounding boundary; see its docstring) and the fast
  backend's tap loop.

Costs are untouched: the backend shares the fast backend's per-plan
:class:`~repro.kernels.base.CostTemplate` cache, so per-request
``CostReport``s stay bit-identical to ``execution="simulate"`` — the
modeled on-device cost is a property of the plan, not of how fast the
host happens to evaluate the arithmetic.  Sessions, the serving
dispatcher's workers and ``Pipeline.run_batch`` default to this backend;
``tests/kernels/test_turbo_backend.py`` property-tests the leaves and
output and report parity against ``"fast"``.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import native
from repro.kernels.base import (
    cached_pack,
    pack_f64,
    pack_i32,
    register_execution_backend,
)
from repro.kernels.fastpath import FastBackend, _fault_hook, _saturating_add
from repro.quant import requantize_fast

__all__ = ["TurboBackend", "I32_SAFE_K", "gemm_is_exact"]

#: largest reduction depth for which an int8 x int8 dot product is
#: guaranteed to stay inside int32 (no wrap) and inside float64's 53-bit
#: integer range (exact BLAS accumulation): K * 128 * 128 < 2**31.
I32_SAFE_K = 1 << 17


def gemm_is_exact(k: int) -> bool:
    """Whether the float64 BLAS path is provably exact for depth ``k``."""
    return 0 < k < I32_SAFE_K


class TurboBackend(FastBackend):
    """The fast backend with BLAS GEMMs and native requantize/depthwise."""

    name = "turbo"
    #: sessions warm both layouts: float64 for the BLAS GEMMs, int32 for
    #: the NumPy tap loop (when the native leaves are unavailable) and
    #: the deep-reduction fallback
    weight_packers = (pack_i32, pack_f64)

    def _gemm(
        self, x2d: np.ndarray, w: np.ndarray,
        w2d_shape: tuple[int, int] | None = None,
    ) -> np.ndarray:
        _fault_hook("backend.turbo.gemm")
        if not gemm_is_exact(x2d.shape[1]):
            return super()._gemm(x2d, w, w2d_shape)
        wp = cached_pack(w, 0, pack_f64)
        if w2d_shape is not None:
            wp = wp.reshape(w2d_shape)
        # float64 accumulator of exact integers; flows straight into
        # requantize_fast without an int32 round trip
        return x2d.astype(np.float64) @ wp

    def _requant(self, acc: np.ndarray, mult, residual=None) -> np.ndarray:
        leaves = native.leaves()
        if leaves is None:
            return _saturating_add(requantize_fast(acc, mult), residual)
        return leaves.requantize(acc, mult, residual)

    def _depthwise_batch(self, xb, w, mult, stride, pad) -> np.ndarray:
        leaves = native.leaves()
        if leaves is None:
            return super()._depthwise_batch(xb, w, mult, stride, pad)
        return leaves.depthwise(xb, w, mult, stride, pad)


register_execution_backend(TurboBackend())
