"""Turbo execution backend (``execution="turbo"``): BLAS-rate serving math.

The ``"fast"`` backend already amortizes planning, weight packing and
cost derivation; what remains per request is the arithmetic itself, and
NumPy executes integer matmuls with its generic C inner loop — BLAS never
sees them.  This backend swaps the two arithmetic leaves of
:class:`~repro.kernels.fastpath.FastBackend` for implementations that
reach BLAS while remaining *provably bit-exact*:

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

* **requantize** — :func:`repro.quant.requantize_fast`: one float64
  multiply-and-round, with the exact integer pipeline replayed only on
  the few percent of elements near a rounding boundary (see its
  docstring for the error-bound argument).

Costs are untouched: the backend shares the fast backend's per-plan
:class:`~repro.kernels.base.CostTemplate` cache, so per-request
``CostReport``s stay bit-identical to ``execution="simulate"`` — the
modeled on-device cost is a property of the plan, not of how fast the
host happens to evaluate the arithmetic.  Sessions, the serving
dispatcher's workers and ``Pipeline.run_batch`` default to this backend;
``tests/kernels/test_turbo_backend.py`` property-tests output and report
parity against ``"fast"``.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import (
    cached_pack,
    pack_f64,
    pack_i32,
    register_execution_backend,
)
from repro.kernels.fastpath import FastBackend, _fault_hook
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
    """The fast backend with exact float64 BLAS arithmetic."""

    name = "turbo"
    #: sessions warm both layouts: float64 for the BLAS GEMMs, int32 for
    #: the depthwise taps and the deep-reduction fallback
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

    def _requant(self, acc: np.ndarray, mult) -> np.ndarray:
        return requantize_fast(acc, mult)


register_execution_backend(TurboBackend())
