"""Turbo execution backend (``execution="turbo"``): native-rate serving math.

The ``"fast"`` backend already amortizes planning, weight packing and
cost derivation; what remains per request is the arithmetic itself, which
NumPy runs through its generic int32 matmul loop and many whole-tensor
passes.  This backend runs it in the native leaves of
:mod:`repro.kernels.native`, compiled once per host with ``gcc``, while
remaining *provably bit-exact*:

* **one native call per segment** — a session binds each segment once
  (:meth:`TurboBackend.bind`): every stage becomes a row of a C stage
  table (its kind, geometry, requantize multipliers and the addresses of
  its int16-pair weight packs), and the stacked pass of a batch is one
  ``vmcu_segment`` call that walks the table with the GIL released.  Per
  call, Python only compares the bytes of the segment's weights with the
  snapshot taken when the table was bound (one exact compare; an
  in-place mutation re-packs, and the call binds a new table) and
  allocates one output array per stage.  A caller without a binding
  (``Pipeline.run_batch``) binds for its call.

* **the leaves** — pointwise and dense stages (int16-pair GEMM rows),
  the inverted bottleneck fused the way the paper's kernel streams it
  (expand, depthwise at stride ``s2*s3``, project, every requantize and
  the residual add in one pass per output row, holding only a ``k``-row
  ring of the expanded tensor), the global average pool and the
  standalone depthwise.  Their multiply-accumulates are ``pmaddwd`` over
  int16 pairs of the int8 operands (``vpdpwssd`` on AVX512-VNNI), the
  host's counterpart of the SMLAD the paper's MCU kernels run: two
  products per int32 lane.  A pair sum is at most ``2**15`` in
  magnitude, so no lane overflows, and the int32 accumulation wraps
  modulo ``2**32`` exactly like the fast backend's, so it is bit-exact
  for any reduction depth.  The loops run register blocks of pixels by
  channel vectors and requantize each block as it leaves the loop, as
  the paper's kernels do, so no stage stores its int32 accumulators.
  The per-request path (``run_pipeline``: ``CompiledModel.run`` and the
  cost template's dry run) runs each stage as a one-row segment, so with
  the leaves loaded no pipeline stage reaches BLAS, and BLAS's thread
  count does not matter to serving.  Every build target has every
  leaf, with one ``pmaddwd`` per target (AVX-512BW, AVX2, SSE2, or a
  portable form); ``native.status()`` names the loaded one.

* **without a compiler**, or when the build fails, the backend keeps the
  fast backend's stage structure with three swapped leaves:

  - **GEMM** as float64 BLAS — int8 operands are exactly representable in
    float64, and a dot product over ``K`` terms is bounded by
    ``K * 128 * 128 = K * 2**14`` in magnitude.  For ``K < 2**17`` that
    bound stays below ``2**31``, so the int32 accumulation the simulator
    performs never wraps, and below ``2**53`` every partial sum is exact
    in a double *regardless of the summation order BLAS chooses*.
    Casting the float64 product back to int32 therefore reproduces the
    simulator's accumulator bit for bit.  Shapes with ``K >= 2**17``
    (none exist in the Table 2 models; the guard is there for arbitrary
    user graphs) fall back to the int32 matmul, where wrapping semantics
    are native.  conv2d, which is not a pipeline stage, runs this GEMM
    with the leaves loaded too;
  - **requantize** as :func:`repro.quant.requantize_fast` (one float64
    multiply-and-round, with the exact integer pipeline replayed only on
    the few percent of elements near a rounding boundary; see its
    docstring);
  - **depthwise taps** as the fast backend's tap loop.

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

from repro.errors import KernelError
from repro.kernels import native
from repro.kernels.base import (
    cached_pack,
    pack_f64,
    pack_i32,
    register_execution_backend,
)
from repro.kernels.fastpath import FastBackend, _fault_hook, _saturating_add
from repro.kernels.native import pack_i16_pairs
from repro.quant import requantize_fast

__all__ = ["TurboBackend", "I32_SAFE_K", "gemm_is_exact"]

#: largest reduction depth for which an int8 x int8 dot product is
#: guaranteed to stay inside int32 (no wrap) and inside float64's 53-bit
#: integer range (exact BLAS accumulation): K * 128 * 128 < 2**31.
I32_SAFE_K = 1 << 17


def gemm_is_exact(k: int) -> bool:
    """Whether the float64 BLAS path is provably exact for depth ``k``."""
    return 0 < k < I32_SAFE_K


def _pairs(w: np.ndarray) -> np.ndarray:
    """The native leaves' int16-pair operand of ``w``, via the pack cache."""
    return cached_pack(w, 0, pack_i16_pairs)


def _pointwise_stage(kern, w, mult) -> native.Stage:
    return native.pointwise_stage(
        kern.h, kern.w, kern.c, kern.k, kern.stride, _pairs(w), mult
    )


def _dense_stage(kern, w, mult) -> native.Stage:
    return native.dense_stage(kern.m, kern.k, kern.n, _pairs(w), mult)


def _bottleneck_stage(kern, w_expand, w_dw, w_project, mults):
    return native.bottleneck_stage(
        kern.spec, _pairs(w_expand), _pairs(w_dw), _pairs(w_project), mults
    )


def _run_stage(leaves, stage: native.Stage, xb) -> np.ndarray:
    """One stage over the batch ``xb``: a one-row segment."""
    return leaves.segment(native.SegmentTable([stage]), xb)[0]


class _Binding:
    """One segment's native stage table, as a session holds it.

    The session owns the binding, so the table and the packs it points at
    live exactly as long as the served model (plans outlive their models
    in the plan cache; tables must not).  ``bound`` is the pair
    ``(table, snapshot)``: ``snapshot`` holds the bytes of ``weights``,
    taken *before* the table packed them, so a write racing the packing
    leaves the snapshot stale, never the table.  A call whose weights
    differ from the snapshot in any byte (an in-place mutation) re-packs,
    binds a new pair and swaps it in as one object: a concurrent call
    finishes on the table it read and never pairs it with another
    table's snapshot.  Two calls that both see a stale snapshot both
    bind, and either pair is current, so no lock is needed: the last
    swap wins.
    """

    __slots__ = ("weights", "bound")

    def __init__(self, weights: tuple, bound: tuple):
        self.weights = weights
        self.bound = bound

    @property
    def table(self) -> native.SegmentTable:
        return self.bound[0]


class TurboBackend(FastBackend):
    """The fast backend with native int16-pair leaves: a whole segment in
    one native call, or BLAS GEMMs where no compiler builds the leaves."""

    name = "turbo"

    @property
    def weight_packers(self):
        """The layouts the loaded path reads, for sessions to warm: the
        int16 pairs of the native leaves, or without them the float64
        BLAS operands; and int32 for ``"fast"``, which the breaker
        degrades to (and the NumPy tap loop of the no-compiler path)."""
        if native.leaves() is None:
            return (pack_i32, pack_f64)
        return (pack_i32, pack_i16_pairs)

    def bind(self, pipeline, plan):
        """The segment's native stage table, or ``None`` without the
        native leaves."""
        from repro.runtime.pipeline import stage_weight_arrays

        if native.leaves() is None:
            return None
        weights = tuple(
            w for stage in pipeline.stages for w in stage_weight_arrays(stage)
        )
        return _Binding(weights, self._bound(pipeline, plan, weights))

    def _bound(self, pipeline, plan, weights) -> tuple:
        """A binding's ``(table, snapshot)``, snapshot taken first."""
        snapshot = tuple(w.tobytes() for w in weights)
        return self._table(pipeline, plan), snapshot

    def _table(self, pipeline, plan) -> native.SegmentTable:
        from repro.runtime.pipeline import (
            BottleneckStage,
            DenseStage,
            GlobalAvgPoolStage,
            PointwiseStage,
        )

        stages = []
        for sp, stage in zip(plan.stages, pipeline.stages):
            kern = sp.kernel
            if isinstance(stage, PointwiseStage):
                row = _pointwise_stage(kern, stage.weights, stage.mult)
            elif isinstance(stage, BottleneckStage):
                row = _bottleneck_stage(
                    kern, stage.w_expand, stage.w_dw, stage.w_project,
                    tuple(stage.mults),
                )
            elif isinstance(stage, GlobalAvgPoolStage):
                row = native.avgpool_stage(kern.h, kern.w, kern.c, stage.mult)
            elif isinstance(stage, DenseStage):
                row = _dense_stage(kern, stage.weights, stage.mult)
            else:
                raise KernelError(
                    f"unknown stage type {type(stage).__name__}"
                )
            stages.append(row)
        return native.SegmentTable(stages)

    def _run_stacked(self, pipeline, plan, xb, binding=None):
        """The whole segment in one native call.

        Per call this compares the weights' bytes with the binding's
        snapshot and allocates one output array per stage; everything
        else was bound once, by :meth:`bind` for a session or here for a
        caller that passes no ``binding``.
        """
        leaves = native.leaves()
        if leaves is None:
            return super()._run_stacked(pipeline, plan, xb)
        _fault_hook("backend.turbo.gemm")
        if binding is None:
            table = self._table(pipeline, plan)
        else:
            table, snapshot = binding.bound
            if tuple(w.tobytes() for w in binding.weights) != snapshot:
                bound = self._bound(pipeline, plan, binding.weights)
                binding.bound = bound
                table = bound[0]
        return leaves.segment(table, xb)

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
        return leaves.depthwise(xb, _pairs(w), mult, stride, pad)

    def _pointwise_batch(self, kern, xb, w, mult):
        leaves = native.leaves()
        if leaves is None:
            return super()._pointwise_batch(kern, xb, w, mult)
        _fault_hook("backend.turbo.gemm")
        return _run_stage(leaves, _pointwise_stage(kern, w, mult), xb)

    def _dense_batch(self, kern, xb, w, mult):
        leaves = native.leaves()
        if leaves is None:
            return super()._dense_batch(kern, xb, w, mult)
        _fault_hook("backend.turbo.gemm")
        return _run_stage(leaves, _dense_stage(kern, w, mult), xb)

    def _bottleneck_batch(self, kern, xb, w_expand, w_dw, w_project, mults):
        leaves = native.leaves()
        if leaves is None:
            return super()._bottleneck_batch(
                kern, xb, w_expand, w_dw, w_project, mults
            )
        return _run_stage(
            leaves,
            _bottleneck_stage(kern, w_expand, w_dw, w_project, mults),
            xb,
        )


register_execution_backend(TurboBackend())
