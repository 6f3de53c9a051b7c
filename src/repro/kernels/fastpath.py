"""Vectorized fast-path execution backend (``execution="fast"``).

The simulate backend replays every RAMLoad/RAMStore/RAMFree against the
circular pool's slot state machine — invaluable for auditing plans, but the
per-segment Python loop makes whole-model inference orders of magnitude
slower than the arithmetic itself.  This backend splits the two concerns the
same way TinyEngine splits analysis from generated kernels:

* **outputs** come from whole-tensor NumPy execution (im2col + int32 GEMM
  with one whole-tensor requantization).  int32 accumulation is associative
  and commutative modulo 2**32 and the requantization pipeline is
  elementwise, so the bits are identical to the simulator's segment-by-
  segment accumulation — the parity tests assert exact equality;
* **costs** come from *vectorized event generation*: the multiset of pool
  events a simulated run would perform (loads, stores, frees, wrap-arounds,
  input/output overlap clobbers, peak live slots) is derived analytically
  from the :class:`~repro.core.planner.LayerPlan` geometry with NumPy
  address arithmetic, then charged to the profiler in bulk.  Every counter
  increment the simulator makes is a multiple of 0.5 (exactly representable
  in a double), so bulk charging reproduces the simulator's
  :class:`~repro.mcu.profiler.CostReport` bit for bit as well.

What the fast path does *not* do is race-check: it trusts the plan.  Use
``execution="simulate"`` when auditing a new planner or segment policy.

For serving, :meth:`FastBackend.run_pipeline_batch` also amortizes what a
per-request :meth:`~FastBackend.run_pipeline` pays on every call but never
depends on the request:

* **event generation** depends only on the plan geometry, so one dry run
  on a zero input yields a :class:`~repro.kernels.base.CostTemplate` that
  is replayed for every request — bit-identical to what
  ``execution="simulate"`` reports for any input.  The template cache is
  shared by every backend (:func:`~repro.kernels.base.cached_template`);
* **per-input dispatch**: the batch is stacked into one
  ``[B * pixels, C]`` GEMM per stage, through the *same* batch-axis
  helpers a per-request run calls with a batch of one, so there is exactly
  one copy of the arithmetic and stacked-vs-single parity holds by
  construction.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.core.multilayer import compose_receptive_field
from repro.core.pool import PoolStats
from repro.errors import KernelError, ShapeError
from repro.kernels.base import (
    CostTemplate,
    ExecutionBackend,
    KernelRun,
    cached_pack,
    cached_template,
    pack_i32,
    register_execution_backend,
)
from repro.mcu.profiler import Profiler
from repro.quant import requantize

__all__ = ["FastBackend"]

#: lazily bound :func:`repro.serving.faults.perhaps` — the kernels layer
#: sits below serving, so the fault hook is resolved on first use instead
#: of imported at module load (which would cycle through serving's init).
_perhaps = None


def _fault_hook(site: str) -> None:
    """Fire ``site`` against the thread's scoped fault injector, if any."""
    global _perhaps
    if _perhaps is None:
        from repro.serving.faults import perhaps

        _perhaps = perhaps
    _perhaps(site)


# --------------------------------------------------------------------------- #
# address arithmetic
# --------------------------------------------------------------------------- #
def _contig_wraps(start: int, count: int, n_slots: int) -> int:
    """How many addresses in ``[start, start + count)`` wrap (>= n_slots)."""
    if count <= 0:
        return 0
    return max(0, start + count - max(n_slots, start))


def _starts_wraps(starts: np.ndarray, block: int, n_slots: int) -> int:
    """Wrapping addresses over blocks ``[s, s + block)`` for each start."""
    if starts.size == 0 or block <= 0:
        return 0
    starts = starts.astype(np.int64, copy=False)
    return int(
        np.clip(starts + block - np.maximum(n_slots, starts), 0, block).sum()
    )


# --------------------------------------------------------------------------- #
# the event ledger
# --------------------------------------------------------------------------- #
class _EventLedger:
    """Charges one kernel's pool-event totals to a profiler and PoolStats.

    The simulator interleaves tiny ``count_*`` calls with arithmetic; the
    ledger makes the same calls once with the totals.  Placement stores and
    the final read-back are — exactly like the simulator — visible in the
    pool statistics but never charged to the profiler (the previous layer
    paid the placement; the read-back is verification plumbing).
    """

    def __init__(
        self, profiler: Profiler, stats: PoolStats, n_slots: int
    ):
        self.profiler = profiler
        self.stats = stats
        self.n_slots = int(n_slots)
        self.pow2 = (self.n_slots & (self.n_slots - 1)) == 0

    # -- uncharged traffic (stats only) --------------------------------- #
    def place_input(self, base: int, n_segments: int, seg: int) -> None:
        self.stats.stores += n_segments
        self.stats.bytes_stored += n_segments * seg
        self.stats.wraps += _contig_wraps(base, n_segments, self.n_slots)

    def read_back(self, base: int, n_segments: int, seg: int) -> None:
        self.stats.loads += n_segments
        self.stats.bytes_loaded += n_segments * seg
        self.stats.wraps += _contig_wraps(base, n_segments, self.n_slots)

    # -- kernel-phase pool operations ----------------------------------- #
    def pool_ops(
        self, *, loads: int, stores: int, frees: int, wraps: int, seg: int
    ) -> None:
        """Charge ``loads + stores + frees`` slot operations at once."""
        ops = loads + stores + frees
        if ops:
            self.profiler.count_branch(ops)
        if wraps:
            self.profiler.count_modulo(wraps, power_of_two=self.pow2)
            self.stats.wraps += wraps
        if loads:
            self.profiler.count_sram(loads * seg, store=False)
            self.stats.loads += loads
            self.stats.bytes_loaded += loads * seg
        if stores:
            self.profiler.count_sram(stores * seg, store=True)
            self.stats.stores += stores
            self.stats.bytes_stored += stores * seg
        self.stats.frees += frees

    # -- input/output overlap accounting -------------------------------- #
    def overlap(
        self,
        *,
        in_base: int,
        in_segments: int,
        out_base: int,
        out_segments: int,
        free_times: np.ndarray,
        store_times: np.ndarray,
    ) -> None:
        """Replay the slot lifecycle analytically.

        ``free_times[i]`` / ``store_times[o]`` give the program-order
        position of input segment ``i``'s RAMFree and output segment
        ``o``'s RAMStore.  An output stored onto the slot of a still-live
        input segment *clobbers* it (the overlap mechanism); the later
        free of that input is a stale no-op.  Peak live slots follow from
        the merged event timeline.  Both quantities match the simulator's
        pool statistics exactly.
        """
        free_times = np.asarray(free_times, dtype=np.float64)
        store_times = np.asarray(store_times, dtype=np.float64)
        if free_times.shape != (in_segments,):
            raise KernelError("free_times must cover every input segment")
        if store_times.shape != (out_segments,):
            raise KernelError("store_times must cover every output segment")
        out_ids = np.arange(out_segments, dtype=np.int64)
        i_of_o = (out_base + out_ids - in_base) % self.n_slots
        valid = i_of_o < in_segments
        death = free_times.copy()
        vi = i_of_o[valid]
        clobbered = store_times[valid] < death[vi]
        death[vi[clobbered]] = store_times[valid][clobbered]
        times = np.concatenate([store_times, death])
        deltas = np.concatenate(
            [np.ones(out_segments), -np.ones(in_segments)]
        )
        # process deaths before stores at equal timestamps: a clobbering
        # store replaces a live slot atomically (live count unchanged)
        order = np.lexsort((deltas, times))
        traj = np.cumsum(deltas[order])
        peak = in_segments + (int(traj.max()) if traj.size else 0)
        peak = max(peak, in_segments)
        self.stats.clobbers += int(clobbered.sum())
        self.stats.peak_live = max(self.stats.peak_live, peak)


def _setup(kernel_plan, device, profiler, stats, n_slots, pool):
    """Shared prologue: reject pools, default the profiler/stats/slots."""
    if pool is not None:
        raise KernelError(
            "the fast backend executes without a pool; pass pool= only "
            "with execution='simulate'"
        )
    profiler = profiler if profiler is not None else Profiler(device)
    stats = stats if stats is not None else PoolStats()
    n_slots = n_slots if n_slots is not None else kernel_plan.span_slots
    return profiler, stats, _EventLedger(profiler, stats, n_slots)


def _ceil_div(a: np.ndarray, b: int) -> np.ndarray:
    """Elementwise ceiling division for (possibly negative) integers."""
    return -((-a) // b)


def _i32(w: np.ndarray) -> np.ndarray:
    """Cache-amortized int32 view of an int8 weight array."""
    return cached_pack(w, 0, pack_i32)


def _check_batch(kern, xb: np.ndarray) -> None:
    """``xb`` must stack ``[kern.h, kern.w, kern.c]`` inputs."""
    if xb.shape[1:] != (kern.h, kern.w, kern.c):
        raise ShapeError(
            f"batch must be int8[B,{kern.h},{kern.w},{kern.c}], "
            f"got {xb.shape}"
        )


def _dense_batch_input(kern, xb: np.ndarray) -> np.ndarray:
    """``xb`` as ``[B, kern.m, kern.k]``: each request's dense input rows."""
    x3 = xb.reshape(xb.shape[0], kern.m, -1)
    if x3.shape[2] != kern.k:
        raise ShapeError(
            f"batch must flatten to int8[B,{kern.m},{kern.k}], "
            f"got {xb.shape}"
        )
    return x3


def _check_bottleneck_batch(spec, xb: np.ndarray) -> None:
    if xb.shape[1:] != (spec.hw, spec.hw, spec.c_in):
        raise ShapeError(
            f"batch must be int8[B,{spec.hw},{spec.hw},{spec.c_in}], "
            f"got {xb.shape}"
        )


def _saturating_add(out: np.ndarray, residual) -> np.ndarray:
    """``out + residual`` clamped to int8; ``out`` itself if no residual."""
    if residual is None:
        return out
    return np.clip(
        out.astype(np.int16) + residual.astype(np.int16), -128, 127
    ).astype(np.int8)


# --------------------------------------------------------------------------- #
# the backend
# --------------------------------------------------------------------------- #
class FastBackend(ExecutionBackend):
    """im2col + int32-GEMM execution with analytic event generation."""

    name = "fast"
    #: packers the serving layer warms at session open so the first
    #: request pays no weight-promotion cost (overridden by backends
    #: whose arithmetic needs a different operand layout)
    weight_packers = (pack_i32,)

    # ------------------------------------------------------------------ #
    # batch-axis numeric kernels — the single source of numeric truth
    # ------------------------------------------------------------------ #
    # Every pipeline-stage family's whole-tensor arithmetic lives here
    # once, over a leading batch axis.  The per-kernel fast methods below
    # call them with a batch of one; run_pipeline_batch stacks whole
    # request batches through the same code.  int32 accumulation
    # wraps modulo 2**32 independently of summation order and each output
    # row depends only on its own input row, so batch size never changes
    # the bits.
    #
    # The three arithmetic leaves — the stacked GEMM, the requantize and
    # the depthwise taps — and the stage helpers are overridable hooks so
    # a backend can swap the *implementation* (the "turbo" backend runs
    # the stage helpers, and its stacked pass as one call over a stage
    # table, in native leaves where the host builds them, and otherwise
    # routes the three leaves through an exact float64 BLAS GEMM and
    # requantize_fast); the NumPy bodies here are the reference
    # arithmetic every override is property-tested against.
    def _gemm(
        self, x2d: np.ndarray, w: np.ndarray,
        w2d_shape: tuple[int, int] | None = None,
    ) -> np.ndarray:
        """``int8[M, K] @ int8[K, N]`` accumulated exactly as int32.

        ``w2d_shape`` reshapes the *packed* operand (a view — packing is
        elementwise, so it commutes with reshape); passing the base array
        plus a shape instead of ``w.reshape(...)`` keeps the pack-cache
        key stable, since ``cached_pack`` refuses to cache views.
        """
        wp = _i32(w)
        if w2d_shape is not None:
            wp = wp.reshape(w2d_shape)
        return x2d.astype(np.int32) @ wp

    def _requant(self, acc: np.ndarray, mult, residual=None) -> np.ndarray:
        """Scale int32 accumulators into int8 (gemmlowp pipeline).

        ``residual`` (int8, same element count as ``acc``) is then added
        with int8 saturation — the bottleneck's skip connection.
        """
        return _saturating_add(requantize(acc, mult), residual)

    def _depthwise_batch(self, xb, w, mult, stride, pad) -> np.ndarray:
        """Depthwise ``int8[B, H, W, C] * int8[k, k, C]`` taps, requantized.

        Zero padding ``pad`` on every border; the output is
        ``int8[B, P, Q, C]`` with ``P = (H + 2*pad - k) // stride + 1``.
        """
        bsz, h, wd, c = xb.shape
        k = w.shape[0]
        p = (h + 2 * pad - k) // stride + 1
        q = (wd + 2 * pad - k) // stride + 1
        # pre-promote the padded activation once: the k*k tap loop below
        # then slices int32 directly instead of casting every window view
        xp = np.zeros((bsz, h + 2 * pad, wd + 2 * pad, c), dtype=np.int32)
        xp[:, pad : pad + h, pad : pad + wd] = xb
        w32 = _i32(w)
        acc = np.zeros((bsz, p, q, c), dtype=np.int32)
        for dr in range(k):
            for ds in range(k):
                acc += (
                    xp[
                        :,
                        dr : dr + (p - 1) * stride + 1 : stride,
                        ds : ds + (q - 1) * stride + 1 : stride,
                    ]
                    * w32[dr, ds]
                )
        return self._requant(acc, mult)

    def _pointwise_batch(self, kern, xb, w, mult):
        bsz = xb.shape[0]
        _check_batch(kern, xb)
        st = kern.stride
        xs = xb[:, ::st, ::st, :]
        acc = self._gemm(xs.reshape(bsz * kern.p * kern.q, kern.c), w)
        return self._requant(acc, mult).reshape(bsz, kern.p, kern.q, kern.k)

    def _bottleneck_batch(self, kern, xb, w_expand, w_dw, w_project, mults):
        spec = kern.spec
        bsz = xb.shape[0]
        _check_bottleneck_batch(spec, xb)
        m1, mdw, m2 = mults
        s1, s2, s3 = spec.strides
        hb = spec.mid_spatial()
        p_out = spec.spatial_out()

        b = self._requant(
            self._gemm(
                xb[:, ::s1, ::s1, :].reshape(bsz * hb * hb, spec.c_in),
                w_expand,
            ),
            m1,
        ).reshape(bsz, hb, hb, spec.c_mid)
        # the 1x1 project keeps every s3-th depthwise pixel, so the taps
        # run at the composite stride: floor(floor(n/s2)/s3) = floor(n/(s2*s3))
        # gives exactly p_out pixels, and none is computed to be dropped
        c_t = self._depthwise_batch(b, w_dw, mdw, s2 * s3, spec.padding)
        acc_d = self._gemm(
            c_t.reshape(bsz * p_out * p_out, spec.c_mid), w_project
        )
        residual = xb.reshape(acc_d.shape) if spec.has_residual else None
        return self._requant(acc_d, m2, residual).reshape(
            bsz, p_out, p_out, spec.c_out
        )

    def _avgpool_batch(self, kern, xb, mult):
        _check_batch(kern, xb)
        acc = xb.astype(np.int32).sum(axis=(1, 2), dtype=np.int32)
        return self._requant(acc, mult)

    def _dense_batch(self, kern, xb, w, mult):
        bsz = xb.shape[0]
        x2 = _dense_batch_input(kern, xb).reshape(bsz * kern.m, kern.k)
        out = self._requant(self._gemm(x2, w), mult)
        # keep the runtime's [M, N] row convention per request
        return out.reshape(bsz, kern.m, kern.n)

    # ------------------------------------------------------------------ #
    def fully_connected(
        self, kernel, x, w, mult, *, device, plan, pool=None, strict=True,
        in_name="In", out_name="Out", place_input=True, profiler=None,
        stats=None, n_slots=None,
    ) -> KernelRun:
        if w.shape != (kernel.k, kernel.n) or w.dtype != np.int8:
            raise ShapeError(f"weight must be int8[{kernel.k},{kernel.n}]")
        if x.shape != (kernel.m, kernel.k) or x.dtype != np.int8:
            raise ShapeError(
                f"input must be int8[{kernel.m},{kernel.k}], got {x.shape}"
            )
        plan = plan or kernel.plan()
        profiler, stats, led = _setup(
            plan, device, profiler, stats, n_slots, pool
        )
        base = profiler.snapshot()
        seg = plan.seg_bytes
        m, ks, ns = kernel.m, kernel.ks, kernel.ns

        out = self._dense_batch(kernel, x[None], w, mult)[0]

        if place_input:
            led.place_input(plan.in_base, m * ks, seg)
        loads, stores, frees = m * ns * ks, m * ns, m * ks
        wraps = (
            ns * _contig_wraps(plan.in_base, m * ks, led.n_slots)
            + _contig_wraps(plan.out_base, stores, led.n_slots)
            + _contig_wraps(plan.in_base, frees, led.n_slots)
        )
        led.pool_ops(
            loads=loads, stores=stores, frees=frees, wraps=wraps, seg=seg
        )
        profiler.count_macs(loads * seg * seg)
        profiler.count_flash(loads * seg * seg)
        profiler.count_requantize(m * kernel.n)
        led.read_back(plan.out_base, stores, seg)
        led.overlap(
            in_base=plan.in_base, in_segments=m * ks,
            out_base=plan.out_base, out_segments=m * ns,
            free_times=np.repeat(np.arange(m) + 0.5, ks),
            store_times=np.repeat(np.arange(m, dtype=np.float64), ns),
        )
        return KernelRun(
            output=out, plan=plan, pool_stats=stats,
            report=profiler.report(since=base),
        )

    # ------------------------------------------------------------------ #
    def pointwise(
        self, kernel, x, w, mult, *, device, plan, pool=None, strict=True,
        in_name="In", out_name="Out", place_input=True, profiler=None,
        stats=None, n_slots=None,
    ) -> KernelRun:
        h, wd, c, kch = kernel.h, kernel.w, kernel.c, kernel.k
        if x.shape != (h, wd, c) or x.dtype != np.int8:
            raise ShapeError(f"input must be int8[{h},{wd},{c}], got {x.shape}")
        if w.shape != (c, kch) or w.dtype != np.int8:
            raise ShapeError(f"weight must be int8[{c},{kch}]")
        plan = plan or kernel.plan()
        profiler, stats, led = _setup(
            plan, device, profiler, stats, n_slots, pool
        )
        base = profiler.snapshot()
        seg = plan.seg_bytes
        st = kernel.stride
        p, q, ca, ce = kernel.p, kernel.q, kernel.ca, kernel.ce

        out = self._pointwise_batch(kernel, x[None], w, mult)[0]

        if place_input:
            led.place_input(plan.in_base, h * wd * ca, seg)
        loads = p * q * ce * ca
        stores = p * q * ce
        frees = h * wd * ca
        # one contiguous run of ca addresses per read pixel, repeated per
        # output-channel segment
        lin = (
            (np.arange(p, dtype=np.int64) * st * wd)[:, None]
            + np.arange(q, dtype=np.int64) * st
        ).ravel()
        wraps = (
            ce * _starts_wraps(plan.in_base + lin * ca, ca, led.n_slots)
            + _contig_wraps(plan.out_base, stores, led.n_slots)
            + _contig_wraps(plan.in_base, frees, led.n_slots)
        )
        led.pool_ops(
            loads=loads, stores=stores, frees=frees, wraps=wraps, seg=seg
        )
        profiler.count_macs(loads * seg * seg)
        profiler.count_flash(loads * seg * seg)
        profiler.count_requantize(p * q * kch)
        led.read_back(plan.out_base, stores, seg)

        # free schedule: pixel L is released by the first output pixel
        # whose read cursor has passed it (stride > 1 skips pixels; the
        # trailing sweep frees them after the loop)
        lp = np.arange(h * wd, dtype=np.int64)
        p_min = np.maximum(0, _ceil_div(lp - (q - 1) * st, st * wd))
        in_loop = p_min <= p - 1
        q_min = np.zeros_like(lp)
        q_min[in_loop] = np.maximum(
            0, _ceil_div(lp[in_loop] - p_min[in_loop] * st * wd, st)
        )
        pix_free = np.where(
            in_loop, p_min * q + q_min + 0.5, float(p * q)
        )
        led.overlap(
            in_base=plan.in_base, in_segments=frees,
            out_base=plan.out_base, out_segments=stores,
            free_times=np.repeat(pix_free, ca),
            store_times=np.repeat(np.arange(p * q, dtype=np.float64), ce),
        )
        return KernelRun(
            output=out, plan=plan, pool_stats=stats,
            report=profiler.report(since=base),
        )

    # ------------------------------------------------------------------ #
    def conv2d(
        self, kernel, x, w, mult, *, device, plan, pool=None, strict=True,
        profiler=None, stats=None, n_slots=None,
    ) -> KernelRun:
        h, wd, c, kch = kernel.h, kernel.w, kernel.c, kernel.k
        r, st, pad = kernel.r, kernel.stride, kernel.padding
        if x.shape != (h, wd, c) or x.dtype != np.int8:
            raise ShapeError(f"input must be int8[{h},{wd},{c}], got {x.shape}")
        if w.shape != (r, r, c, kch) or w.dtype != np.int8:
            raise ShapeError(f"weight must be int8[{r},{r},{c},{kch}]")
        plan = plan or kernel.plan()
        profiler, stats, led = _setup(
            plan, device, profiler, stats, n_slots, pool
        )
        base = profiler.snapshot()
        seg = plan.seg_bytes
        p, q, ca, ce = kernel.p, kernel.q, kernel.ca, kernel.ce

        if r == 1 and pad == 0:
            # 1x1 convolution: im2col is the identity, so skip the padded
            # copy and the window-view transpose entirely
            cols = np.ascontiguousarray(x[::st, ::st]).reshape(p * q, c)
        else:
            xp = np.zeros((h + 2 * pad, wd + 2 * pad, c), dtype=np.int8)
            xp[pad : pad + h, pad : pad + wd] = x
            win = sliding_window_view(xp, (r, r), axis=(0, 1))[::st, ::st]
            cols = (
                win.transpose(0, 1, 3, 4, 2).reshape(p * q, r * r * c)
            )
        acc = self._gemm(cols, w, (r * r * c, kch))
        out = self._requant(acc, mult).reshape(p, q, kch)

        led.place_input(plan.in_base, h * wd * ca, seg)
        # padding clips window taps: valid row/column tap counts are
        # separable across the two spatial axes
        row0 = np.arange(p, dtype=np.int64) * st - pad
        col0 = np.arange(q, dtype=np.int64) * st - pad
        hh = row0[:, None] + np.arange(r, dtype=np.int64)[None, :]
        ww = col0[:, None] + np.arange(r, dtype=np.int64)[None, :]
        hh = hh[(hh >= 0) & (hh < h)]
        ww = ww[(ww >= 0) & (ww < wd)]
        loads = int(hh.size) * int(ww.size) * ca * ce
        stores = p * q * ce
        frees = h * wd * ca
        starts = plan.in_base + (
            np.add.outer(hh * wd, ww) * ca
        ).ravel()
        wraps = (
            ce * _starts_wraps(starts, ca, led.n_slots)
            + _contig_wraps(plan.out_base, stores, led.n_slots)
            + _contig_wraps(plan.in_base, frees, led.n_slots)
        )
        led.pool_ops(
            loads=loads, stores=stores, frees=frees, wraps=wraps, seg=seg
        )
        profiler.count_macs(loads * seg * seg)
        profiler.count_flash(loads * seg * seg)
        profiler.count_requantize(p * q * kch)
        led.read_back(plan.out_base, stores, seg)

        # input rows die after the output row that last reads them
        p_free = np.minimum((np.arange(h, dtype=np.int64) + pad) // st, p - 1)
        led.overlap(
            in_base=plan.in_base, in_segments=frees,
            out_base=plan.out_base, out_segments=stores,
            free_times=np.repeat(p_free * q + q - 0.5, wd * ca),
            store_times=np.repeat(np.arange(p * q, dtype=np.float64), ce),
        )
        return KernelRun(
            output=out, plan=plan, pool_stats=stats,
            report=profiler.report(since=base),
        )

    # ------------------------------------------------------------------ #
    def depthwise(
        self, kernel, x, w, mult, *, device, plan, pool=None, strict=True,
        profiler=None, stats=None, n_slots=None,
    ) -> KernelRun:
        h, wd, c = kernel.h, kernel.w, kernel.c
        r, st, pad = kernel.r, kernel.stride, kernel.padding
        if x.shape != (h, wd, c) or x.dtype != np.int8:
            raise ShapeError(f"input must be int8[{h},{wd},{c}], got {x.shape}")
        if w.shape != (r, r, c) or w.dtype != np.int8:
            raise ShapeError(f"weight must be int8[{r},{r},{c}]")
        plan = plan or kernel.plan()
        profiler, stats, led = _setup(
            plan, device, profiler, stats, n_slots, pool
        )
        base = profiler.snapshot()
        seg = plan.seg_bytes
        p, q = kernel.p, kernel.q

        out = self._depthwise_batch(x[None], w, mult, st, pad)[0]

        led.place_input(plan.in_base, h * wd, seg)
        row0 = np.arange(p, dtype=np.int64) * st - pad
        col0 = np.arange(q, dtype=np.int64) * st - pad
        hh = row0[:, None] + np.arange(r, dtype=np.int64)[None, :]
        ww = col0[:, None] + np.arange(r, dtype=np.int64)[None, :]
        hh = hh[(hh >= 0) & (hh < h)]
        ww = ww[(ww >= 0) & (ww < wd)]
        loads = int(hh.size) * int(ww.size)
        stores = p * q
        frees = h * wd
        addrs = plan.in_base + np.add.outer(hh * wd, ww).ravel()
        wraps = (
            int((addrs >= led.n_slots).sum())
            + _contig_wraps(plan.out_base, stores, led.n_slots)
            + _contig_wraps(plan.in_base, frees, led.n_slots)
        )
        led.pool_ops(
            loads=loads, stores=stores, frees=frees, wraps=wraps, seg=seg
        )
        profiler.count_macs(loads * c)
        profiler.count_flash(loads * c)
        profiler.count_requantize(p * q * c)
        led.read_back(plan.out_base, stores, seg)

        p_free = np.minimum((np.arange(h, dtype=np.int64) + pad) // st, p - 1)
        led.overlap(
            in_base=plan.in_base, in_segments=frees,
            out_base=plan.out_base, out_segments=stores,
            free_times=np.repeat(p_free * q + q - 0.5, wd),
            store_times=np.arange(p * q, dtype=np.float64),
        )
        return KernelRun(
            output=out, plan=plan, pool_stats=stats,
            report=profiler.report(since=base),
        )

    # ------------------------------------------------------------------ #
    def avgpool(
        self, kernel, x, mult, *, device, plan, pool=None, strict=True,
        in_name="In", out_name="Out", place_input=True, profiler=None,
        stats=None, n_slots=None,
    ) -> KernelRun:
        h, wd, c = kernel.h, kernel.w, kernel.c
        if x.shape != (h, wd, c) or x.dtype != np.int8:
            raise ShapeError(f"input must be int8[{h},{wd},{c}], got {x.shape}")
        plan = plan or kernel.plan()
        profiler, stats, led = _setup(
            plan, device, profiler, stats, n_slots, pool
        )
        base = profiler.snapshot()
        seg = plan.seg_bytes
        ca = kernel.ca
        n_px = h * wd

        out = self._avgpool_batch(kernel, x[None], mult)[0]

        if place_input:
            led.place_input(plan.in_base, n_px * ca, seg)
        loads = frees = n_px * ca
        stores = ca
        wraps = (
            2 * _contig_wraps(plan.in_base, n_px * ca, led.n_slots)
            + _contig_wraps(plan.out_base, ca, led.n_slots)
        )
        led.pool_ops(
            loads=loads, stores=stores, frees=frees, wraps=wraps, seg=seg
        )
        profiler.count_instr("SADD16", n_px * ca * seg / 2.0)
        profiler.count_requantize(c)
        led.read_back(plan.out_base, ca, seg)
        led.overlap(
            in_base=plan.in_base, in_segments=n_px * ca,
            out_base=plan.out_base, out_segments=ca,
            free_times=np.repeat(np.arange(n_px) + 0.5, ca),
            store_times=np.full(ca, float(n_px)),
        )
        return KernelRun(
            output=out, plan=plan, pool_stats=stats,
            report=profiler.report(since=base),
        )

    # ------------------------------------------------------------------ #
    def bottleneck(
        self, kernel, x, w_expand, w_dw, w_project, mults, *, device, plan,
        pool=None, strict=True, in_name="A", out_name="E", place_input=True,
        profiler=None, stats=None, n_slots=None,
    ) -> KernelRun:
        spec = kernel.spec
        if x.shape != (spec.hw, spec.hw, spec.c_in) or x.dtype != np.int8:
            raise ShapeError(
                f"input must be int8[{spec.hw},{spec.hw},{spec.c_in}], "
                f"got {x.shape}"
            )
        if w_expand.shape != (spec.c_in, spec.c_mid):
            raise ShapeError(f"w_expand must be [{spec.c_in},{spec.c_mid}]")
        if w_dw.shape != (spec.kernel, spec.kernel, spec.c_mid):
            raise ShapeError(
                f"w_dw must be [{spec.kernel},{spec.kernel},{spec.c_mid}]"
            )
        if w_project.shape != (spec.c_mid, spec.c_out):
            raise ShapeError(f"w_project must be [{spec.c_mid},{spec.c_out}]")
        m1, mdw, m2 = mults
        plan = plan or kernel.plan()
        profiler, stats, led = _setup(
            plan, device, profiler, stats, n_slots, pool
        )
        base = profiler.snapshot()
        seg = plan.seg_bytes
        s1, s2, s3 = spec.strides
        pad, k = spec.padding, spec.kernel
        hb = spec.mid_spatial()
        p_out = spec.spatial_out()
        ca = spec.c_in // seg
        ce = spec.c_out // seg
        hw = spec.hw

        # -- whole-tensor execution of the fused chain ------------------- #
        out = self._bottleneck_batch(
            kernel, x[None], w_expand, w_dw, w_project, (m1, mdw, m2)
        )[0]

        # -- event generation -------------------------------------------- #
        if place_input:
            led.place_input(plan.in_base, hw * hw * ca, seg)

        # which B pixels get computed (and thus load their A pixel)
        if kernel.planner.halo_mode == "cache_rows":
            tap = (
                (np.arange(p_out, dtype=np.int64) * s3 * s2)[:, None]
                + np.arange(k, dtype=np.int64)[None, :]
                - pad
            )
            needed = np.zeros(hb, dtype=bool)
            needed[tap[(tap >= 0) & (tap < hb)]] = True
            axis = np.flatnonzero(needed).astype(np.int64)
            ncb = int(axis.size) ** 2
            b_starts = plan.in_base + (
                np.add.outer(axis * s1 * hw, axis * s1) * ca
            ).ravel()
        else:
            pbs, qbs = _recompute_events(p_out, hb, k, pad, s2, s3)
            ncb = pbs.size
            b_starts = plan.in_base + (pbs * s1 * hw + qbs * s1) * ca
        b_wraps = _starts_wraps(b_starts, ca, led.n_slots)

        # depthwise taps clipped by padding (separable, square)
        row0 = np.arange(p_out, dtype=np.int64) * s3 * s2 - pad
        vr = np.clip(np.minimum(hb, row0 + k) - np.maximum(0, row0), 0, k)
        valid_taps = int(vr.sum()) ** 2
        px = p_out * p_out

        loads = ncb * ca + (px * ca if spec.has_residual else 0)
        stores = px * ce
        frees = hw * hw * ca
        wraps = b_wraps + _contig_wraps(plan.out_base, stores, led.n_slots)
        wraps += _contig_wraps(plan.in_base, frees, led.n_slots)
        if spec.has_residual:
            # residual A reads cover every input pixel exactly once
            wraps += _contig_wraps(plan.in_base, px * ca, led.n_slots)
        led.pool_ops(
            loads=loads, stores=stores, frees=frees, wraps=wraps, seg=seg
        )

        # compute work: pw-expand per computed B pixel, depthwise per valid
        # tap, pw-project per output pixel (all workspace traffic is plain
        # SRAM, not pool ops)
        profiler.count_macs(
            ncb * spec.c_in * spec.c_mid
            + valid_taps * spec.c_mid
            + px * spec.c_mid * spec.c_out
        )
        profiler.count_flash(
            ncb * spec.c_in * spec.c_mid
            + px * k * k * spec.c_mid
            + px * spec.c_mid * spec.c_out
        )
        profiler.count_requantize(
            ncb * spec.c_mid + px * spec.c_mid + px * spec.c_out
        )
        profiler.count_sram(
            valid_taps * spec.c_mid + px * spec.c_mid, store=False
        )
        profiler.count_sram(
            ncb * spec.c_mid + px * spec.c_mid, store=True
        )
        if spec.has_residual:
            profiler.count_instr("SADD16", px * spec.c_out / 2.0)
        led.read_back(plan.out_base, stores, seg)

        rf = compose_receptive_field(spec.stages)
        lr = (np.arange(hw, dtype=np.int64) - rf.offset) // rf.jump
        p_free = np.minimum(np.maximum(lr, 0), p_out - 1)
        led.overlap(
            in_base=plan.in_base, in_segments=frees,
            out_base=plan.out_base, out_segments=stores,
            free_times=np.repeat(p_free * p_out + p_out - 0.5, hw * ca),
            store_times=np.repeat(np.arange(px, dtype=np.float64), ce),
        )
        return KernelRun(
            output=out, plan=plan, pool_stats=stats,
            report=profiler.report(since=base),
        )

    # ------------------------------------------------------------------ #
    def run_pipeline(self, pipeline, plan, x, *, strict=True):
        """Whole-chain fast execution: no pool, one profiler, one ledger.

        Mirrors the simulated pipeline exactly: the input placement is
        charged to the (shared) pool statistics but not to any stage's
        profile, each stage consumes the previous stage's output where the
        shifted plan says it lives, and every stage's ``KernelRun`` carries
        the shared cumulative :class:`PoolStats` (as the simulated pipeline
        shares one pool's counters).
        """
        from repro.runtime.pipeline import (
            BottleneckStage,
            DenseStage,
            GlobalAvgPoolStage,
            PipelineResult,
            PointwiseStage,
        )

        profiler = Profiler(pipeline.device)
        stats = PoolStats()
        n_slots = plan.capacity_slots
        result = PipelineResult(output=x, plan=plan)
        act = x
        for i, (sp, stage) in enumerate(zip(plan.stages, pipeline.stages)):
            common = dict(
                device=pipeline.device, plan=sp.plan, strict=strict,
                in_name=sp.in_name, out_name=sp.out_name,
                place_input=(i == 0), profiler=profiler, stats=stats,
                n_slots=n_slots,
            )
            if isinstance(stage, PointwiseStage):
                run = self.pointwise(
                    sp.kernel, act, stage.weights, stage.mult, **common
                )
            elif isinstance(stage, BottleneckStage):
                run = self.bottleneck(
                    sp.kernel, act, stage.w_expand, stage.w_dw,
                    stage.w_project, tuple(stage.mults), **common,
                )
            elif isinstance(stage, GlobalAvgPoolStage):
                run = self.avgpool(sp.kernel, act, stage.mult, **common)
            elif isinstance(stage, DenseStage):
                run = self.fully_connected(
                    sp.kernel, act.reshape(1, -1), stage.weights,
                    stage.mult, **common,
                )
            else:
                raise KernelError(
                    f"unknown stage type {type(stage).__name__}"
                )
            result.stage_runs.append(run)
            act = run.output
        result.output = act
        return result

    # ------------------------------------------------------------------ #
    # plan-once/run-many: cost template + stacked batches
    # ------------------------------------------------------------------ #
    def pipeline_template(self, pipeline, plan) -> CostTemplate:
        """Build (or fetch) the plan's cost template.

        One dry :meth:`run_pipeline` on a zero input performs exactly the
        analytic event generation the template must capture; its numeric
        half runs on this backend's per-stage arithmetic and
        is the one-time price of not duplicating the event code.
        """

        def derive() -> CostTemplate:
            x0 = np.zeros(
                (pipeline.input_hw, pipeline.input_hw, pipeline.input_c),
                dtype=np.int8,
            )
            dry = self.run_pipeline(pipeline, plan, x0)
            return CostTemplate(
                stage_reports=tuple(r.report for r in dry.stage_runs),
                pool_stats=replace(dry.stage_runs[-1].pool_stats),
            )

        return cached_template(plan, pipeline.device.name, derive)

    def _run_stacked(
        self, pipeline, plan, xb, binding=None
    ) -> list[np.ndarray]:
        """One stacked pass; returns each stage's ``[B, *single_shape]``.

        ``binding`` is what :meth:`bind` returned for this segment; this
        backend binds nothing.
        """
        from repro.runtime.pipeline import (
            BottleneckStage,
            DenseStage,
            GlobalAvgPoolStage,
            PointwiseStage,
        )

        acts: list[np.ndarray] = []
        act = xb
        for sp, stage in zip(plan.stages, pipeline.stages):
            if isinstance(stage, PointwiseStage):
                act = self._pointwise_batch(
                    sp.kernel, act, stage.weights, stage.mult
                )
            elif isinstance(stage, BottleneckStage):
                act = self._bottleneck_batch(
                    sp.kernel, act, stage.w_expand, stage.w_dw,
                    stage.w_project, tuple(stage.mults),
                )
            elif isinstance(stage, GlobalAvgPoolStage):
                act = self._avgpool_batch(sp.kernel, act, stage.mult)
            elif isinstance(stage, DenseStage):
                act = self._dense_batch(
                    sp.kernel, act, stage.weights, stage.mult
                )
            else:
                raise KernelError(
                    f"unknown stage type {type(stage).__name__}"
                )
            acts.append(act)
        return acts

    def run_pipeline_batch(
        self, pipeline, plan, xs, *, strict=True, binding=None
    ):
        """Run ``xs`` through the chain as one stacked pass per stage.

        Returns one :class:`~repro.runtime.pipeline.PipelineResult` per
        request: per-stage outputs are views into the stacked activations,
        per-stage reports are the shared cost template's (bit-identical to
        a per-request simulate/fast run), and each request carries its own
        copy of the template's cumulative pool statistics.  A result
        builds its stage runs when they are first read; its ``output``
        needs none of them.  ``binding`` is what :meth:`bind` returned
        for ``pipeline`` and ``plan``, held by the caller across calls;
        the caller must pass the same pipeline and stage objects it was
        bound from.
        """
        from repro.runtime.pipeline import _StackedResult

        _fault_hook(f"backend.{self.name}")
        if len(xs) == 0:
            raise KernelError("run_pipeline_batch needs a non-empty batch")
        first = np.asarray(xs[0])
        for i, x in enumerate(xs):
            x = np.asarray(x)
            if x.dtype != np.int8:
                raise ShapeError(f"request {i}: inputs must be int8")
            if x.shape != first.shape:
                raise ShapeError(
                    f"request {i}: shape {x.shape} != {first.shape}; "
                    "a batch must be uniformly shaped"
                )
        template = self.pipeline_template(pipeline, plan)
        acts = self._run_stacked(pipeline, plan, np.stack(xs), binding)
        return [
            _StackedResult(acts, i, plan, template) for i in range(len(xs))
        ]


def _recompute_events(
    p_out: int, hb: int, k: int, pad: int, s2: int, s3: int
) -> tuple[np.ndarray, np.ndarray]:
    """B pixels computed by the rolling ``k x k`` window (recompute mode).

    The simulated kernel keeps the previous window as its cache, so a
    window entry is recomputed iff it falls outside the previous window's
    rectangle — including the cross-row wrap where the last window of row
    ``p`` seeds the first window of row ``p + 1``.
    """
    pbs: list[int] = []
    qbs: list[int] = []
    prev: tuple[int, int, int, int] | None = None
    for p in range(p_out):
        r0 = max(0, p * s3 * s2 - pad)
        r1 = min(hb, p * s3 * s2 - pad + k)
        for q in range(p_out):
            c0 = max(0, q * s3 * s2 - pad)
            c1 = min(hb, q * s3 * s2 - pad + k)
            if prev is None:
                for pb in range(r0, r1):
                    for qb in range(c0, c1):
                        pbs.append(pb)
                        qbs.append(qb)
            else:
                pr0, pr1, pc0, pc1 = prev
                for pb in range(r0, r1):
                    row_cached = pr0 <= pb < pr1
                    for qb in range(c0, c1):
                        if row_cached and pc0 <= qb < pc1:
                            continue
                        pbs.append(pb)
                        qbs.append(qb)
            prev = (r0, r1, c0, c1)
    return np.asarray(pbs, dtype=np.int64), np.asarray(qbs, dtype=np.int64)


register_execution_backend(FastBackend())
