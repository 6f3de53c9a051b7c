"""Shared kernel infrastructure.

* :class:`KernelRun` — the result of a simulated execution: output tensor,
  the memory plan it ran under, pool statistics and the cost report.
* :class:`KernelCostModel` — the analytic latency/energy model shared by all
  kernels, with the calibration constants documented in DESIGN.md:

  - vMCU kernels fully unroll the inner reduction loop, so their MAC stream
    runs at the ISA rate (``VMCU_COMPUTE_EFFICIENCY = 1.0``);
  - TinyEngine unrolls to a fixed depth (16) and keeps per-tile loop
    bookkeeping, modeled as a 1.35x cycle multiplier on compute
    (``TINYENGINE_COMPUTE_EFFICIENCY``), and it never bypasses im2col, which
    adds one read+write round-trip of the input per convolution.

Both constants were fixed once while calibrating Table 3's ~1.03x latency
ratio and are used unchanged by every experiment.
"""

from __future__ import annotations

import os
import threading
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.planner import LayerPlan
from repro.core.pool import CircularSegmentPool, PoolStats
from repro.errors import KernelError
from repro.kernels.native import _LOCK as _NATIVE_LOCK
from repro.mcu.device import DeviceProfile
from repro.mcu.profiler import CostReport, Profiler

__all__ = [
    "KernelRun",
    "KernelCostModel",
    "ExecutionBackend",
    "SimulateBackend",
    "register_execution_backend",
    "get_execution_backend",
    "execution_backends",
    "cached_pack",
    "CostTemplate",
    "cached_template",
    "memoized_default_plan",
    "pack_i32",
    "pack_f64",
    "VMCU_COMPUTE_EFFICIENCY",
    "TINYENGINE_COMPUTE_EFFICIENCY",
    "TINYENGINE_UNROLL_DEPTH",
]

#: vMCU fully unrolls innermost reduction loops (Section 7.2).
VMCU_COMPUTE_EFFICIENCY = 1.0
#: TinyEngine unrolls to a fixed depth and pays loop bookkeeping, address
#: arithmetic and pipeline stalls around the MAC stream.  1.6 effective
#: issue slots per SMLAD is the one calibration constant fitted to land
#: Table 3's fused-vs-unfused latency ratio near the paper's ~1.03x; it is
#: then used unchanged for Figures 8.
TINYENGINE_COMPUTE_EFFICIENCY = 1.6
#: TinyEngine's predefined unroll depth (Section 7.2 mentions 16).
TINYENGINE_UNROLL_DEPTH = 16


@dataclass
class KernelRun:
    """Result of one kernel execution (any backend)."""

    output: np.ndarray
    plan: LayerPlan | object
    pool_stats: PoolStats
    report: CostReport


# --------------------------------------------------------------------------- #
# execution backends
# --------------------------------------------------------------------------- #
class ExecutionBackend:
    """One way of executing planned kernels.

    The shipped backends are ``"simulate"`` (the per-segment pool replay
    that audits every RAMLoad/RAMStore/RAMFree against the plan),
    ``"fast"`` (vectorized im2col + int32-GEMM NumPy execution with the pool
    traffic and profiler costs derived analytically from the plan, and
    stacked batches with per-plan cost-template replay for serving) and
    ``"turbo"`` (``"fast"`` with native int16-pair leaves, a whole
    segment per call).  All produce bit-identical outputs and cost
    reports; the latter two trade the per-segment race auditing for
    orders-of-magnitude lower wall clock.

    A backend implements one method per kernel family, each returning a
    :class:`KernelRun`, plus :meth:`run_pipeline` for whole-chain execution
    and :meth:`run_pipeline_batch` for many-input dispatch.  New backends
    subclass this and register via :func:`register_execution_backend`.
    """

    name = "abstract"

    def fully_connected(self, kernel, x, w, mult, **kw) -> KernelRun:
        raise NotImplementedError

    def pointwise(self, kernel, x, w, mult, **kw) -> KernelRun:
        raise NotImplementedError

    def conv2d(self, kernel, x, w, mult, **kw) -> KernelRun:
        raise NotImplementedError

    def depthwise(self, kernel, x, w, mult, **kw) -> KernelRun:
        raise NotImplementedError

    def avgpool(self, kernel, x, mult, **kw) -> KernelRun:
        raise NotImplementedError

    def bottleneck(
        self, kernel, x, w_expand, w_dw, w_project, mults, **kw
    ) -> KernelRun:
        raise NotImplementedError

    def run_pipeline(self, pipeline, plan, x, *, strict=True):
        raise NotImplementedError

    def bind(self, pipeline, plan):
        """Per-segment state for :meth:`run_pipeline_batch`, or ``None``.

        A caller that serves ``pipeline`` under ``plan`` many times (a
        :class:`~repro.serving.Session`) binds once and passes the result
        as ``binding=`` on every call, holding it no longer than the
        pipeline.  ``None`` means the backend binds nothing; pass no
        ``binding`` then.
        """
        return None

    def run_pipeline_batch(self, pipeline, plan, xs, *, strict=True):
        """Run many inputs against one plan; returns one result per input.

        The default dispatches per request; backends that can amortize
        across the batch (one stacked GEMM per stage, shared cost
        template) override this — see ``repro.kernels.fastpath``.
        """
        return [
            self.run_pipeline(pipeline, plan, x, strict=strict) for x in xs
        ]


class SimulateBackend(ExecutionBackend):
    """The audit-grade backend: per-segment replay in the circular pool.

    Every RAMLoad/RAMStore/RAMFree is executed against the pool's slot
    state machine, so plan violations surface as
    :class:`~repro.errors.SegmentRaceError` instead of silent corruption.
    """

    name = "simulate"

    def fully_connected(self, kernel, x, w, mult, **kw):
        return kernel._run_simulate(x, w, mult, **kw)

    def pointwise(self, kernel, x, w, mult, **kw):
        return kernel._run_simulate(x, w, mult, **kw)

    def conv2d(self, kernel, x, w, mult, **kw):
        return kernel._run_simulate(x, w, mult, **kw)

    def depthwise(self, kernel, x, w, mult, **kw):
        return kernel._run_simulate(x, w, mult, **kw)

    def avgpool(self, kernel, x, mult, **kw):
        return kernel._run_simulate(x, mult, **kw)

    def bottleneck(self, kernel, x, w_expand, w_dw, w_project, mults, **kw):
        return kernel._run_simulate(x, w_expand, w_dw, w_project, mults, **kw)

    def run_pipeline(self, pipeline, plan, x, *, strict=True):
        return pipeline._run_simulate(plan, x, strict=strict)


_EXECUTION_BACKENDS: dict[str, ExecutionBackend] = {}


def register_execution_backend(backend: ExecutionBackend) -> ExecutionBackend:
    """Register ``backend`` under ``backend.name`` (last registration wins)."""
    if not backend.name or backend.name == "abstract":
        raise KernelError(f"backend {backend!r} needs a concrete name")
    _EXECUTION_BACKENDS[backend.name] = backend
    return backend


def get_execution_backend(name: str) -> ExecutionBackend:
    """Look up a registered backend; error lists the available names."""
    try:
        return _EXECUTION_BACKENDS[name]
    except KeyError:
        raise KernelError(
            f"unknown execution backend {name!r}; "
            f"available: {sorted(_EXECUTION_BACKENDS)}"
        ) from None


def execution_backends() -> tuple[str, ...]:
    """Names of all registered execution backends."""
    return tuple(sorted(_EXECUTION_BACKENDS))


register_execution_backend(SimulateBackend())


# --------------------------------------------------------------------------- #
# packed-weight cache
# --------------------------------------------------------------------------- #
#: (id(w), seg_bytes, packer name) -> (weakref to w, content digest, packed
#: array).  Repeated ``Pipeline.run`` calls on a compiled plan hand the
#: *same* weight arrays to the kernels every time; packing is pure, so the
#: re-layout is done once.  The weakref guards against id() reuse after
#: garbage collection and evicts the entry when the source array dies; the
#: digest guards against in-place mutation of a cached array (a hit is
#: served only if the bytes still match, so stale packs are impossible).
_PACK_CACHE: dict[
    tuple[int, int, str], tuple[weakref.ref, int, np.ndarray]
] = {}
#: guards _PACK_CACHE: the dispatcher's sharded workers all pack through
#: this one memo, so lookup + insert must be atomic.  Held across the
#: pack itself — packing is a single relayout copy, and serializing it
#: guarantees each (array, seg, packer) triple is packed exactly once
#: instead of racing workers burning the copy N times.
_PACK_LOCK = threading.Lock()


def cached_pack(
    w: np.ndarray, seg: int, packer: Callable[[np.ndarray, int], np.ndarray]
) -> np.ndarray:
    """Memoized ``packer(w, seg)`` keyed by ``(id(w), seg)``.

    The packed array is shared across runs and must be treated as
    read-only by callers (the kernels only ever read weight blocks; the
    returned array is marked non-writeable).  A cache hit is validated
    against a content digest of the source array — one C-speed pass,
    versus the several reshape/transpose/copy passes of packing — so
    callers that mutate a weight array in place simply trigger a re-pack
    instead of receiving stale weights.  Views are packed fresh every
    call (their ids belong to throwaway wrapper objects).  Thread-safe:
    concurrent serving workers may hammer the same weights; each distinct
    source array is packed once.
    """
    if w.base is not None:
        return packer(w, seg)
    key = (id(w), seg, packer.__name__)
    digest = hash(w.tobytes())
    with _PACK_LOCK:
        hit = _PACK_CACHE.get(key)
        if hit is not None:
            ref, cached_digest, packed = hit
            if ref() is w and cached_digest == digest:
                return packed
        packed = packer(w, seg)
        packed.setflags(write=False)

        def _evict(_ref, key=key):
            _PACK_CACHE.pop(key, None)

        try:
            ref = weakref.ref(w, _evict)
        except TypeError:
            # not weakref-able: skip the cache, stay correct
            return packed
        _PACK_CACHE[key] = (ref, digest, packed)
        return packed


def pack_i32(w: np.ndarray, seg: int) -> np.ndarray:
    """Promote int8 weights to the int32 GEMM operand, once per array.

    Run through :func:`cached_pack` so repeated runs against the same
    weights skip the promotion copy entirely, while in-place mutation of
    the int8 source (digest mismatch) or its death (weakref eviction)
    invalidates the entry.  ``seg`` is unused — the promotion is
    segment-independent — but kept so the packer slots into the cache's
    ``(id, seg, packer)`` key contract.
    """
    return w.astype(np.int32)


def pack_f64(w: np.ndarray, seg: int) -> np.ndarray:
    """Promote int8 weights to the float64 BLAS GEMM operand.

    Used by the ``"turbo"`` backend's BLAS GEMM (conv2d, and every GEMM
    on a host without its native leaves): int8 values are exactly
    representable in a double, so the float64 GEMM it feeds is exact
    integer arithmetic (see :mod:`repro.kernels.turbo` for the overflow
    bound).  Same cache contract as :func:`pack_i32`.
    """
    return w.astype(np.float64)


# --------------------------------------------------------------------------- #
# cost-template cache
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class CostTemplate:
    """Per-stage cost reports and final pool statistics of one request.

    Both are input-independent for a fixed plan: the fast backend derives
    them from plan geometry alone, so one derivation serves every request
    on every backend.  ``stage_reports`` are the per-stage deltas a
    shared-profiler pipeline run records; ``pool_stats`` is the
    cumulative counter state after one whole-chain execution (the object
    every stage's ``KernelRun`` shares).
    """

    stage_reports: tuple[CostReport, ...]
    pool_stats: PoolStats


#: (id(plan), device name) -> (weakref to plan, template).  One cache for
#: every backend: the modeled cost is a property of the plan, not of the
#: arithmetic that derived it.  The weakref both guards against id()
#: reuse and evicts dead plans.
_TEMPLATE_CACHE: dict[tuple[int, str], tuple[weakref.ref, CostTemplate]] = {}
#: guards _TEMPLATE_CACHE: sharded dispatcher workers share it, so
#: lookup/derive/insert must be atomic.  Held across the derivation so
#: each plan's template is derived exactly once.
_TEMPLATE_LOCK = threading.Lock()


def cached_template(
    plan, device_name: str, derive: Callable[[], CostTemplate]
) -> CostTemplate:
    """Memoized ``derive()`` keyed by ``(id(plan), device_name)``.

    Same weakref discipline as :func:`cached_pack`; plans that cannot be
    weakly referenced are derived every call instead of cached.
    """
    key = (id(plan), device_name)
    with _TEMPLATE_LOCK:
        hit = _TEMPLATE_CACHE.get(key)
        if hit is not None and hit[0]() is plan:
            return hit[1]
        template = derive()

        def _evict(_ref, key=key):
            _TEMPLATE_CACHE.pop(key, None)

        try:
            ref = weakref.ref(plan, _evict)
        except TypeError:
            return template
        _TEMPLATE_CACHE[key] = (ref, template)
        return template


# --------------------------------------------------------------------------- #
# fork safety
# --------------------------------------------------------------------------- #
def _serving_locks() -> tuple[threading.Lock, ...]:
    """Every serving-path lock a forked child may take, in nesting order.

    ``fork()`` copies a mutex held by another thread into the child in
    its locked state, where no thread will ever release it — the first
    ``cached_pack`` or template lookup in the child would then deadlock.
    The process-mode dispatcher forks worker pools, so fork must happen
    at a quiescent point for these locks: the before-handler acquires
    them (waiting out any in-flight serving work, including a one-time
    native build), and both after-handlers release them again.  The
    template lock comes first because a template derivation packs
    weights and may trigger the native build, so acquiring in this order
    can never deadlock against a worker; neither of the other two is
    ever taken while holding the other.  All are plain ``Lock``\\ s, so
    the child's release needs no owner check.
    """
    return (_TEMPLATE_LOCK, _NATIVE_LOCK, _PACK_LOCK)


def _before_fork() -> None:
    for lock in _serving_locks():
        lock.acquire()


def _after_fork() -> None:
    for lock in _serving_locks():
        lock.release()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        before=_before_fork,
        after_in_parent=_after_fork,
        after_in_child=_after_fork,
    )


def memoized_default_plan(kernel, solve: Callable[[], object]) -> object:
    """Per-kernel memo of the default-configuration plan solve.

    Kernel geometry is immutable after construction, so every kernel's
    ``plan()`` caches its default-planner solve here: standalone
    ``run()`` loops stop re-paying the constraint solver on each call.
    Callers that pass an explicit planner bypass the memo (the solve
    then depends on planner configuration, which this cache ignores).
    """
    cached = getattr(kernel, "_default_plan", None)
    if cached is None:
        cached = solve()
        kernel._default_plan = cached
    return cached


class KernelCostModel:
    """Analytic cost accounting used by ``kernel.cost()`` implementations.

    The model charges four kinds of work to a profiler:

    * MACs at the device SMLAD rate, scaled by a schedule-efficiency factor;
    * SRAM traffic (bytes moved in/out of the pool and workspace);
    * Flash traffic (weight streaming);
    * per-segment overhead: boundary check + modulo for circular addressing
      (vMCU only — tensor-level baselines address tensors linearly).

    It returns a finished :class:`CostReport` so callers can read cycles,
    latency and the energy breakdown.
    """

    def __init__(self, device: DeviceProfile):
        self.device = device

    def report(
        self,
        *,
        macs: int,
        sram_load_bytes: int,
        sram_store_bytes: int,
        flash_bytes: int,
        requant_elements: int,
        segment_ops: int = 0,
        pow2_pool: bool = True,
        efficiency: float = VMCU_COMPUTE_EFFICIENCY,
        unroll_depth: int | None = None,
        extra_copy_bytes: int = 0,
    ) -> CostReport:
        """Build a cost report from aggregate work counts.

        Parameters
        ----------
        segment_ops:
            Number of segment loads/stores/frees performed against the
            circular pool; each costs a boundary check plus (modeled) modulo.
        efficiency:
            Schedule-efficiency multiplier on compute cycles (>= 1 means
            slower than the ISA peak).
        unroll_depth:
            If given, charge one loop branch per ``unroll_depth`` MACs
            (TinyEngine's partial unrolling); ``None`` means fully unrolled.
        extra_copy_bytes:
            Bytes moved by preprocessing copies (im2col), charged as one
            read plus one write plus copy cycles.
        """
        prof = Profiler(self.device)
        prof.count_macs(macs)
        prof.count_sram(sram_load_bytes, store=False)
        prof.count_sram(sram_store_bytes, store=True)
        prof.count_flash(flash_bytes)
        prof.count_requantize(requant_elements)
        if segment_ops:
            prof.count_branch(segment_ops)
            prof.count_modulo(segment_ops, power_of_two=pow2_pool)
        if unroll_depth is not None and unroll_depth > 0:
            prof.count_branch(macs // unroll_depth)
        if extra_copy_bytes:
            prof.count_sram(extra_copy_bytes, store=False)
            prof.count_sram(extra_copy_bytes, store=True)
        if efficiency > 1.0:
            # Schedule inefficiency shows up as extra issue slots around the
            # MAC stream; charge it as generic ALU work.
            prof.count_instr("MOV", (efficiency - 1.0) * macs / 2.0)
        return prof.report()


def make_pool(
    plan,
    device: DeviceProfile | None = None,
    *,
    slack_slots: int = 0,
    strict: bool = True,
    profiler: Profiler | None = None,
) -> CircularSegmentPool:
    """Construct a pool sized exactly to a plan (plus optional slack).

    ``slack_slots`` may be negative in tests that demonstrate that the plan
    is *tight* (one slot less ⇒ race).
    """
    return CircularSegmentPool(
        n_slots=plan.span_slots + slack_slots,
        seg_bytes=plan.seg_bytes,
        strict=strict,
        profiler=profiler,
    )


def last_reader_row(h: int, *, jump: int, offset: int, last_row: int) -> int:
    """Last output row that reads input row ``h`` (receptive-field inverse).

    Output row ``p`` reads input rows ``[p*jump + offset, ...]``, so input
    row ``h`` is last read by ``p = floor((h - offset) / jump)``, clamped to
    the output domain.  Rows never read at all report row ``-1`` (free them
    immediately).
    """
    p = (h - offset) // jump
    if p < 0:
        return -1
    return min(p, last_row)
