"""Multi-layer (fused) memory planning — Section 5.2 / Equation 2.

Fusing a producer-consumer chain lets vMCU eliminate the intermediate
tensors entirely: only the chain input ``A`` and final output ``E`` live in
the segment pool, and they partially overlap exactly like a single layer's
input/output.  The intermediates live in a tiny fixed workspace (the
``3x3 + 1 + 1`` segments of Figure 6).

The Equation-2 constraint system collapses, for a streaming chain executed
in output-pixel order, to a single-layer problem on the *composed* accesses:
each output pixel of ``E`` reads a composite receptive-field window of
``A`` (plus the residual element when the block has a skip connection).
This module computes that composition and solves it with the Eq.-1 solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Literal, Sequence

import numpy as np

from repro.core.affine import (
    AccessFunction,
    IterationDomain,
    RowMajorLayout,
    TensorAccess,
)
from repro.core.planner import SingleLayerPlanner
from repro.core.segment_size import select_segment_size
from repro.core.solver import required_span
from repro.errors import PlanError

__all__ = [
    "ConvStage",
    "ReceptiveField",
    "compose_receptive_field",
    "BottleneckSpec",
    "FusedBlockPlan",
    "InvertedBottleneckPlanner",
    "ChainPlan",
    "plan_streaming_chain",
]

HaloMode = Literal["recompute", "cache_rows"]


@dataclass(frozen=True)
class ConvStage:
    """One convolution stage of a streaming chain (square kernels)."""

    name: str
    kernel: int
    stride: int
    padding: int
    out_channels: int

    def __post_init__(self) -> None:
        if self.kernel <= 0 or self.stride <= 0 or self.padding < 0:
            raise PlanError(f"bad conv stage {self}")
        if self.out_channels <= 0:
            raise PlanError(f"stage {self.name!r} needs positive channels")

    def out_extent(self, in_extent: int) -> int:
        """Output spatial extent for one axis."""
        out = (in_extent + 2 * self.padding - self.kernel) // self.stride + 1
        if out <= 0:
            raise PlanError(
                f"stage {self.name!r} collapses extent {in_extent} to {out}"
            )
        return out


@dataclass(frozen=True)
class ReceptiveField:
    """Composite input window of a chain, per output pixel (one axis).

    Output pixel ``p`` reads input rows ``[p*jump + offset,
    p*jump + offset + size - 1]`` (rows outside the input are padding).
    """

    size: int
    jump: int
    offset: int

    def input_range(self, p: int) -> tuple[int, int]:
        start = p * self.jump + self.offset
        return start, start + self.size - 1


def compose_receptive_field(stages: Sequence[ConvStage]) -> ReceptiveField:
    """Compose per-stage windows back-to-front (standard RF arithmetic)."""
    if not stages:
        raise PlanError("cannot compose an empty chain")
    size, jump, offset = 1, 1, 0
    for st in reversed(stages):
        size = (size - 1) * st.stride + st.kernel
        jump *= st.stride
        offset = offset * st.stride - st.padding
    return ReceptiveField(size=size, jump=jump, offset=offset)


@dataclass(frozen=True)
class BottleneckSpec:
    """One inverted-bottleneck block (a Table 2 row).

    ``strides`` are the strides of (pointwise-expand, depthwise, pointwise-
    project), matching the paper's three-value strides column.

    The spec is frozen, so its derived geometry (``stages``, extents,
    byte sizes, ``has_residual``) is computed once, on first use, and
    kept in the instance.  Equality, hashing and ``repr`` see only the
    fields; ``dataclasses.replace`` builds a spec that computes afresh.
    """

    name: str
    hw: int
    c_in: int
    c_mid: int
    c_out: int
    kernel: int
    strides: tuple[int, int, int] = (1, 1, 1)

    def __post_init__(self) -> None:
        if min(self.hw, self.c_in, self.c_mid, self.c_out, self.kernel) <= 0:
            raise PlanError(f"bad bottleneck spec {self}")
        if len(self.strides) != 3 or any(s <= 0 for s in self.strides):
            raise PlanError(f"bad strides {self.strides} for {self.name}")

    @property
    def padding(self) -> int:
        """Same-style padding for the depthwise stage."""
        return (self.kernel - 1) // 2

    @cached_property
    def stages(self) -> tuple[ConvStage, ...]:
        s1, s2, s3 = self.strides
        return (
            ConvStage("pw_expand", 1, s1, 0, self.c_mid),
            ConvStage("depthwise", self.kernel, s2, self.padding, self.c_mid),
            ConvStage("pw_project", 1, s3, 0, self.c_out),
        )

    @cached_property
    def stride_product(self) -> int:
        return math.prod(self.strides)

    @cached_property
    def has_residual(self) -> bool:
        """Skip connection exists iff shapes are preserved (MobileNetV2 rule).

        Unit strides and ``c_in == c_out`` are not enough: an even kernel's
        same-style padding ``(k-1)//2`` shrinks the image by one pixel.
        """
        return (
            self.stride_product == 1
            and self.c_in == self.c_out
            and self.spatial_out() == self.hw
        )

    def spatial_out(self) -> int:
        return self._spatial_out

    def mid_spatial(self) -> int:
        """Spatial extent of tensor B/C (after the expand stage)."""
        return self._mid_spatial

    @cached_property
    def _spatial_out(self) -> int:
        extent = self.hw
        for st in self.stages:
            extent = st.out_extent(extent)
        return extent

    @cached_property
    def _mid_spatial(self) -> int:
        return self.stages[0].out_extent(self.hw)

    # tensor byte sizes (int8) --------------------------------------------
    @cached_property
    def in_bytes(self) -> int:
        return self.hw * self.hw * self.c_in

    @cached_property
    def out_bytes(self) -> int:
        p = self.spatial_out()
        return p * p * self.c_out

    @cached_property
    def mid_bytes(self) -> int:
        """Size of the expanded tensor B (the tensor fusion eliminates)."""
        m = self.mid_spatial()
        return m * m * self.c_mid

    def fusable(self) -> bool:
        """Whether the streaming fused kernel applies.

        The depthwise stage must still produce output under its padding
        (the paper excludes its 18th ImageNet block, where a 7x7 kernel on
        a 6x6 unpadded image cannot); with same-style padding a 7x7 on 6x6
        (B16) remains computable and fusable.
        """
        return self.kernel <= self.mid_spatial() + 2 * self.padding


@dataclass(frozen=True)
class FusedBlockPlan:
    """Memory plan for a fused inverted-bottleneck kernel.

    The pool holds only A (input) and E (output), ``distance`` segments
    apart; B, C, D live in ``workspace_bytes`` outside the pool.
    """

    spec: BottleneckSpec
    seg_bytes: int
    distance: int
    in_base: int
    out_base: int
    in_segments: int
    out_segments: int
    span_slots: int
    workspace_bytes: int
    halo_mode: HaloMode
    solver_method: str
    receptive_field: ReceptiveField = field(repr=False)

    @property
    def pool_bytes(self) -> int:
        return self.span_slots * self.seg_bytes

    @property
    def footprint_bytes(self) -> int:
        return self.pool_bytes + self.workspace_bytes

    @property
    def eliminated_bytes(self) -> int:
        """Intermediate tensor bytes that never materialize (B, C, D)."""
        d_bytes = self.spec.spatial_out() ** 2 * self.spec.c_out
        return 2 * self.spec.mid_bytes + d_bytes - self.workspace_bytes


class InvertedBottleneckPlanner:
    """Plan the fused inverted-bottleneck kernel of Figure 6.

    ``halo_mode`` selects the workspace strategy:

    * ``"cache_rows"`` (default): cache ``k`` full rows of the expanded
      tensor in workspace, computing each B pixel exactly once.  This is
      what reproduces both the paper's per-block RAM (Figure 9) and its
      fused-vs-unfused latency ratio (~1.03x, Table 3); see DESIGN.md.
    * ``"recompute"``: the literal Figure 6 description — a ``k*k + 1 + 1``
      segment workspace with the window recomputed as it slides (column
      rolling, ~k x recomputation of the expand conv).  Smaller workspace,
      higher latency; the trade-off is quantified by
      ``benchmarks/bench_ablation_halo.py``.
    """

    def __init__(self, *, halo_mode: HaloMode = "cache_rows",
                 prefer_exact: bool | None = None):
        if halo_mode not in ("recompute", "cache_rows"):
            raise PlanError(f"unknown halo mode {halo_mode!r}")
        self.halo_mode: HaloMode = halo_mode
        self.prefer_exact = prefer_exact
        self._planner = SingleLayerPlanner(prefer_exact=prefer_exact)

    # ------------------------------------------------------------------ #
    def segment_bytes(self, spec: BottleneckSpec) -> int:
        """Section 5.3 policy: min of in/out channel size (gcd-aligned)."""
        return select_segment_size(spec.c_in, spec.c_out)

    def workspace_bytes(self, spec: BottleneckSpec) -> int:
        """Out-of-pool buffer for the intermediates B, C, D.

        Recompute mode matches Figure 6: a ``k x k`` window of B segments
        (each ``c_mid`` bytes) plus one C segment (``c_mid``) plus one D
        segment (``c_out``) — 11 segments for a 3x3 depthwise.
        """
        k = spec.kernel
        if self.halo_mode == "recompute":
            b_window = k * k * spec.c_mid
        else:
            b_window = k * spec.mid_spatial() * spec.c_mid
        return b_window + spec.c_mid + spec.c_out

    # ------------------------------------------------------------------ #
    def accesses(
        self, spec: BottleneckSpec, seg_bytes: int
    ) -> tuple[IterationDomain, list[TensorAccess], list[TensorAccess]]:
        """Build the composed Eq.-2 access system on the output-pixel domain.

        Only the binding accesses are modeled: for reads the lowest channel
        segment of each window tap (smallest address ⇒ tightest constraint),
        for writes the highest channel segment of the output pixel.
        """
        ca = spec.c_in // seg_bytes
        ce = spec.c_out // seg_bytes
        if ca * seg_bytes != spec.c_in or ce * seg_bytes != spec.c_out:
            raise PlanError(
                f"segment size {seg_bytes} does not divide channels of {spec.name}"
            )
        rf = compose_receptive_field(spec.stages)
        h = w = spec.hw
        p = q = spec.spatial_out()
        domain = IterationDomain(extents=(p, q), names=("p", "q"))
        layout_a = RowMajorLayout(shape=(h, w, ca))
        layout_e = RowMajorLayout(shape=(p, q, ce))

        def window_guard(dr: int, dc: int):
            def guard(instances: np.ndarray) -> np.ndarray:
                rows = instances[:, 0] * rf.jump + rf.offset + dr
                cols = instances[:, 1] * rf.jump + rf.offset + dc
                return (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
            return guard

        reads: list[TensorAccess] = []
        for dr in range(rf.size):
            for dc in range(rf.size):
                access = AccessFunction(
                    matrix=((rf.jump, 0), (0, rf.jump), (0, 0)),
                    offset=(rf.offset + dr, rf.offset + dc, 0),
                )
                reads.append(
                    TensorAccess(
                        tensor="A",
                        access=access,
                        layout=layout_a,
                        guard=window_guard(dr, dc),
                    )
                )
        if spec.has_residual:
            reads.append(
                TensorAccess(
                    tensor="A",
                    access=AccessFunction(
                        matrix=((1, 0), (0, 1), (0, 0)), offset=(0, 0, 0)
                    ),
                    layout=layout_a,
                )
            )
        writes = [
            TensorAccess(
                tensor="E",
                access=AccessFunction(
                    matrix=((1, 0), (0, 1), (0, 0)), offset=(0, 0, ce - 1)
                ),
                layout=layout_e,
            )
        ]
        return domain, writes, reads

    # ------------------------------------------------------------------ #
    def plan(self, spec: BottleneckSpec) -> FusedBlockPlan:
        """Solve Eq. 2 for the block and return the fused plan."""
        if not spec.fusable():
            raise PlanError(
                f"block {spec.name}: dw kernel {spec.kernel} exceeds image "
                f"{spec.mid_spatial()}; not suitable for fusion (paper §7.3)"
            )
        seg_bytes = self.segment_bytes(spec)
        domain, writes, reads = self.accesses(spec, seg_bytes)
        result = self._planner.solve(domain, writes, reads)
        in_segments = spec.in_bytes // seg_bytes
        out_segments = spec.out_bytes // seg_bytes
        d = result.distance
        return FusedBlockPlan(
            spec=spec,
            seg_bytes=seg_bytes,
            distance=d,
            in_base=max(d, 0),
            out_base=max(-d, 0),
            in_segments=in_segments,
            out_segments=out_segments,
            span_slots=required_span(in_segments, out_segments, d),
            workspace_bytes=self.workspace_bytes(spec),
            halo_mode=self.halo_mode,
            solver_method=result.method,
            receptive_field=compose_receptive_field(spec.stages),
        )


# --------------------------------------------------------------------------- #
# generic streaming chains (the Eq. 2 machinery beyond inverted bottlenecks)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ChainPlan:
    """Fused plan for an arbitrary streaming convolution chain.

    Like :class:`FusedBlockPlan` but for any :class:`ConvStage` sequence:
    only the chain input and output live in the pool; the intermediates need
    a per-output-pixel working set of ``prod(window sizes)`` segments, which
    is reported (not pool-resident) as ``workspace_bytes``.
    """

    stages: tuple[ConvStage, ...]
    in_hw: int
    in_channels: int
    seg_bytes: int
    distance: int
    in_base: int
    out_base: int
    in_segments: int
    out_segments: int
    span_slots: int
    workspace_bytes: int
    receptive_field: ReceptiveField
    solver_method: str

    @property
    def pool_bytes(self) -> int:
        return self.span_slots * self.seg_bytes

    @property
    def footprint_bytes(self) -> int:
        return self.pool_bytes + self.workspace_bytes


def plan_streaming_chain(
    stages: list[ConvStage],
    *,
    in_hw: int,
    in_channels: int,
    residual: bool = False,
    prefer_exact: bool | None = None,
) -> ChainPlan:
    """Solve Equation 2 for an arbitrary convolution chain.

    Generalizes :class:`InvertedBottleneckPlanner` (the paper's "future
    work" direction of fusing other module shapes): the chain is executed
    in output-pixel order, each pixel reading the composed receptive-field
    window of the chain input; the minimal input/output distance comes from
    the same exact solver.
    """
    if not stages:
        raise PlanError("chain needs at least one stage")
    out_channels = stages[-1].out_channels
    if residual:
        jump = int(np.prod([s.stride for s in stages]))
        if jump != 1 or out_channels != in_channels:
            raise PlanError(
                "residual chains need stride product 1 and matching channels"
            )
    seg_bytes = select_segment_size(in_channels, out_channels)
    ca = in_channels // seg_bytes
    ce = out_channels // seg_bytes
    rf = compose_receptive_field(stages)
    extent = in_hw
    for st in stages:
        extent = st.out_extent(extent)
    p_out = extent
    h = w = in_hw

    domain = IterationDomain(extents=(p_out, p_out), names=("p", "q"))
    layout_in = RowMajorLayout(shape=(h, w, ca))
    layout_out = RowMajorLayout(shape=(p_out, p_out, ce))

    def window_guard(dr: int, dc: int):
        def guard(instances: np.ndarray) -> np.ndarray:
            rows = instances[:, 0] * rf.jump + rf.offset + dr
            cols = instances[:, 1] * rf.jump + rf.offset + dc
            return (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)

        return guard

    reads = [
        TensorAccess(
            tensor="In",
            access=AccessFunction(
                matrix=((rf.jump, 0), (0, rf.jump), (0, 0)),
                offset=(rf.offset + dr, rf.offset + dc, 0),
            ),
            layout=layout_in,
            guard=window_guard(dr, dc),
        )
        for dr in range(rf.size)
        for dc in range(rf.size)
    ]
    if residual:
        reads.append(
            TensorAccess(
                tensor="In",
                access=AccessFunction(
                    matrix=((1, 0), (0, 1), (0, 0)), offset=(0, 0, 0)
                ),
                layout=layout_in,
            )
        )
    writes = [
        TensorAccess(
            tensor="Out",
            access=AccessFunction(
                matrix=((1, 0), (0, 1), (0, 0)), offset=(0, 0, ce - 1)
            ),
            layout=layout_out,
        )
    ]
    result = SingleLayerPlanner(prefer_exact=prefer_exact).solve(
        domain, writes, reads
    )
    # per-output-pixel working set: each intermediate materializes its
    # stage window once (the recompute-mode analogue of Figure 6's
    # k*k + 1 + 1 count, generalized along the chain)
    workspace = 0
    window = 1
    for st in reversed(stages):
        window = (window - 1) * st.stride + st.kernel
        workspace += window * window * st.out_channels
    in_segments = h * w * ca
    out_segments = p_out * p_out * ce
    d = result.distance
    return ChainPlan(
        stages=tuple(stages),
        in_hw=in_hw,
        in_channels=in_channels,
        seg_bytes=seg_bytes,
        distance=d,
        in_base=max(d, 0),
        out_base=max(-d, 0),
        in_segments=in_segments,
        out_segments=out_segments,
        span_slots=required_span(in_segments, out_segments, d),
        workspace_bytes=workspace,
        receptive_field=rf,
        solver_method=result.method,
    )
