"""Whole-network execution in one circular segment pool.

A :class:`Pipeline` is built from stage descriptors (pointwise convolution,
fused inverted bottleneck, global average pool, dense head).  Planning:

1. pick one segment size that tiles every stage boundary (gcd of the
   per-stage policy sizes — all activations must live in the same pool);
2. solve each stage's Equation 1/2 with that segment size;
3. size the pool to the worst stage's span;
4. chain base addresses: stage ``i+1``'s input base is *rotated* so it
   coincides with where stage ``i`` wrote its output (plans are shift
   invariant — only the relative distance matters in a circular pool).

Execution then runs each kernel with ``place_input=False`` (stage > 0): the
activation bytes genuinely never move between layers, exactly as on the
device.  Every stage is race-checked, and the final output is bit-exact
against the layer-by-layer NumPy references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Union

import numpy as np

from repro.core.multilayer import BottleneckSpec
from repro.core.pool import CircularSegmentPool
from repro.errors import KernelError, PlanError
from repro.kernels.base import KernelRun, get_execution_backend
from repro.kernels.bottleneck import FusedBottleneckKernel
from repro.kernels.fully_connected import FullyConnectedKernel
from repro.kernels.pointwise import PointwiseConvKernel
from repro.kernels.pooling import GlobalAvgPoolKernel
from repro.mcu.device import DeviceProfile, STM32F411RE
from repro.mcu.profiler import CostReport, Profiler
from repro.quant import FixedPointMultiplier

__all__ = [
    "PointwiseStage",
    "BottleneckStage",
    "GlobalAvgPoolStage",
    "DenseStage",
    "Pipeline",
    "PipelinePlan",
    "PipelineResult",
    "stage_weight_arrays",
]


# --------------------------------------------------------------------------- #
# stage descriptors
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class PointwiseStage:
    name: str
    weights: np.ndarray  # [C, K]
    mult: FixedPointMultiplier
    stride: int = 1

    def out_channels(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class BottleneckStage:
    name: str
    c_mid: int
    c_out: int
    kernel: int
    w_expand: np.ndarray
    w_dw: np.ndarray
    w_project: np.ndarray
    mults: tuple[FixedPointMultiplier, ...]
    strides: tuple[int, int, int] = (1, 1, 1)

    def out_channels(self) -> int:
        return self.c_out


@dataclass(frozen=True)
class GlobalAvgPoolStage:
    name: str
    mult: FixedPointMultiplier  # averaging factor already folded in

    def out_channels(self) -> int:
        raise KernelError("avg pool preserves channels; resolved at plan time")


@dataclass(frozen=True)
class DenseStage:
    name: str
    weights: np.ndarray  # [K, N]
    mult: FixedPointMultiplier

    def out_channels(self) -> int:
        return self.weights.shape[1]


Stage = Union[PointwiseStage, BottleneckStage, GlobalAvgPoolStage, DenseStage]


def stage_weight_arrays(stage: Stage) -> tuple[np.ndarray, ...]:
    """Every int8 weight array ``stage`` executes with.

    The one place that knows which descriptor fields hold weights —
    used by the serving layer to warm the pack cache ahead of the first
    request; a new weighted stage type must be added here (and to the
    fast backend's stacked pass) or session warm-up silently stops
    covering it.
    """
    if isinstance(stage, (PointwiseStage, DenseStage)):
        return (stage.weights,)
    if isinstance(stage, BottleneckStage):
        return (stage.w_expand, stage.w_dw, stage.w_project)
    return ()


# --------------------------------------------------------------------------- #
# plans and results
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class StagePlan:
    """One stage's kernel, its shifted plan, and ownership tags."""

    name: str
    kernel: object
    plan: object  # LayerPlan or FusedBlockPlan (both expose the base fields)
    in_name: str
    out_name: str


@dataclass(frozen=True)
class PipelinePlan:
    """The chain's shared pool geometry plus per-stage shifted plans."""

    seg_bytes: int
    capacity_slots: int
    stages: tuple[StagePlan, ...]

    @property
    def pool_bytes(self) -> int:
        return self.capacity_slots * self.seg_bytes

    @property
    def workspace_bytes(self) -> int:
        return max(
            getattr(sp.plan, "workspace_bytes", 0) for sp in self.stages
        )

    @property
    def footprint_bytes(self) -> int:
        """Peak SRAM of the whole chain: shared pool + worst workspace."""
        return self.pool_bytes + self.workspace_bytes


@dataclass
class PipelineResult:
    output: np.ndarray
    plan: PipelinePlan
    stage_runs: list[KernelRun] = field(default_factory=list)

    @property
    def report(self) -> CostReport:
        """Total chain cost with each stage attached as a named sub-report."""
        return CostReport.combine(
            [r.report for r in self.stage_runs],
            names=[sp.name for sp in self.plan.stages],
        )

    @property
    def stage_reports(self) -> dict[str, CostReport]:
        """Per-stage cost reports keyed by stage name."""
        return {
            sp.name: r.report
            for sp, r in zip(self.plan.stages, self.stage_runs)
        }


class _StackedResult(PipelineResult):
    """One request's share of a stacked batch pass.

    Its stage runs are built when first read: one :class:`KernelRun` per
    stage over the request's row of that stage's stacked output, with the
    cost template's report, all sharing the request's own copy of the
    template's pool statistics.  A serving session reads only ``output``,
    so it never builds them.
    """

    def __init__(self, acts, index: int, plan: PipelinePlan, template):
        self.output = acts[-1][index]
        self.plan = plan
        self._stacked = (acts, index, template)
        self._stage_runs: list[KernelRun] | None = None

    @property
    def stage_runs(self) -> list[KernelRun]:
        if self._stage_runs is None:
            acts, i, template = self._stacked
            stats = replace(template.pool_stats)
            self._stage_runs = [
                KernelRun(
                    output=act[i], plan=sp.plan, pool_stats=stats,
                    report=report,
                )
                for act, sp, report in zip(
                    acts, self.plan.stages, template.stage_reports
                )
            ]
        return self._stage_runs


# --------------------------------------------------------------------------- #
# the pipeline
# --------------------------------------------------------------------------- #
class Pipeline:
    """Plan and execute a layer chain in one circular pool.

    Parameters
    ----------
    input_hw / input_c:
        Spatial extent (square) and channels of the network input.
    device:
        Cost-model target; the pool must also fit its SRAM.
    """

    def __init__(
        self, input_hw: int, input_c: int, *,
        device: DeviceProfile = STM32F411RE,
    ):
        if input_hw <= 0 or input_c <= 0:
            raise PlanError(f"bad pipeline input {(input_hw, input_c)}")
        self.input_hw = input_hw
        self.input_c = input_c
        self.device = device
        self.stages: list[Stage] = []

    def add(self, stage: Stage) -> "Pipeline":
        self.stages.append(stage)
        return self

    # ------------------------------------------------------------------ #
    # planning
    # ------------------------------------------------------------------ #
    def _trace_shapes(self) -> list[tuple]:
        """Symbolically run the chain: (kind, hw, c_in, c_out) per stage."""
        hw, c = self.input_hw, self.input_c
        out = []
        for st in self.stages:
            if isinstance(st, PointwiseStage):
                if st.weights.shape[0] != c:
                    raise PlanError(
                        f"stage {st.name}: weight expects {st.weights.shape[0]} "
                        f"channels, chain provides {c}"
                    )
                p = (hw - 1) // st.stride + 1
                out.append(("pointwise", hw, c, st.weights.shape[1]))
                hw, c = p, st.weights.shape[1]
            elif isinstance(st, BottleneckStage):
                spec = BottleneckSpec(
                    name=st.name, hw=hw, c_in=c, c_mid=st.c_mid,
                    c_out=st.c_out, kernel=st.kernel, strides=st.strides,
                )
                out.append(("bottleneck", hw, c, st.c_out, spec))
                hw, c = spec.spatial_out(), st.c_out
            elif isinstance(st, GlobalAvgPoolStage):
                out.append(("avgpool", hw, c, c))
                hw = 1
            elif isinstance(st, DenseStage):
                if st.weights.shape[0] != c or hw != 1:
                    raise PlanError(
                        f"stage {st.name}: dense head needs a pooled [{c}] "
                        f"vector, chain provides hw={hw}, c={c}"
                    )
                out.append(("dense", 1, c, st.weights.shape[1]))
                c = st.weights.shape[1]
            else:
                raise PlanError(f"unknown stage type {type(st).__name__}")
        return out

    def _common_segment(self, traces: list[tuple]) -> int:
        """One segment size that tiles every activation boundary."""
        seg = 0
        for tr in traces:
            c_in, c_out = tr[2], tr[3]
            seg = math.gcd(seg, math.gcd(c_in, c_out))
        if seg == 0:
            raise PlanError("pipeline has no stages")
        return seg

    def plan(self) -> PipelinePlan:
        traces = self._trace_shapes()
        seg = self._common_segment(traces)
        stage_plans: list[StagePlan] = []
        anchored = []
        for i, (st, tr) in enumerate(zip(self.stages, traces)):
            kind = tr[0]
            if kind == "pointwise":
                _, hw, c, k = tr[:4]
                kern = PointwiseConvKernel(
                    hw, hw, c, k, stride=st.stride, seg_bytes=seg
                )
            elif kind == "bottleneck":
                spec = tr[4]
                from repro.core.multilayer import InvertedBottleneckPlanner

                # force the shared segment size through a planner clone
                planner = InvertedBottleneckPlanner()
                if planner.segment_bytes(spec) % seg != 0:
                    raise PlanError(
                        f"stage {st.name}: shared segment {seg} incompatible"
                    )
                kern = _SegmentOverrideBottleneck(spec, seg)
            elif kind == "avgpool":
                _, hw, c = tr[:3]
                kern = GlobalAvgPoolKernel(hw, hw, c, seg_bytes=seg)
            else:  # dense
                _, _, c, n = tr[:4]
                kern = FullyConnectedKernel(1, c, n, seg_bytes=seg)
            anchored.append(kern.plan())
            stage_plans.append(
                StagePlan(
                    name=getattr(st, "name", f"stage{i}"),
                    kernel=kern,
                    plan=anchored[-1],  # shifted below
                    in_name=f"act{i}",
                    out_name=f"act{i + 1}",
                )
            )

        capacity = max(p.span_slots for p in anchored)
        # Chain the bases: stage i+1's input must sit at *exactly* the
        # logical address where stage i wrote (the pool wraps it onto the
        # same physical slots).  Raw shifts may come out negative, so a
        # second pass adds one global offset to keep every base >= 0 —
        # a uniform rotation of the whole schedule, which changes nothing
        # physically.
        raw_shifts: list[int] = []
        in_location = anchored[0].in_base
        for plan in anchored:
            raw_shifts.append(in_location - plan.in_base)
            in_location = plan.out_base + raw_shifts[-1]
        offset = max(
            0,
            -min(
                min(p.in_base + s, p.out_base + s)
                for p, s in zip(anchored, raw_shifts)
            ),
        )
        shifted: list[StagePlan] = []
        for sp, plan, s in zip(stage_plans, anchored, raw_shifts):
            new_plan = _shift_plan(plan, s + offset)
            shifted.append(
                StagePlan(
                    name=sp.name, kernel=sp.kernel, plan=new_plan,
                    in_name=sp.in_name, out_name=sp.out_name,
                )
            )
        return PipelinePlan(
            seg_bytes=seg, capacity_slots=capacity, stages=tuple(shifted)
        )

    def _validate_plan(self, plan: PipelinePlan) -> None:
        """Check a caller-supplied plan matches this chain's geometry.

        Recomputes only arithmetic (shapes, shared segment, per-stage
        segment counts) — never the constraint solve — so cached plans
        stay cheap while stale ones are rejected instead of executed.
        """
        if len(plan.stages) != len(self.stages):
            raise PlanError(
                f"cached plan has {len(plan.stages)} stages, "
                f"pipeline has {len(self.stages)}"
            )
        traces = self._trace_shapes()
        seg = self._common_segment(traces)
        if plan.seg_bytes != seg:
            raise PlanError(
                f"cached plan uses {plan.seg_bytes}-byte segments, "
                f"this chain requires {seg}"
            )
        for sp, st, tr in zip(plan.stages, self.stages, traces):
            kind = tr[0]
            if kind == "pointwise":
                _, hw, c_in, c_out = tr[:4]
                p = (hw - 1) // st.stride + 1
                expect = (hw * hw * (c_in // seg), p * p * (c_out // seg))
            elif kind == "bottleneck":
                spec = tr[4]
                expect = (spec.in_bytes // seg, spec.out_bytes // seg)
            elif kind == "avgpool":
                _, hw, c = tr[:3]
                expect = (hw * hw * (c // seg), c // seg)
            else:  # dense
                _, _, c, n = tr[:4]
                expect = (c // seg, n // seg)
            got = (sp.plan.in_segments, sp.plan.out_segments)
            if got != expect:
                raise PlanError(
                    f"cached plan stage {sp.name!r} covers {got} "
                    f"in/out segments, this chain's stage needs {expect} — "
                    "the plan belongs to a different pipeline"
                )

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run(
        self, x: np.ndarray, *, plan: PipelinePlan | None = None,
        strict: bool = True, execution: str = "simulate",
    ) -> PipelineResult:
        """Execute the chain; ``plan`` may be a cached result of :meth:`plan`.

        Passing a plan skips re-solving the per-stage constraint systems —
        the amortization the compiler's plan cache relies on in sweeps.  The
        plan is validated against this chain's geometry (arithmetic only);
        a plan from a differently-shaped pipeline is rejected.

        ``execution`` selects the backend: ``"simulate"`` replays every
        segment operation in one shared circular pool (race-checked);
        ``"fast"`` executes each stage as vectorized NumPy with the pool
        events derived analytically — identical outputs and cost reports,
        orders of magnitude faster; ``"turbo"`` runs the same with every
        stage in a native int16-pair leaf (exact float64 BLAS GEMMs where
        no compiler builds them).  :meth:`run_batch` additionally
        amortizes event generation into a per-plan cost template, and on
        ``"turbo"`` runs the whole chain in one native call.
        """
        backend = get_execution_backend(execution)
        plan = self._resolve_plan(plan)
        return backend.run_pipeline(self, plan, x, strict=strict)

    def run_batch(
        self, xs, *, plan: PipelinePlan | None = None,
        strict: bool = True, execution: str = "turbo",
    ) -> list[PipelineResult]:
        """Execute many inputs against one plan; one result per input.

        The plan is solved (or validated) once for the whole batch — the
        run-many half of plan-once/run-many.  On the ``"turbo"`` (default)
        backend the whole chain runs across the batch in one native call,
        on ``"fast"`` each stage as one stacked GEMM, and per-request cost
        reports are replayed from a per-plan template (bit-identical to
        ``"simulate"``); other backends fall back to per-request
        dispatch.
        """
        backend = get_execution_backend(execution)
        plan = self._resolve_plan(plan)
        return backend.run_pipeline_batch(self, plan, list(xs), strict=strict)

    def _resolve_plan(self, plan: PipelinePlan | None) -> PipelinePlan:
        """Solve (or validate) a plan and enforce the device's SRAM fit."""
        if plan is None:
            plan = self.plan()
        else:
            self._validate_plan(plan)
        if not self.device.fits(plan.footprint_bytes):
            raise PlanError(
                f"pipeline needs {plan.footprint_bytes} B but "
                f"{self.device.name} offers {self.device.usable_sram_bytes} B"
            )
        return plan

    def _run_simulate(
        self, plan: PipelinePlan, x: np.ndarray, *, strict: bool = True
    ) -> PipelineResult:
        """Segment-by-segment execution in one shared pool.

        All stages share a single :class:`Profiler`; each stage's report is
        the delta it recorded, so per-stage and total cost come from one
        accumulator instead of a profiler instantiation per kernel.
        """
        pool = CircularSegmentPool(
            plan.capacity_slots, plan.seg_bytes, strict=strict
        )
        pool.store_tensor(plan.stages[0].plan.in_base, x, plan.stages[0].in_name)
        profiler = Profiler(self.device)

        result = PipelineResult(output=x, plan=plan)
        act = x
        for sp, stage in zip(plan.stages, self.stages):
            run = _run_stage(
                sp, stage, act, pool, self.device,
                strict=strict, profiler=profiler,
            )
            result.stage_runs.append(run)
            act = run.output
        result.output = act
        return result


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
def _shift_plan(plan, shift: int):
    """Rotate any plan type's bases by ``shift`` slots."""
    if hasattr(plan, "shifted"):
        return plan.shifted(shift)
    return replace(
        plan, in_base=plan.in_base + shift, out_base=plan.out_base + shift
    )


def _run_stage(
    sp: StagePlan, stage: Stage, act, pool, device, *, strict, profiler=None
):
    common = dict(
        device=device, plan=sp.plan, pool=pool, strict=strict,
        in_name=sp.in_name, out_name=sp.out_name, place_input=False,
        profiler=profiler,
    )
    if isinstance(stage, PointwiseStage):
        return sp.kernel.run(act, stage.weights, stage.mult, **common)
    if isinstance(stage, BottleneckStage):
        return sp.kernel.run(
            act, stage.w_expand, stage.w_dw, stage.w_project,
            tuple(stage.mults), **common,
        )
    if isinstance(stage, GlobalAvgPoolStage):
        return sp.kernel.run(act, stage.mult, **common)
    if isinstance(stage, DenseStage):
        return sp.kernel.run(
            act.reshape(1, -1), stage.weights, stage.mult, **common
        )
    raise PlanError(f"unknown stage type {type(stage).__name__}")


class _SegmentOverrideBottleneck(FusedBottleneckKernel):
    """Fused kernel forced onto the pipeline's shared segment size."""

    def __init__(self, spec: BottleneckSpec, seg_bytes: int):
        super().__init__(spec)
        self._seg_override = seg_bytes
        self.planner.segment_bytes = lambda s: seg_bytes  # type: ignore[assignment]
