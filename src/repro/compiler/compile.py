"""The end-to-end model compiler: graph in, planned executable out.

``compile_model`` (exposed as :func:`repro.compile`) chains the passes:

1. **lower** — pattern-match the graph into pipeline stage specs
   (:mod:`repro.compiler.lowering`);
2. **legalize** — reject shapes the runtime cannot stream, with actionable
   errors (:mod:`repro.compiler.legalize`);
3. **bind** — attach weights/multipliers (caller-provided or synthesized
   deterministically, :mod:`repro.compiler.params`);
4. **plan** — build one :class:`~repro.runtime.Pipeline` per segment and
   solve its shared-pool plan, memoized through the plan cache
   (:mod:`repro.compiler.cache`).

The result is a :class:`CompiledModel`: run it on int8 inputs and the
activations flow through one circular segment pool per segment, bit-exact
against the layer-by-layer NumPy reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import CompileError
from repro.graph.graph import Graph
from repro.kernels.base import KernelRun, get_execution_backend
from repro.mcu.device import DeviceProfile, STM32F411RE
from repro.mcu.profiler import CostReport
from repro.runtime.pipeline import (
    BottleneckStage,
    DenseStage,
    GlobalAvgPoolStage,
    Pipeline,
    PipelinePlan,
    PointwiseStage,
)
from repro.compiler.cache import (
    DEFAULT_PLAN_CACHE,
    PlanCache,
    pipeline_plan_key,
)
from repro.compiler.legalize import legalize_program
from repro.compiler.lowering import (
    LoweredProgram,
    LoweredSegment,
    StageSpec,
    lower_graph,
)
from repro.compiler.params import ModelParams, random_params
from repro.compiler.reference import reference_output, run_reference

__all__ = ["CompiledSegment", "CompiledRun", "CompiledModel", "compile_model"]


# --------------------------------------------------------------------------- #
# stage binding
# --------------------------------------------------------------------------- #
def _bind_stage(st: StageSpec, params: ModelParams):
    """Materialize one runtime stage descriptor with its weights."""
    if st.kind == "pointwise":
        (op,) = st.ops
        return PointwiseStage(
            name=st.name, weights=params.weight(op), mult=params.mult(op),
            stride=st.stride,
        )
    if st.kind == "bottleneck":
        expand, dw, project = st.ops[:3]
        return BottleneckStage(
            name=st.name,
            c_mid=st.c_mid,
            c_out=st.c_out,
            kernel=st.kernel,
            w_expand=params.weight(expand),
            w_dw=params.weight(dw),
            w_project=params.weight(project),
            mults=(
                params.mult(expand), params.mult(dw), params.mult(project),
            ),
            strides=st.strides,
        )
    if st.kind == "avgpool":
        (op,) = st.ops
        return GlobalAvgPoolStage(name=st.name, mult=params.mult(op))
    if st.kind == "dense":
        (op,) = st.ops
        return DenseStage(
            name=st.name, weights=params.weight(op), mult=params.mult(op)
        )
    raise CompileError(f"stage {st.name!r}: unknown kind {st.kind!r}")


def _build_pipeline(
    segment: LoweredSegment, params: ModelParams, device: DeviceProfile
) -> Pipeline:
    pipe = Pipeline(segment.input_hw, segment.input_c, device=device)
    for st in segment.stages:
        pipe.add(_bind_stage(st, params))
    return pipe


# --------------------------------------------------------------------------- #
# compiled artifacts
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class CompiledSegment:
    """One planned pipeline plus its graph-level wiring."""

    lowered: LoweredSegment
    pipeline: Pipeline
    plan: PipelinePlan

    @property
    def footprint_bytes(self) -> int:
        return self.plan.footprint_bytes


@dataclass
class CompiledRun:
    """Result of executing a compiled model."""

    outputs: dict[str, np.ndarray]
    output: np.ndarray
    stage_runs: list[KernelRun] = field(default_factory=list)
    stage_names: list[str] = field(default_factory=list)

    @property
    def report(self) -> CostReport:
        # stage_names is maintained in lockstep with stage_runs; combine's
        # length check turns any future bookkeeping divergence into a loud
        # error rather than a silently stage-less report
        return CostReport.combine(
            [r.report for r in self.stage_runs], names=self.stage_names
        )


class CompiledModel:
    """A planned, executable lowering of one model graph.

    Segments execute in graph-input order, each in its own circular pool
    (disconnected components never share activations, so they never share
    a pool).  ``footprint_bytes`` is the worst segment's footprint — the
    SRAM high-water mark of running the model end to end.
    """

    def __init__(
        self,
        graph: Graph,
        program: LoweredProgram,
        segments: tuple[CompiledSegment, ...],
        params: ModelParams,
        device: DeviceProfile,
        execution: str = "simulate",
    ):
        self.graph = graph
        self.program = program
        self.segments = segments
        self.params = params
        self.device = device
        self.execution = execution

    @property
    def n_stages(self) -> int:
        return self.program.n_stages

    @property
    def footprint_bytes(self) -> int:
        return max(s.footprint_bytes for s in self.segments)

    def fits(self) -> bool:
        """Whether the compiled plan fits the target device's SRAM."""
        return self.device.fits(self.footprint_bytes)

    # ------------------------------------------------------------------ #
    def run(
        self,
        x: np.ndarray | None = None,
        *,
        feeds: dict[str, np.ndarray] | None = None,
        strict: bool = True,
        execution: str | None = None,
    ) -> CompiledRun:
        """Execute every segment; ``x`` is shorthand for a single input.

        Multi-input models (the ImageNet spine restarts where Table 2
        omits blocks) must pass ``feeds`` naming every graph input.
        ``execution`` overrides the backend chosen at compile time
        (``"simulate"`` pool replay vs vectorized ``"fast"``).
        """
        execution = execution if execution is not None else self.execution
        if (x is None) == (feeds is None):
            raise CompileError("pass exactly one of x or feeds")
        if feeds is None:
            if len(self.graph.inputs) != 1:
                raise CompileError(
                    f"model {self.graph.name!r} has inputs "
                    f"{self.graph.inputs}; pass feeds={{name: array}}"
                )
            feeds = {self.graph.inputs[0]: x}
        outputs: dict[str, np.ndarray] = {}
        result = CompiledRun(outputs=outputs, output=np.empty(0, np.int8))
        for seg in self.segments:
            name = seg.lowered.input_name
            if name not in feeds:
                raise CompileError(f"missing feed for input {name!r}")
            res = seg.pipeline.run(
                np.asarray(feeds[name]), plan=seg.plan, strict=strict,
                execution=execution,
            )
            out_name = seg.lowered.output_name
            # the runtime keeps a [1, N] row for the dense head; the graph
            # spec is the source of truth for the tensor's rank
            spec_shape = self.graph.tensors[out_name].spec.shape
            outputs[out_name] = res.output.reshape(spec_shape)
            result.stage_runs.extend(res.stage_runs)
            result.stage_names.extend(sp.name for sp in seg.plan.stages)
        terminal = (
            self.graph.outputs[-1]
            if self.graph.outputs
            else self.segments[-1].lowered.output_name
        )
        result.output = outputs[terminal]
        return result

    # ------------------------------------------------------------------ #
    def serve(self, *, execution: str = "turbo", max_batch: int = 256):
        """Open a plan-once/run-many :class:`~repro.serving.Session`.

        The session freezes everything request-independent — the solved
        plans, packed weights (every layout the backend declares), and
        the per-stage cost template — then serves batches via
        ``Session.run`` / ``Session.run_batch`` with per-request cost
        accounting bit-identical to ``execution="simulate"``.
        ``max_batch`` bounds one dispatch (stacked activations are
        materialized at once); raise it here for very large batches.
        """
        from repro.serving import Session

        return Session(self, execution=execution, max_batch=max_batch)

    # ------------------------------------------------------------------ #
    def reference(
        self,
        x: np.ndarray | None = None,
        *,
        feeds: dict[str, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Layer-by-layer NumPy execution with the same bound parameters."""
        if (x is None) == (feeds is None):
            raise CompileError("pass exactly one of x or feeds")
        if feeds is None:
            feeds = {self.graph.inputs[0]: x}
        return reference_output(self.graph, self.params, feeds)

    def reference_tensors(
        self, feeds: dict[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        """All reference tensors (for debugging stage-level divergence)."""
        return run_reference(self.graph, self.params, feeds)


# --------------------------------------------------------------------------- #
# the entry point
# --------------------------------------------------------------------------- #
def compile_model(
    model: Graph,
    *,
    device: DeviceProfile = STM32F411RE,
    params: ModelParams | None = None,
    seed: int = 0,
    cache: PlanCache | None = DEFAULT_PLAN_CACHE,
    check_fit: bool = False,
    execution: str = "simulate",
) -> CompiledModel:
    """Lower, legalize, bind and plan ``model`` for ``device``.

    Parameters
    ----------
    model:
        Any :class:`repro.graph.Graph` built from the supported ops.
    device:
        Cost-model and SRAM target for the plans.
    params:
        Trained weights/multipliers; synthesized deterministically from
        ``seed`` when omitted.
    cache:
        Plan cache (default: the process-wide one).  Pass ``None`` to
        force re-solving — sweeps should not.
    check_fit:
        Raise at compile time if the planned footprint exceeds the
        device's usable SRAM (otherwise the check happens at ``run``).
    execution:
        Default execution backend for ``CompiledModel.run``:
        ``"simulate"`` (race-checked per-segment pool replay) or
        ``"fast"`` (vectorized NumPy with analytically derived costs,
        bit-exact against the simulator).  Overridable per run.
    """
    get_execution_backend(execution)  # validate the name at compile time
    program = legalize_program(lower_graph(model))
    params = params if params is not None else random_params(model, seed=seed)
    compiled: list[CompiledSegment] = []
    for segment in program.segments:
        pipeline = _build_pipeline(segment, params, device)
        if cache is not None:
            key = pipeline_plan_key(segment.signature(), device)
            plan = cache.get_or_build(key, pipeline.plan)
        else:
            plan = pipeline.plan()
        compiled.append(
            CompiledSegment(lowered=segment, pipeline=pipeline, plan=plan)
        )
    result = CompiledModel(
        graph=model,
        program=program,
        segments=tuple(compiled),
        params=params,
        device=device,
        execution=execution,
    )
    if check_fit and not result.fits():
        raise CompileError(
            f"model {model.name!r} needs {result.footprint_bytes} B of SRAM "
            f"but {device.name} offers {device.usable_sram_bytes} B usable; "
            "target a larger device or shrink the model"
        )
    return result
