"""Plan-once/run-many serving: compile a model once, serve many requests.

A :class:`Session` freezes everything about a compiled model that does not
depend on the request:

* **plans** — already solved (and cached in the
  :class:`~repro.compiler.cache.PlanCache`) at compile time; the session
  never re-plans, and validates each segment's plan against its pipeline
  (geometry and SRAM fit) once, when it opens;
* **packed weights** — every stage weight is promoted to each GEMM
  operand layout the backend declares once through
  :func:`~repro.kernels.base.cached_pack` at session construction
  (mutating a weight array in place between requests triggers a re-pack
  via the cache's content digest; dropping the model evicts the entries
  via weakrefs);
* **cost template** — the per-stage analytic
  :class:`~repro.mcu.profiler.CostReport` sequence is derived once per
  segment plan and replayed for every request, so per-request cost
  accounting is a pointer copy yet stays bit-identical to
  ``execution="simulate"``;
* **bindings** — whatever the backend binds per segment
  (:meth:`~repro.kernels.base.ExecutionBackend.bind`): for ``"turbo"``,
  the native stage table that runs a whole segment in one call.  The
  session owns them, so they live exactly as long as the model.

What remains per request is the arithmetic — one stacked pass across the
batch, straight through the backend: one native call per segment on
``"turbo"``, one pass per stage elsewhere — behind two guards: an
identity check of the snapshot taken at open (segments, plans, stage
objects, pipeline geometry, weight shapes and dtypes), which also keeps
the bindings valid, and the pack cache's content digest of each weight
(a re-pack re-binds).  :meth:`Session.run` serves one
request, :meth:`Session.run_batch` a whole batch; both return
:class:`RequestResult`\\ s carrying the output tensor(s) and a
:class:`RequestStats` (host latency, queue depth, modeled stage costs).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.errors import CompileError, ServingError
from repro.kernels.base import cached_pack, get_execution_backend
from repro.mcu.profiler import CostReport
from repro.serving import faults as _faults

__all__ = ["RequestStats", "RequestResult", "SessionStats", "Session"]


@dataclass(frozen=True)
class _SegmentSnapshot:
    """One compiled segment as the session validated it at open.

    The segment is a frozen dataclass, so its identity pins its plan and
    pipeline object; the stage descriptors are frozen too and are pinned
    by identity (a stage swapped for an equal-named copy with another
    stride is caught).  What can still change in place is compared by
    value: the pipeline's stage list, its input geometry and device, and
    each weight's shape and dtype.  Weight *values* are deliberately
    excluded: in-place value mutation is legal and handled by
    ``cached_pack``'s content digest (a re-pack, not an error).
    """

    segment: object
    stages: tuple
    geometry: tuple
    #: ``(array, shape, dtype)`` per stage weight
    weights: tuple

    @classmethod
    def take(cls, segment) -> "_SegmentSnapshot":
        from repro.runtime.pipeline import stage_weight_arrays

        pipe = segment.pipeline
        stages = tuple(pipe.stages)
        return cls(
            segment=segment,
            stages=stages,
            geometry=(pipe.input_hw, pipe.input_c, pipe.device),
            weights=tuple(
                (w, w.shape, w.dtype)
                for stage in stages
                for w in stage_weight_arrays(stage)
            ),
        )

    def holds(self, segment) -> bool:
        pipe = segment.pipeline
        return (
            segment is self.segment
            and (pipe.input_hw, pipe.input_c, pipe.device) == self.geometry
            and len(pipe.stages) == len(self.stages)
            and all(a is b for a, b in zip(pipe.stages, self.stages))
            and all(
                w.shape == shape and w.dtype == dtype
                for w, shape, dtype in self.weights
            )
        )


@dataclass(frozen=True)
class RequestStats:
    """Per-request accounting attached to every served result."""

    #: monotonically increasing id over the session's lifetime
    request_id: int
    #: position of this request within its dispatched batch
    batch_index: int
    #: number of requests co-scheduled in the same dispatch (batch size)
    queue_depth: int
    #: host wall-clock seconds from dispatch to completion of the batch
    #: (co-scheduled requests finish together, so each waited this long)
    latency_s: float
    #: total modeled on-device cost — bit-identical to ``"simulate"``
    report: CostReport
    #: per-stage modeled cost, keyed by stage name
    stage_reports: Mapping[str, CostReport]


@dataclass(frozen=True)
class RequestResult:
    """One served request: outputs plus accounting."""

    #: the model's terminal output, shaped per the graph spec
    output: np.ndarray
    #: every graph output tensor by name
    outputs: dict[str, np.ndarray]
    stats: RequestStats


@dataclass
class SessionStats:
    """Aggregate counters over a session's lifetime."""

    requests: int = 0
    batches: int = 0
    wall_s: float = 0.0
    peak_queue_depth: int = 0

    @property
    def requests_per_s(self) -> float:
        if self.wall_s <= 0:
            return 0.0
        return self.requests / self.wall_s


class Session:
    """A warmed serving handle over one :class:`CompiledModel`.

    Build via :meth:`repro.compiler.compile.CompiledModel.serve` (or
    directly).  Construction performs every amortizable step — plan
    validation, template derivation, weight packing and the backend's
    per-segment binding — so the first request pays no warm-up.  Each
    later call checks the model against the snapshot taken at open by
    identity (a structural mutation raises
    :class:`~repro.errors.ServingError`; open a new session instead),
    then runs the backend's stacked pass.

    Parameters
    ----------
    compiled:
        The planned model to serve.
    execution:
        Name of the registered execution backend used for dispatch.  The
        default ``"turbo"`` backend runs each segment of the batch in one
        native call through the stage table bound at open (exact float64
        BLAS GEMMs stand in for its leaves on a host without a
        compiler); ``"fast"`` stacks the same batch through NumPy int32
        arithmetic, one stage at a time (bit-identical, slower); any
        registered backend works (``"simulate"`` falls back to
        per-request dispatch), which keeps the serving layer decoupled
        from any single backend implementation.
    max_batch:
        Upper bound on one ``run_batch`` dispatch.  The stacked
        activations of a batch are materialized at once, so an unbounded
        batch is a host-memory foot-gun; oversized batches are rejected
        with an actionable error instead of silently thrashing.
    faults:
        Optional :class:`~repro.serving.faults.FaultPlan` (or prepared
        :class:`~repro.serving.faults.FaultInjector`).  When given, the
        session evaluates the ``"session.run_batch"`` injection point on
        every dispatch — the hook chaos tests use to make a standalone
        session flaky.  ``None`` (the default) costs one ``is None``
        check per batch.

    Thread-safe: the numeric pass runs outside any lock (the native
    leaves and BLAS release the GIL), while request-id allocation and the
    aggregate counters are guarded — concurrent dispatcher workers
    sharing one session never tear the accounting.
    """

    def __init__(
        self,
        compiled,
        *,
        execution: str = "turbo",
        max_batch: int = 256,
        faults: "_faults.FaultPlan | _faults.FaultInjector | None" = None,
    ):
        if max_batch <= 0:
            raise ServingError(
                f"max_batch must be positive, got {max_batch}"
            )
        self.compiled = compiled
        self.execution = execution
        self.max_batch = max_batch
        self._faults = (
            None if faults is None else _faults.FaultInjector(faults)
        )
        self._lock = threading.Lock()
        self._backend = get_execution_backend(execution)
        if not compiled.fits():
            raise CompileError(
                f"model {compiled.graph.name!r} needs "
                f"{compiled.footprint_bytes} B of SRAM but "
                f"{compiled.device.name} offers "
                f"{compiled.device.usable_sram_bytes} B usable"
            )
        #: what this session validated; checked before every dispatch
        self._snapshot = tuple(
            _SegmentSnapshot.take(seg) for seg in compiled.segments
        )
        self.stats = SessionStats()
        stage_names: list[str] = []
        stage_reports: list[CostReport] = []
        bindings = []
        for seg in compiled.segments:
            # the geometry check and SRAM fit, once: every later call is
            # guarded by the snapshot instead of re-deriving the geometry
            seg.pipeline._resolve_plan(seg.plan)
            # the backend's per-segment state (turbo's native stage
            # table), held by the session and so by the model's lifetime
            bindings.append(self._backend.bind(seg.pipeline, seg.plan))
            if hasattr(self._backend, "pipeline_template"):
                # warms the backend's per-plan template cache; the plan
                # stays alive through compiled.segments, so replay at
                # dispatch time is a cache hit for the session's lifetime
                template = self._backend.pipeline_template(
                    seg.pipeline, seg.plan
                )
                stage_names.extend(sp.name for sp in seg.plan.stages)
                stage_reports.extend(template.stage_reports)
            self._pack_weights(seg.pipeline)
        self._bindings = tuple(bindings)
        if stage_reports:
            #: shared across requests: the modeled cost of serving one
            #: request is plan-determined, not data-determined
            self._stage_reports = dict(zip(stage_names, stage_reports))
            self._report = CostReport.combine(stage_reports, names=stage_names)
        else:
            self._stage_reports = None
            self._report = None

    # ------------------------------------------------------------------ #
    # warm-up
    # ------------------------------------------------------------------ #
    def _pack_weights(self, pipeline) -> None:
        """Promote every stage weight once through the shared pack cache.

        Warms every operand layout the session's backend declares
        (``weight_packers``) — e.g. turbo's int16 pairs of its native
        leaves (its float64 BLAS operands where those do not build) in
        addition to the int32 ones the ``"fast"`` fallback reads — so the
        first request pays no packing cost.
        """
        from repro.kernels.base import pack_i32
        from repro.runtime.pipeline import stage_weight_arrays

        packers = getattr(self._backend, "weight_packers", None) or (
            pack_i32,
        )
        for stage in pipeline.stages:
            for w in stage_weight_arrays(stage):
                for packer in packers:
                    cached_pack(w, 0, packer)

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    def run(
        self,
        x: np.ndarray | None = None,
        *,
        feeds: Mapping[str, np.ndarray] | None = None,
        strict: bool = True,
    ) -> RequestResult:
        """Serve one request (a batch of one)."""
        if (x is None) == (feeds is None):
            raise CompileError("pass exactly one of x or feeds")
        request = x if feeds is None else feeds
        return self.run_batch([request], strict=strict)[0]

    def run_batch(
        self,
        requests: Sequence,
        *,
        strict: bool = True,
        execution: str | None = None,
    ) -> list[RequestResult]:
        """Serve a batch; element ``i`` of the result answers request ``i``.

        Each request is an input array (single-input models) or a
        ``{input name: array}`` feeds mapping.  Outputs and per-request
        cost reports are bit-identical to serving each request alone via
        ``CompiledModel.run`` — batching changes wall clock, never bits.

        ``execution`` overrides the session's backend for this one batch
        — how the dispatcher's circuit breaker degrades a failing
        ``"turbo"`` session to ``"fast"`` without re-warming anything.
        Every registered backend is bit-exact and the modeled cost is
        plan-determined, so the session's frozen cost template stays
        valid under the override (and the backends share one template
        cache, so the fallback re-derives nothing).
        """
        if len(requests) == 0:
            raise CompileError("run_batch needs at least one request")
        _faults.perhaps("session.run_batch", self._faults)
        if len(requests) > self.max_batch:
            raise ServingError(
                f"batch of {len(requests)} exceeds this session's "
                f"max_batch={self.max_batch}; split the batch or open the "
                "session with a larger max_batch"
            )
        self._check_structure()
        graph = self.compiled.graph
        feeds_list: list[Mapping[str, np.ndarray]] = []
        for i, req in enumerate(requests):
            if isinstance(req, Mapping):
                feeds_list.append(req)
            elif len(graph.inputs) == 1:
                feeds_list.append({graph.inputs[0]: np.asarray(req)})
            else:
                raise CompileError(
                    f"request {i}: model {graph.name!r} has inputs "
                    f"{graph.inputs}; pass a feeds mapping per request"
                )

        backend = get_execution_backend(execution or self.execution)
        # a binding belongs to the backend that made it; the snapshot
        # check above is what keeps it valid for these segments
        bindings = (
            self._bindings if backend is self._backend
            else (None,) * len(self._bindings)
        )
        t0 = time.perf_counter()
        bsz = len(feeds_list)
        per_request_outputs: list[dict[str, np.ndarray]] = [
            {} for _ in range(bsz)
        ]
        # only materialized for backends without a cost template
        per_request_reports: list[list[CostReport]] = [[] for _ in range(bsz)]
        stage_names: list[str] = []
        for seg, binding in zip(self.compiled.segments, bindings):
            name = seg.lowered.input_name
            xs = []
            for i, feeds in enumerate(feeds_list):
                if name not in feeds:
                    raise CompileError(
                        f"request {i}: missing feed for input {name!r}"
                    )
                xs.append(np.asarray(feeds[name]))
            bound = {} if binding is None else {"binding": binding}
            results = backend.run_pipeline_batch(
                seg.pipeline, seg.plan, xs, strict=strict, **bound
            )
            out_name = seg.lowered.output_name
            spec_shape = graph.tensors[out_name].spec.shape
            if self._report is None:
                stage_names.extend(sp.name for sp in seg.plan.stages)
            for i, res in enumerate(results):
                per_request_outputs[i][out_name] = res.output.reshape(
                    spec_shape
                )
                if self._report is None:
                    per_request_reports[i].extend(
                        r.report for r in res.stage_runs
                    )
        latency_s = time.perf_counter() - t0
        return self._assemble(
            per_request_outputs, per_request_reports, stage_names, latency_s
        )

    # ------------------------------------------------------------------ #
    # result assembly
    # ------------------------------------------------------------------ #
    def _check_structure(self) -> None:
        segments = self.compiled.segments
        if len(segments) != len(self._snapshot) or not all(
            snap.holds(seg) for snap, seg in zip(self._snapshot, segments)
        ):
            raise ServingError(
                f"compiled model {self.compiled.graph.name!r} was "
                "structurally mutated after serve(); the session's frozen "
                "plans/cost template no longer describe it — open a new "
                "session (in-place *value* edits of existing weight arrays "
                "are fine and re-pack automatically)"
            )

    def package_results(
        self, outputs_list: Sequence[dict[str, np.ndarray]], *,
        latency_s: float,
    ) -> list[RequestResult]:
        """Wrap externally computed outputs in :class:`RequestResult`\\ s.

        Used by the dispatcher's ``workers="process"`` mode: child
        processes return raw output tensors (small IPC payload) and the
        parent attaches the session's cost template — valid because the
        modeled cost is plan-determined, not data-determined.  Requires a
        template-carrying backend (``"fast"``/``"turbo"``).
        """
        if self._report is None:
            raise ServingError(
                f"execution backend {self.execution!r} carries no cost "
                "template; package_results needs a template backend such "
                "as 'fast' or 'turbo'"
            )
        self._check_structure()
        return self._assemble(list(outputs_list), None, None, latency_s)

    def _assemble(
        self, per_request_outputs, per_request_reports, stage_names,
        latency_s,
    ) -> list[RequestResult]:
        graph = self.compiled.graph
        bsz = len(per_request_outputs)
        terminal = (
            graph.outputs[-1]
            if graph.outputs
            else self.compiled.segments[-1].lowered.output_name
        )
        with self._lock:
            first_id = self.stats.requests
            self.stats.requests += bsz
            self.stats.batches += 1
            self.stats.wall_s += latency_s
            self.stats.peak_queue_depth = max(
                self.stats.peak_queue_depth, bsz
            )
        served = []
        for i, outputs in enumerate(per_request_outputs):
            if self._report is not None:
                report, stage_reports = self._report, self._stage_reports
            else:
                report = CostReport.combine(
                    per_request_reports[i], names=stage_names
                )
                stage_reports = report.stages
            served.append(
                RequestResult(
                    output=outputs[terminal],
                    outputs=outputs,
                    stats=RequestStats(
                        request_id=first_id + i,
                        batch_index=i,
                        queue_depth=bsz,
                        latency_s=latency_s,
                        report=report,
                        stage_reports=stage_reports,
                    ),
                )
            )
        return served
