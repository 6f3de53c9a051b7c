"""Replay a generated trace against a real dispatcher under dilation.

The harness between :mod:`repro.fleet.trace` and the analytical model:
it compiles one model per tenant **on that tenant's own device profile**
(an M4 part and an M7 part by default — a genuinely heterogeneous fleet
behind one :class:`~repro.serving.Dispatcher`), then submits the trace's
requests open-loop under **virtual-time dilation**: a trace spanning a
24 h virtual day replays in seconds by dividing every arrival offset by
the dilation factor.  Service is *not* dilated — the dispatcher runs
real batches on real workers — so deadlines keep their real-seconds
meaning and the measured service distribution is the genuine article the
capacity model needs.

Replay preserves the serving tier's bit-exactness guarantee: request
inputs come from per-tenant deterministic pools indexed by the trace's
``input_draw`` column, so the outputs of a replayed request depend only
on the trace — not on the dilation factor, batch composition, worker
count or anything else wall-clock (property-tested in
``tests/fleet/test_replay.py``).  Optional
:class:`~repro.serving.faults.FaultPlan` storms compose in unchanged.
"""

from __future__ import annotations

import gc
import hashlib
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro.compiler.cache import PlanCache
from repro.compiler.compile import CompiledModel, compile_model
from repro.errors import AdmissionError, ServingError
from repro.fleet.telemetry import WindowedTelemetry
from repro.fleet.trace import Trace
from repro.graph.synthetic import linear_chain
from repro.mcu.device import get_device
from repro.serving.control import FleetConfig, TenantPolicy
from repro.serving.dispatcher import Dispatcher, DispatchStats

__all__ = [
    "MODEL_LIBRARY",
    "ReplayConfig",
    "RequestRecord",
    "ReplayResult",
    "build_fleet",
    "input_pools",
    "replay",
]

#: named model builders a :class:`~repro.fleet.trace.TenantSpec` can
#: reference.  All are deterministic; the tiny chains keep per-request
#: service in the tens of microseconds so 100k-request traces replay in
#: seconds while still exercising the full compile/plan/serve path.
MODEL_LIBRARY: dict[str, Callable[[], object]] = {
    "tiny-chain-2": lambda: linear_chain(2, hw=8, channels=8),
    "tiny-chain-4": lambda: linear_chain(4, hw=8, channels=8),
    "tiny-chain-6": lambda: linear_chain(6, hw=8, channels=8),
    "wide-chain-4": lambda: linear_chain(4, hw=8, channels=16),
}


@dataclass(frozen=True)
class ReplayConfig:
    """Knobs of one replay run (everything but the trace itself)."""

    #: virtual seconds per real second; 86400 replays a day in a second
    #: of arrivals (service time still real)
    dilation: float = 2000.0
    workers: int = 2
    max_batch: int = 32
    #: real seconds the batch former holds a head request.  Unlike the
    #: dispatcher's work-conserving default of 0, replays keep a 0.5 ms
    #: hold: the M/G/k model's k-sweep validates against it.  Over 8
    #: replays of the k=2 sweep point the p95 error read 0.08-0.20 with
    #: the hold (7 of 8 under the 20% gate) and 0.18-0.48 without it
    #: (1 of 8), so dropping it waits on a model that accounts for the
    #: host's real parallelism
    batch_timeout_s: float = 0.0005
    max_queue_depth: int = 8192
    #: telemetry bucket width in **virtual** seconds
    window_s: float = 3600.0
    execution: str = "turbo"
    #: per-ticket result wait bound (real seconds)
    result_timeout_s: float = 120.0
    #: keep per-request output tensors.  ``False`` is the
    #: million-request mode: outputs are digested on the fly (so the
    #: bit-exactness gates still hold) and the telemetry streams
    #: :class:`~repro.fleet.telemetry.LatencyHistogram` windows instead
    #: of raw-sample lists — memory stays bounded by window count, not
    #: request count.
    keep_outputs: bool = True
    #: run one request per tenant before starting the clock, so the
    #: first trace window measures steady state rather than cold weight
    #: packing / BLAS warm-up
    warmup: bool = True

    def validate(self) -> None:
        if self.dilation <= 0:
            raise ServingError(
                f"dilation must be positive, got {self.dilation}"
            )
        if self.workers <= 0:
            raise ServingError(
                f"workers must be positive, got {self.workers}"
            )
        if self.window_s <= 0:
            raise ServingError(
                f"window_s must be positive, got {self.window_s}"
            )


@dataclass(frozen=True)
class RequestRecord:
    """One replayed request's outcome (a row of the replay log)."""

    index: int
    tenant: str
    device_class: str
    arrival_virtual_s: float
    #: ``"completed"`` | ``"failed"`` | ``"shed"`` | ``"rejected"``
    outcome: str
    latency_s: float = 0.0
    queue_wait_s: float = 0.0
    deadline_met: bool = False
    worker: int = -1
    #: monotonic admit/start/complete stamps from ``DispatchResult``
    admit_t: float = 0.0
    start_t: float = 0.0
    complete_t: float = 0.0
    #: queue depth sampled at admission
    queue_depth: int = 0
    output: np.ndarray | None = field(default=None, repr=False)
    #: blake2b over the output bytes, computed at completion time — the
    #: bit-exactness witness that survives ``keep_outputs=False``
    output_digest: bytes | None = field(default=None, repr=False)

    @property
    def batch_id(self) -> tuple | None:
        """Identity of the executing batch (None unless completed)."""
        if self.outcome != "completed":
            return None
        return (self.worker, self.start_t, self.complete_t)

    @property
    def batch_service_s(self) -> float:
        return max(0.0, self.complete_t - self.start_t)


@dataclass
class ReplayResult:
    """Everything one replay produced: records, telemetry, stats."""

    trace: Trace
    config: ReplayConfig
    records: list[RequestRecord]
    telemetry: WindowedTelemetry
    stats: DispatchStats
    #: tenant -> device class served for it
    device_classes: dict[str, str]
    #: real seconds from first submit to last resolution
    wall_s: float = 0.0
    #: worst pacing lag behind the dilated schedule (real seconds)
    max_submit_lag_s: float = 0.0
    #: ``os.cpu_count()`` at replay time (capacity-model input)
    cores: int = 1

    def outcome_counts(self) -> dict[str, int]:
        counts = Counter(r.outcome for r in self.records)
        return {
            k: counts.get(k, 0)
            for k in ("completed", "failed", "shed", "rejected")
        }

    @property
    def completed(self) -> int:
        return self.outcome_counts()["completed"]

    @property
    def requests_per_s(self) -> float:
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def balanced(self) -> bool:
        """The serving-tier conservation law over the whole replay.

        Every admitted request resolved exactly one way:
        ``admitted == completed + failed + shed``.
        """
        s = self.stats
        return s.submitted == s.completed + s.failed + s.shed

    def failed_indices(self) -> tuple[int, ...]:
        """Trace indices (== request seqs) that failed, ascending.

        The set a chaos replay checks against
        :attr:`~repro.fleet.chaos.StormPlan.expected_failed`.
        """
        return tuple(
            r.index for r in self.records if r.outcome == "failed"
        )

    def outputs_digest(self) -> str:
        """Digest of per-request outcomes and output digests, in order.

        Dilation, worker count and scheduling must not change this (as
        long as nothing is shed): outputs depend only on the trace.
        Built from the per-record ``output_digest`` computed at
        completion time, so it is identical whether or not the run kept
        the output tensors themselves.
        """
        h = hashlib.blake2b(digest_size=16)
        for rec in self.records:
            h.update(rec.outcome[:1].encode())
            if rec.output_digest is not None:
                h.update(rec.output_digest)
        return h.hexdigest()


# --------------------------------------------------------------------------- #
# fleet construction
# --------------------------------------------------------------------------- #
def build_fleet(
    trace: Trace,
    *,
    plan_cache: PlanCache | None = None,
    seed: int = 0,
) -> dict[str, CompiledModel]:
    """Compile each tenant's model on the tenant's own device profile.

    One shared :class:`PlanCache` across the fleet, so tenants serving
    the same (model, device) pair reuse the solved plans — the fleet
    case of one architecture behind many customers.
    """
    cache = plan_cache if plan_cache is not None else PlanCache()
    compiled: dict[str, CompiledModel] = {}
    for tenant in trace.spec.tenants:
        try:
            builder = MODEL_LIBRARY[tenant.model]
        except KeyError:
            raise ServingError(
                f"tenant {tenant.name!r}: unknown model "
                f"{tenant.model!r}; library has "
                f"{sorted(MODEL_LIBRARY)}"
            ) from None
        compiled[tenant.name] = compile_model(
            builder(),
            device=get_device(tenant.device),
            cache=cache,
            seed=seed,
        )
    return compiled


def input_pools(
    trace: Trace, compiled: Mapping[str, CompiledModel]
) -> dict[str, list[Mapping[str, np.ndarray]]]:
    """Per-tenant deterministic input pools the replay draws from.

    Seeded by ``(trace seed, tenant index)``, so a request's feeds are a
    pure function of the trace — the root of the dilation-invariance
    guarantee on outputs.
    """
    pools: dict[str, list[Mapping[str, np.ndarray]]] = {}
    for idx, tenant in enumerate(trace.spec.tenants):
        cm = compiled[tenant.name]
        rng = np.random.default_rng([trace.spec.seed, 0xF1EE7, idx])
        pool = []
        for _ in range(tenant.pool_size):
            feeds = {
                name: rng.integers(
                    -128,
                    128,
                    size=cm.graph.tensors[name].spec.shape,
                    dtype=np.int8,
                )
                for name in cm.graph.inputs
            }
            pool.append(feeds)
        pools[tenant.name] = pool
    return pools


def fleet_config(trace: Trace, config: ReplayConfig) -> FleetConfig:
    """The dispatcher :class:`FleetConfig` a replay runs under.

    Worker count is pinned (``min_workers == max_workers``): the
    analytical model needs k to be a constant of the run, and capacity
    *planning* — not reactive autoscaling — is the subsystem's job.
    """
    return FleetConfig(
        tenants={
            t.name: TenantPolicy(
                weight=t.weight,
                priority=t.priority,
                deadline_s=t.deadline_s,
            )
            for t in trace.spec.tenants
        },
        min_workers=config.workers,
        max_workers=config.workers,
        max_batch=config.max_batch,
        max_queue_depth=config.max_queue_depth,
        batch_timeout_s=config.batch_timeout_s,
    )


# --------------------------------------------------------------------------- #
# the replay loop
# --------------------------------------------------------------------------- #
def replay(
    trace: Trace,
    *,
    config: ReplayConfig | None = None,
    compiled: Mapping[str, CompiledModel] | None = None,
    plan_cache: PlanCache | None = None,
    faults=None,
    fleet: FleetConfig | None = None,
) -> ReplayResult:
    """Drive a real dispatcher from ``trace`` under dilated time.

    Open-loop: requests are submitted on the dilated schedule whether or
    not earlier ones finished, which is what makes overload windows real
    (queueing, shedding and deadline misses happen exactly as they would
    in production, just on a compressed clock).

    ``fleet`` overrides the default pinned-worker
    :func:`fleet_config` — the storm evals use it to replay with retry
    policies, retry budgets, breaker thresholds and an *autoscaling*
    range (``min_workers < max_workers``) in force.
    """
    config = config if config is not None else ReplayConfig()
    config.validate()
    plan_cache = plan_cache if plan_cache is not None else PlanCache()
    if compiled is None:
        compiled = build_fleet(trace, plan_cache=plan_cache)
    pools = input_pools(trace, compiled)
    device_classes = {
        t.name: compiled[t.name].device.device_class
        for t in trace.spec.tenants
    }
    tenants = trace.spec.tenants
    deadlines = [t.deadline_s for t in tenants]
    names = [t.name for t in tenants]
    pool_sizes = [t.pool_size for t in tenants]

    dispatcher = Dispatcher(
        dict(compiled),
        workers=config.workers,
        execution=config.execution,
        config=fleet if fleet is not None else fleet_config(trace, config),
        plan_cache=plan_cache,
        faults=faults,
    )
    arrivals = trace.arrival_s
    tenant_ids = trace.tenant_id
    draws = trace.input_draw
    n = len(trace)
    tickets: list = [None] * n
    queue_depths = [0] * n
    max_lag = 0.0
    queue = dispatcher.queue
    # a generational-GC sweep over 10^5 live tickets stalls the
    # submission loop for ~100 ms — a real burst the trace never asked
    # for, which poisons the measured tail the model validates against
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        if config.warmup:
            # straight through the sessions: warms packs, templates and
            # BLAS without touching the dispatcher's counters
            for name in names:
                dispatcher.sessions[name].run_batch(
                    [pools[name][0]], execution=config.execution
                )
        base = time.monotonic()
        for i in range(n):
            target = base + arrivals[i] / config.dilation
            delay = target - time.monotonic()
            if delay > 0.0002:
                time.sleep(delay)
            else:
                max_lag = max(max_lag, -delay)
            tid = tenant_ids[i]
            feeds = pools[names[tid]][draws[i] % pool_sizes[tid]]
            queue_depths[i] = len(queue)
            try:
                tickets[i] = dispatcher.submit(
                    tenant=names[tid],
                    feeds=feeds,
                    deadline_s=deadlines[tid],
                )
            except AdmissionError:
                tickets[i] = "rejected"
        records: list[RequestRecord] = []
        for i in range(n):
            tid = tenant_ids[i]
            common = dict(
                index=i,
                tenant=names[tid],
                device_class=device_classes[names[tid]],
                arrival_virtual_s=float(arrivals[i]),
                queue_depth=queue_depths[i],
            )
            ticket = tickets[i]
            tickets[i] = None  # free as we go: 100k tickets are heavy
            if ticket == "rejected":
                records.append(
                    RequestRecord(outcome="rejected", **common)
                )
                continue
            try:
                dr = ticket.result(config.result_timeout_s)
            except AdmissionError:
                # admitted, then evicted by priority load shedding
                records.append(RequestRecord(outcome="shed", **common))
                continue
            except ServingError:
                records.append(RequestRecord(outcome="failed", **common))
                continue
            out = np.ascontiguousarray(dr.output)
            records.append(
                RequestRecord(
                    outcome="completed",
                    latency_s=dr.latency_s,
                    queue_wait_s=dr.queue_wait_s,
                    deadline_met=dr.deadline_met,
                    worker=dr.worker,
                    admit_t=dr.admit_t,
                    start_t=dr.start_t,
                    complete_t=dr.complete_t,
                    output=(
                        np.array(dr.output, copy=True)
                        if config.keep_outputs
                        else None
                    ),
                    output_digest=hashlib.blake2b(
                        out.tobytes(), digest_size=16
                    ).digest(),
                    **common,
                )
            )
        wall = time.monotonic() - base
        stats = dispatcher.stats
    finally:
        if gc_was_enabled:
            gc.enable()
        dispatcher.close()
    telemetry = _fill_telemetry(
        records, config.window_s, histograms=not config.keep_outputs
    )
    return ReplayResult(
        trace=trace,
        config=config,
        records=records,
        telemetry=telemetry,
        stats=stats,
        device_classes=device_classes,
        wall_s=wall,
        max_submit_lag_s=max_lag,
        cores=os.cpu_count() or 1,
    )


def _fill_telemetry(
    records: list[RequestRecord],
    window_s: float,
    *,
    histograms: bool = False,
) -> WindowedTelemetry:
    """Fold the replay log into windowed per-tenant/per-device stats.

    Two passes: batch sizes first (a :class:`RequestRecord` knows its
    batch identity but not how many co-batched siblings it had), then
    the streaming observes.  ``histograms=True`` (the
    ``keep_outputs=False`` million-request mode) streams latencies into
    fixed-size :class:`LatencyHistogram` buckets instead of raw samples.
    """
    batch_sizes = Counter(
        r.batch_id for r in records if r.batch_id is not None
    )
    telemetry = WindowedTelemetry(window_s, histograms=histograms)
    for rec in records:
        if rec.outcome == "completed":
            telemetry.observe_completed(
                arrival_virtual_s=rec.arrival_virtual_s,
                tenant=rec.tenant,
                device_class=rec.device_class,
                latency_s=rec.latency_s,
                queue_wait_s=rec.queue_wait_s,
                deadline_met=rec.deadline_met,
                batch_id=rec.batch_id,
                batch_service_s=rec.batch_service_s,
                batch_size=batch_sizes[rec.batch_id],
                queue_depth=rec.queue_depth,
            )
        elif rec.outcome == "failed":
            telemetry.observe_failed(
                arrival_virtual_s=rec.arrival_virtual_s,
                tenant=rec.tenant,
                device_class=rec.device_class,
            )
        else:  # shed or rejected: offered load the fleet turned away
            telemetry.observe_shed(
                arrival_virtual_s=rec.arrival_virtual_s,
                tenant=rec.tenant,
                device_class=rec.device_class,
            )
    return telemetry
