"""Plan-once/run-many serving layer on top of the compiler.

Three tiers.  A :class:`Session` is the single-caller path — compile a
model once, then serve batches against the frozen plans, packed weights
and per-stage cost templates:

    import repro
    session = repro.compile(model, execution="fast").serve()
    results = session.run_batch(batch_of_inputs)   # bit-exact vs simulate
    results[0].stats.report.latency_ms             # modeled per-request cost

A :class:`Dispatcher` is the fleet path — an admission-controlled queue
that forms deadline-aware micro-batches and shards them across N
workers, serving many tenants' models through one shared ``PlanCache``:

    from repro.serving import Dispatcher
    with Dispatcher({"acme": cm_a, "globex": cm_b}, workers=4) as d:
        ticket = d.submit(x, tenant="acme", deadline_s=0.05)
        print(ticket.result().latency_s, d.stats.p95_latency_s)

The **control plane** makes the fleet declarative and live-tunable: a
:class:`FleetConfig` carries per-tenant QoS policies (scheduling weight,
priority class, deadline default, admission quota) and fleet bounds
(``min_workers``/``max_workers``, batching, queue depth), the batch
former schedules by priority class and weighted stride, overload sheds
the lowest-priority work first, and an :class:`Autoscaler` moves the
worker pool inside the configured range.  Reconfigure without a restart:

    cfg = d.config.with_tenant("acme", weight=4.0, priority=1)
    d.apply_config(cfg)          # validated, atomic, audited in d.stats

The **resilience layer** keeps the fleet honest under failure: a
seedable :class:`FaultPlan` injects reproducible faults at named points
(:mod:`repro.serving.faults`), the dispatcher quarantines poison
requests so innocent co-batched tickets still succeed, a supervisor
respawns crashed workers and rebuilds broken process pools, and a
per-(tenant, backend) :class:`CircuitBreaker` degrades a failing
``"turbo"`` session to ``"fast"`` — bit-exact by construction, so
degradation is invisible to outputs — then probes its
way back after cooldown.  Every crash, restart and degradation is an
audited event in the control plane's trail.

Outputs and per-request cost reports stay bit-identical to
``execution="simulate"`` under any interleaving — batching, sharding,
tenant mixing, live reconfiguration and failure recovery change wall
clock, never bits.
"""

from repro.serving.budgets import (
    AvailabilityReport,
    ErrorBudget,
    RetryBudget,
    availability_report,
    repair_metrics,
)
from repro.serving.control import (
    Autoscaler,
    ConfigChange,
    ControlPlane,
    FleetConfig,
    RetryPolicy,
    TenantPolicy,
)
from repro.serving.faults import FaultInjector, FaultPlan, FaultSpec
from repro.serving.resilience import CircuitBreaker
from repro.serving.dispatcher import (
    Dispatcher,
    DispatchResult,
    DispatchStats,
    TenantStats,
)
from repro.serving.queue import RequestQueue, Ticket
from repro.serving.session import (
    RequestResult,
    RequestStats,
    Session,
    SessionStats,
)

__all__ = [
    "Autoscaler",
    "AvailabilityReport",
    "CircuitBreaker",
    "ConfigChange",
    "ControlPlane",
    "ErrorBudget",
    "RetryBudget",
    "availability_report",
    "repair_metrics",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FleetConfig",
    "RetryPolicy",
    "TenantPolicy",
    "Dispatcher",
    "DispatchResult",
    "DispatchStats",
    "TenantStats",
    "RequestQueue",
    "Ticket",
    "RequestResult",
    "RequestStats",
    "Session",
    "SessionStats",
]
