"""Sharded multi-worker serving dispatcher with a live control plane.

The scale-out layer above :class:`~repro.serving.session.Session`:

.. code-block:: text

                      FleetConfig ──► ControlPlane ──► subscribers
                                          │   (queue, autoscaler)
                                          ▼ apply_config / audit
    submit() ──► RequestQueue ──► batch former ──► worker shards ──► Session
                 (admission +     (priority/QoS     (min..max        (one per
                  load shedding)   micro-batches)    threads)         tenant)

* the **control plane** (:mod:`repro.serving.control`) is a declarative
  :class:`FleetConfig` — per-tenant QoS weights, priority classes,
  deadline defaults and admission quotas, plus fleet-level batching and
  ``min_workers``/``max_workers`` bounds — applied atomically to a
  *live* dispatcher via :meth:`Dispatcher.apply_config`, every change
  validated first and recorded in the audit trail ``stats`` surfaces;
* the **queue** (:mod:`repro.serving.queue`) admits requests up to the
  global and per-tenant bounds, sheds the lowest-priority work first
  when full, and forms single-tenant micro-batches under a
  priority/weighted-stride/deadline policy;
* the **autoscaler** grows and shrinks the worker pool inside the
  config's range from queue depth and the per-tenant EWMA service
  estimates (or the M/G/k capacity planner), with hysteresis; resizes
  land in the audit trail.  It observes only on the supervisor's sweep,
  every ``supervise_interval_s``, so ``submit`` and the workers make no
  autoscaler call, and a fixed fleet (``min_workers == max_workers``)
  skips it;
* **workers** are threads that pop batches and dispatch them through
  the tenant's warmed :class:`Session`.  The hot path releases the GIL
  for the whole native segment pass (or inside NumPy and BLAS without
  the native leaves), so threads shard real work on multicore hosts
  while sharing every cache;
* **tenants** are independent compiled models behind one front door.
  All of them share the process-wide (or caller-supplied)
  :class:`~repro.compiler.cache.PlanCache` — see
  :meth:`Dispatcher.compile` — plus the weight-pack cache and the
  per-plan cost-template cache, all lock-protected.

Correctness is load-bearing: whatever the arrival order, batch
composition, tenant mix or reconfiguration interleaving, every served
request's outputs and ``RequestStats``/``CostReport`` are bit-identical
to running it alone with ``execution="simulate"`` (property-tested in
``tests/serving/test_dispatcher.py`` and
``tests/serving/test_control.py``).  Scheduling and scaling change wall
clock and *which* requests are shed under overload — never bits.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from repro.compiler.cache import DEFAULT_PLAN_CACHE, CacheStats, PlanCache
from repro.errors import (
    ConfigError,
    InjectedFaultError,
    RequestFailedError,
    ServingError,
    ShapeError,
    WorkerCrashError,
)

# the repo-wide quantile definition lives with the fleet telemetry (no
# cycle: fleet.telemetry imports nothing from the serving layer, and
# fleet/__init__ resolves its replay-harness exports lazily); the M/G/k
# model + planner the model-driven autoscaler consumes import only
# telemetry and errors, so the same acyclicity argument covers them
from repro.fleet.model import ServiceProfile
from repro.fleet.planner import SLOTarget, plan_capacity
from repro.fleet.telemetry import percentile as _percentile
from repro.serving import faults as _faults
from repro.serving.budgets import RetryBudget
from repro.serving.control import (
    Autoscaler,
    ConfigChange,
    ControlPlane,
    FleetConfig,
)
from repro.serving.queue import RequestQueue, Ticket
from repro.serving.resilience import CircuitBreaker, supervisor_loop
from repro.serving.session import RequestResult, Session

__all__ = ["DispatchResult", "TenantStats", "DispatchStats", "Dispatcher"]


@dataclass(frozen=True)
class DispatchResult:
    """One served request plus its dispatch-level accounting."""

    #: the session-level result (outputs + modeled cost, bit-exact)
    result: RequestResult
    tenant: str
    #: which worker shard executed the batch
    worker: int
    #: seconds spent queued before the batch was formed
    queue_wait_s: float
    #: submit-to-completion seconds (queue wait + batch service)
    latency_s: float
    #: whether completion beat the request's deadline
    deadline_met: bool
    #: ``time.monotonic()`` at admission (the ticket's enqueue instant)
    admit_t: float = 0.0
    #: ``time.monotonic()`` when the serving attempt began (batch start)
    start_t: float = 0.0
    #: ``time.monotonic()`` when the serving attempt finished
    complete_t: float = 0.0

    @property
    def output(self) -> np.ndarray:
        return self.result.output

    @property
    def stats(self):
        return self.result.stats


@dataclass
class TenantStats:
    """Per-tenant aggregate counters.

    ``latencies_s`` (and the percentiles over it) cover the most recent
    :data:`LATENCY_WINDOW` requests; the scalar counters are lifetime.
    The dispatcher keeps one live record per tenant, its window a
    bounded ``deque``, and ``Dispatcher.stats`` hands out copies with
    the window frozen into a tuple.
    """

    requests: int = 0
    batches: int = 0
    deadline_hits: int = 0
    deadline_misses: int = 0
    latencies_s: tuple[float, ...] = ()
    #: requests that definitively failed (quarantine exhausted, worker
    #: lost mid-batch, or still queued at close)
    failed: int = 0
    #: requests re-run in isolation after their batch faulted
    quarantined: int = 0

    @property
    def deadline_hit_rate(self) -> float:
        total = self.deadline_hits + self.deadline_misses
        return self.deadline_hits / total if total else 0.0

    @property
    def p50_latency_s(self) -> float:
        return _percentile(sorted(self.latencies_s), 0.50)

    @property
    def p95_latency_s(self) -> float:
        return _percentile(sorted(self.latencies_s), 0.95)


@dataclass
class DispatchStats:
    """Dispatcher-lifetime snapshot: counters, percentiles, cache stats."""

    submitted: int = 0
    rejected: int = 0
    completed: int = 0
    failed: int = 0
    batches: int = 0
    peak_queue_depth: int = 0
    #: first-submit to last-completion span (0 until something completes)
    wall_s: float = 0.0
    per_tenant: dict[str, TenantStats] = field(default_factory=dict)
    plan_cache: CacheStats | None = None
    #: admitted requests later evicted by priority load shedding
    shed: int = 0
    #: current worker-shard target (autoscaler/config controlled)
    workers: int = 0
    #: how many reconfigurations ``apply_config`` has applied
    config_epoch: int = 0
    #: the control plane's audit trail, oldest first
    audit: tuple[ConfigChange, ...] = ()
    #: requests re-run in isolation after a batch fault (quarantine)
    quarantined: int = 0
    #: extra isolation attempts beyond the first (backoff retries),
    #: i.e. retries the fleet-wide budget granted
    retries: int = 0
    #: retries the fleet-wide retry budget denied (storm guardrail)
    retry_denied: int = 0
    #: retry-budget bookkeeping: ratio/burst knobs plus the
    #: admitted/granted/denied counters behind the token bucket
    retry_budget: Mapping[str, float] = field(default_factory=dict)
    #: the model-driven autoscaler's most recent planner target
    #: (``None`` while heuristic or uncalibrated)
    planned_workers: int | None = None
    #: worker threads the supervisor respawned after a crash
    worker_crashes: int = 0
    #: tenants currently degraded by an open circuit breaker
    #: (tenant -> the fallback backend serving it right now)
    degraded: Mapping[str, str] = field(default_factory=dict)
    #: worker ids that failed to join within ``close(timeout)``
    unjoined_workers: tuple[int, ...] = ()

    @property
    def requests_per_s(self) -> float:
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def retry_ratio(self) -> float:
        """Granted retries per admitted request (the budgeted quantity)."""
        return self.retries / self.submitted if self.submitted else 0.0

    @property
    def deadline_hit_rate(self) -> float:
        hits = sum(t.deadline_hits for t in self.per_tenant.values())
        total = hits + sum(
            t.deadline_misses for t in self.per_tenant.values()
        )
        return hits / total if total else 0.0

    @property
    def _all_latencies(self) -> list[float]:
        out: list[float] = []
        for t in self.per_tenant.values():
            out.extend(t.latencies_s)
        out.sort()
        return out

    @property
    def p50_latency_s(self) -> float:
        return _percentile(self._all_latencies, 0.50)

    @property
    def p95_latency_s(self) -> float:
        return _percentile(self._all_latencies, 0.95)


# --------------------------------------------------------------------------- #
# constants and worker-thread plumbing
# --------------------------------------------------------------------------- #
#: how many recent per-request latencies each tenant's percentile window
#: keeps; a fleet running for days must not grow stats without bound
LATENCY_WINDOW = 4096

#: floor on the per-tenant Session batch cap.  Sessions are built with
#: ``max(SESSION_BATCH_CAP, construction max_batch)`` so apply_config can
#: raise the fleet's ``max_batch`` live without forming batches the
#: sessions would reject; configs above the cap are rejected up front.
SESSION_BATCH_CAP = 256

#: observation floors before the model-driven autoscaler trusts its own
#: calibration; below them ``autoscale_mode="model"`` falls back to the
#: queue-depth heuristic
MODEL_MIN_ARRIVALS = 16
MODEL_MIN_BATCHES = 8

#: recent-history windows feeding the capacity model: admission instants
#: (measured arrival rate) and batch (span, size) pairs (service profile)
ARRIVAL_HISTORY = 2048
SPAN_HISTORY = 512


def _finalize_dispatcher(queue, supervisor_stop) -> None:
    """Tear down everything a dropped dispatcher would otherwise leak.

    Registered as a ``weakref.finalize`` (and invoked by ``close()``):
    stops the supervisor and closes the queue so blocked workers drain
    and exit.  Runs for abandoned dispatchers because the worker and
    supervisor threads hold only *weak* references back to the
    dispatcher — a bound-method thread target would pin it alive
    forever.
    """
    supervisor_stop.set()
    queue.close()


def _worker_entry(
    dispatcher_ref: "weakref.ref",
    worker_id: int,
    retire_ids: set[int],
    clean_exits: set[int],
) -> None:
    """Worker thread target: the loop, minus injected-crash noise.

    An *injected* crash (:class:`~repro.errors.InjectedFaultError` and
    its ``WorkerCrashError`` subclass) kills the thread exactly like a
    real bug would — no ``clean_exits`` record, so the supervisor sees
    a crash and respawns — but dies silently instead of spraying the
    default threading excepthook over every chaos test's output.  Real
    bugs still traceback.
    """
    try:
        _worker_loop(dispatcher_ref, worker_id, retire_ids, clean_exits)
    except InjectedFaultError:
        return


def _worker_loop(
    dispatcher_ref: "weakref.ref",
    worker_id: int,
    retire_ids: set[int],
    clean_exits: set[int],
) -> None:
    """Worker thread body, holding the dispatcher only weakly.

    Strong references are re-taken per batch and dropped before the
    blocking ``pop_batch`` wait, so an abandoned dispatcher can be
    garbage collected — its finalizer then closes the queue, which
    wakes the workers and lets them exit.  ``retire_ids`` is the
    autoscaler's shrink signal: a worker that finds its id there exits
    at the next scheduling point without claiming work.  Every
    *deliberate* exit path records itself in ``clean_exits`` first, so
    the supervisor can tell a retired worker from a crashed one (both
    sets are shared state, deliberately not dispatcher references).

    A worker dies like a real buggy worker would: the ``"worker.loop"``
    fault point fires *before* any work is claimed (an injected crash
    orphans no batch), and an exception escaping ``_serve_batch`` first
    fails whatever tickets that batch still owes (no waiter may hang on
    a dead thread), then propagates and kills the thread — detection
    and respawn belong to the supervisor, not to the patient.
    """
    while True:
        if worker_id in retire_ids:
            retire_ids.discard(worker_id)
            clean_exits.add(worker_id)
            return
        dispatcher = dispatcher_ref()
        if dispatcher is None:
            clean_exits.add(worker_id)
            return
        injector = dispatcher._faults
        if injector is not None:
            # raises WorkerCrashError for kind="crash" specs; the frame
            # (and its strong reference) dies with the thread
            injector.fire("worker.loop", key=worker_id)
        queue = dispatcher.queue
        max_batch = dispatcher.max_batch
        batch_timeout_s = dispatcher.batch_timeout_s
        # the dict's bound .get keeps the dict alive, not the dispatcher
        estimate = dispatcher._service_s.get
        del dispatcher
        batch = queue.pop_batch(
            max_batch,
            batch_timeout_s,
            estimate,
            stop=lambda: worker_id in retire_ids,
        )
        if batch is None:
            retire_ids.discard(worker_id)
            clean_exits.add(worker_id)
            return
        dispatcher = dispatcher_ref()
        if dispatcher is None:
            error = ServingError(
                "dispatcher was dropped while this batch was queued; "
                "keep the dispatcher alive (or use `with`) until every "
                "ticket has resolved"
            )
            for ticket in batch:
                ticket._fail(error)
            return
        try:
            dispatcher._serve_batch(worker_id, batch)
        except BaseException as exc:  # noqa: BLE001 — fail tickets, then die
            dispatcher._worker_died(worker_id, batch, exc)
            raise
        del dispatcher


class Dispatcher:
    """Queue → QoS micro-batches → worker shards → sessions, live-tunable.

    Parameters
    ----------
    models:
        ``{tenant name: CompiledModel}`` (or a single ``CompiledModel``,
        served as tenant ``"default"``).
    workers:
        Initial number of worker shards (clamped into the config's
        ``min_workers..max_workers`` range; the autoscaler moves the
        fleet inside it afterwards).  Each shard is a thread; they share
        every cache, and the native leaves release the GIL.
    execution:
        Backend for every tenant session; the ``"turbo"`` default keeps
        bit-exactness while running each model segment in one native
        call over the stage table its session bound at open.
    max_batch, max_queue_depth, default_deadline_s, batch_timeout_s:
        Shorthand for the matching :class:`FleetConfig` fields when no
        ``config`` is given.  ``batch_timeout_s`` defaults to ``0``, the
        work-conserving batch former: a request never waits for company
        while a worker is idle.
    plan_cache:
        The shared :class:`PlanCache` whose hit/miss statistics the
        dispatcher reports (default: the process-wide cache every
        ``repro.compile`` call already goes through).
    config:
        Full declarative :class:`FleetConfig` (overrides the shorthand
        kwargs above).  Without one, a fixed-size config pinning
        ``min_workers = max_workers = workers`` reproduces the classic
        fixed-fleet behavior.  Swap it live with :meth:`apply_config`.
    faults:
        Optional :class:`~repro.serving.faults.FaultPlan` (or prepared
        injector) evaluated at the serving path's named injection
        points — chaos testing only; ``None`` (the default) reduces
        every hook to an ``is None`` check.
    """

    def __init__(
        self,
        models,
        *,
        workers: int = 4,
        execution: str = "turbo",
        max_batch: int = 8,
        max_queue_depth: int = 256,
        default_deadline_s: float = 0.5,
        batch_timeout_s: float = 0.0,
        plan_cache: PlanCache | None = None,
        config: FleetConfig | None = None,
        faults: "_faults.FaultPlan | _faults.FaultInjector | None" = None,
    ):
        if workers <= 0:
            raise ServingError(f"need at least one worker, got {workers}")
        if max_batch <= 0:
            raise ServingError(f"max_batch must be positive, got {max_batch}")
        if default_deadline_s <= 0 or batch_timeout_s < 0:
            raise ServingError(
                "default_deadline_s must be > 0 and batch_timeout_s >= 0"
            )
        if config is None:
            # classic fixed fleet: exactly `workers` shards, no scaling
            config = FleetConfig(
                min_workers=workers,
                max_workers=workers,
                max_batch=max_batch,
                max_queue_depth=max_queue_depth,
                default_deadline_s=default_deadline_s,
                batch_timeout_s=batch_timeout_s,
            )
        if not isinstance(models, Mapping):
            models = {"default": models}
        if not models:
            raise ServingError("dispatcher needs at least one tenant model")
        self.execution = execution
        self.plan_cache = (
            plan_cache if plan_cache is not None else DEFAULT_PLAN_CACHE
        )
        self._faults = (
            None if faults is None else _faults.FaultInjector(faults)
        )
        #: one warmed session per tenant; plans/packs/templates frozen here.
        #: The session batch cap is fixed at construction with headroom
        #: above the initial config so apply_config can raise ``max_batch``
        #: live — the batch former must never form a batch the sessions
        #: reject (that would fail every ticket in it).
        self._session_max_batch = max(
            SESSION_BATCH_CAP, max_batch, config.max_batch
        )
        self.sessions: dict[str, Session] = {
            tenant: Session(
                cm, execution=execution, max_batch=self._session_max_batch
            )
            for tenant, cm in models.items()
        }
        #: the control plane: validated atomic config swaps + audit trail
        self.control = ControlPlane(config)
        self.queue = RequestQueue(config=config)
        self._autoscaler = Autoscaler(config)
        self.control.subscribe(self.queue)
        self.control.subscribe(self._autoscaler)
        self._seq = itertools.count()
        self._admitted = 0
        self._submit_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._first_submit_t: float | None = None
        self._last_done_t: float | None = None
        #: the live per-tenant counters; the fleet-wide completed,
        #: failed, batches and quarantined counts are their sums
        self._tenant_stats = {
            t: TenantStats(latencies_s=deque(maxlen=LATENCY_WINDOW))
            for t in self.sessions
        }
        #: EWMA of per-batch service seconds, the deadline-flush estimate
        self._service_s: dict[str, float | None] = {
            t: None for t in self.sessions
        }
        self._retries = 0
        self._retry_denied = 0
        #: fleet-wide retry guardrail: admissions fill it, retries drain
        #: it, so a fault storm can never amplify itself past
        #: ``burst + ratio x admitted`` extra attempts
        self._retry_budget = RetryBudget(
            config.retry_budget_ratio, config.retry_budget_burst
        )
        #: model-driven autoscaler inputs: recent admission instants
        #: (measured arrival rate) and batch (span, size) history
        #: (service profile); bounded so a long-lived fleet stays O(1)
        self._admit_times: deque[float] = deque(maxlen=ARRIVAL_HISTORY)
        self._span_history: deque[tuple[float, int]] = deque(
            maxlen=SPAN_HISTORY
        )
        self._planned_workers: int | None = None
        self._worker_crashes = 0
        self._unjoined_workers: tuple[int, ...] = ()
        self._closed = False
        #: per-tenant circuit breakers degrading a failing backend down
        #: DEGRADE_CHAIN; config_fn closes over the control plane (not
        #: self) to keep the dispatcher free of uncollectable cycles
        control = self.control
        self._breakers: dict[str, CircuitBreaker] = {
            t: CircuitBreaker(execution, lambda: control.config)
            for t in self.sessions
        }

        self._supervisor_stop = threading.Event()
        # unconditional cleanup for abandoned dispatchers: stops the
        # supervisor, closes the queue (waking and retiring the workers)
        self._finalizer = weakref.finalize(
            self, _finalize_dispatcher, self.queue, self._supervisor_stop
        )
        # worker-shard fleet: id -> thread, resized live by the
        # autoscaler / apply_config; `_retire_ids` is the shrink signal
        # and `_clean_exits` the deliberate-exit log, both shared with
        # the workers (never a dispatcher reference)
        self._scale_lock = threading.Lock()
        self._threads: dict[int, threading.Thread] = {}
        self._retire_ids: set[int] = set()
        self._clean_exits: set[int] = set()
        self._next_worker_id = 0
        self._target_workers = min(
            max(workers, config.min_workers), config.max_workers
        )
        with self._scale_lock:
            self._spawn_workers(self._target_workers)
        self._supervisor = threading.Thread(
            target=supervisor_loop,
            args=(weakref.ref(self), self._supervisor_stop),
            name="dispatcher-supervisor",
            daemon=True,
        )
        self._supervisor.start()

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def compile(
        cls,
        graphs: Mapping[str, object],
        *,
        device=None,
        cache: PlanCache | None = None,
        seed: int = 0,
        **dispatcher_kwargs,
    ) -> "Dispatcher":
        """Compile every tenant graph through one shared plan cache.

        Tenants serving the same architecture (the fleet case: one model,
        many customers) hit the cache instead of re-solving the
        constraint systems; the resulting hit rate is visible in
        :attr:`stats`.
        """
        from repro.compiler.compile import compile_model
        from repro.mcu.device import STM32F411RE

        cache = cache if cache is not None else PlanCache()
        device = device if device is not None else STM32F411RE
        compiled = {
            tenant: compile_model(g, device=device, cache=cache, seed=seed)
            for tenant, g in graphs.items()
        }
        return cls(compiled, plan_cache=cache, **dispatcher_kwargs)

    # ------------------------------------------------------------------ #
    # control plane
    # ------------------------------------------------------------------ #
    @property
    def config(self) -> FleetConfig:
        """The live declarative config (an immutable snapshot)."""
        return self.control.config

    @property
    def max_batch(self) -> int:
        return self.control.config.max_batch

    @property
    def batch_timeout_s(self) -> float:
        return self.control.config.batch_timeout_s

    @property
    def default_deadline_s(self) -> float:
        return self.control.config.default_deadline_s

    @property
    def worker_count(self) -> int:
        """The current worker-shard target (live threads converge to it)."""
        return self._target_workers

    @property
    def live_workers(self) -> int:
        """Worker threads currently alive (lags the target briefly)."""
        with self._scale_lock:
            return sum(
                1
                for wid, th in self._threads.items()
                if th.is_alive() and wid not in self._retire_ids
            )

    def apply_config(self, new_config: FleetConfig) -> ConfigChange:
        """Reconfigure the **live** dispatcher; returns the audit record.

        Validated first (:class:`~repro.errors.ConfigError` leaves
        everything untouched), then swapped atomically: the queue's
        batch former, admission control and load shedding, the
        autoscaler's bounds, the per-tenant deadline defaults and the
        worker-count clamp all re-derive from the new config at their
        next decision point.  In-flight batches are never interrupted,
        admitted requests are never dropped by a reconfiguration, and
        outputs stay bit-exact — the config changes *scheduling*, not
        arithmetic.  ``max_batch`` may be raised live up to the session
        batch cap fixed at construction
        (``max(SESSION_BATCH_CAP, initial max_batch)``); beyond it the
        config is rejected, because the sessions would refuse the
        batches the former would then build.
        """
        if self._closed:
            raise ServingError(
                "dispatcher is closed; apply_config needs a live fleet"
            )
        if (
            isinstance(new_config, FleetConfig)
            and new_config.max_batch > self._session_max_batch
        ):
            raise ConfigError(
                f"max_batch {new_config.max_batch} exceeds the per-tenant "
                f"session batch cap ({self._session_max_batch}) fixed at "
                "construction; build the dispatcher with a config whose "
                "max_batch covers the largest value you plan to apply live"
            )
        change = self.control.apply(new_config)
        # adopt the new budget knobs without resetting the bucket's
        # admission/grant history: a mid-storm reconfig must not hand
        # the retry path a fresh burst allowance
        self._retry_budget.reconfigure(
            new_config.retry_budget_ratio, new_config.retry_budget_burst
        )
        # hard clamp into the new range right away (the autoscaler only
        # moves the fleet on load observations); target is derived under
        # the scale lock so a concurrent autoscale resize cannot leave
        # the clamp operating on a stale worker count
        with self._scale_lock:
            target = min(
                max(self._target_workers, new_config.min_workers),
                new_config.max_workers,
            )
            old = self._resize_locked(target)
        if old is not None:
            self.control.record(
                "scale",
                f"workers {old} -> {target} (config epoch {change.epoch})",
            )
        self.queue.kick()
        return change

    def _resize(self, target: int, *, reason: str) -> None:
        """Grow/shrink the worker-shard fleet to ``target`` threads."""
        with self._scale_lock:
            old = self._resize_locked(target)
        if old is None:
            return
        self.control.record(
            "scale", f"workers {old} -> {target} ({reason})"
        )
        self.queue.kick()  # wake parked workers so retirements land

    def _resize_locked(self, target: int) -> int | None:
        """Resize to ``target`` (scale lock held); old target if changed."""
        if self._closed or target == self._target_workers:
            return None
        self._prune_dead_workers()
        old = self._target_workers
        self._target_workers = target
        if target > old:
            self._spawn_workers(target - old)
        else:
            # retire the newest shards first; they exit at their
            # next scheduling point without claiming work
            live = sorted(
                wid
                for wid, th in self._threads.items()
                if th.is_alive() and wid not in self._retire_ids
            )
            for wid in live[target:]:
                self._retire_ids.add(wid)
        return old

    def _prune_dead_workers(self) -> None:
        """Drop exited threads from the registry (scale lock held).

        Retired workers leave their Thread objects behind; without
        pruning, a long-lived autoscaled fleet grows ``_threads``
        without bound across shrink/grow cycles.
        """
        dead = [
            wid for wid, th in self._threads.items() if not th.is_alive()
        ]
        for wid in dead:
            del self._threads[wid]
            self._retire_ids.discard(wid)
            self._clean_exits.discard(wid)

    def _spawn_workers(self, count: int) -> None:
        """Start ``count`` fresh worker threads (scale lock held)."""
        for _ in range(count):
            wid = self._next_worker_id
            self._next_worker_id += 1
            th = threading.Thread(
                target=_worker_entry,
                args=(
                    weakref.ref(self), wid, self._retire_ids,
                    self._clean_exits,
                ),
                name=f"dispatcher-worker-{wid}",
                daemon=True,
            )
            self._threads[wid] = th
            th.start()

    def _supervise(self) -> None:
        """One watchdog sweep: respawn crashed workers, then autoscale.

        A *crashed* worker is one whose thread exited without recording
        itself in ``_clean_exits`` — retirement, queue close and
        dispatcher teardown all do, so anything else died of an
        exception.  The sweep prunes the corpses, respawns up to the
        current target (``min_workers..max_workers`` still governs the
        target itself) and audits the crash; it deliberately does *not*
        diagnose causes — dead is dead, and the only correct response
        is a fresh thread.  It then makes the fleet's one autoscaler
        observation, outside the scale lock.
        """
        if self._closed:
            return
        with self._scale_lock:
            if self._closed:
                return
            crashed = [
                wid
                for wid, th in self._threads.items()
                if not th.is_alive() and wid not in self._clean_exits
            ]
            self._prune_dead_workers()
            live = sum(
                1
                for wid, th in self._threads.items()
                if wid not in self._retire_ids
            )
            deficit = self._target_workers - live
            if deficit > 0:
                self._spawn_workers(deficit)
        if crashed:
            with self._stats_lock:
                self._worker_crashes += len(crashed)
            self.control.record(
                "crash",
                f"worker{'s' if len(crashed) != 1 else ''} "
                f"{crashed} crashed; respawned to "
                f"{self._target_workers} shard(s)",
            )
            self.queue.kick()
        self._maybe_autoscale()

    def _maybe_autoscale(self) -> None:
        """One autoscaler observation (once per supervisor sweep).

        Observing on the sweep keeps planning off the request path: its
        cost is per sweep, not per request or per batch, and
        ``scale_patience`` counts sweeps.  A fixed fleet
        (``min_workers == max_workers``) cannot resize, so it observes
        nothing.  ``autoscale_mode="model"`` plans the worker target
        from first principles — the M/G/k capacity planner at the
        *measured* arrival rate and service profile, times
        ``fault_headroom`` while any circuit breaker is open — and only
        falls back to the queue-depth heuristic until enough
        observations calibrate it.
        """
        cfg = self.control.config
        if self._closed or cfg.min_workers == cfg.max_workers:
            return
        if cfg.autoscale_mode == "model":
            planned = self._plan_workers(cfg)
            if planned is not None:
                if any(
                    b.state == "open" for b in self._breakers.values()
                ):
                    planned = math.ceil(planned * cfg.fault_headroom)
                planned = min(planned, cfg.max_workers)
                target = self._autoscaler.decide_target(
                    target=planned,
                    workers=self._target_workers,
                    now=time.monotonic(),
                )
                if target is not None and target != self._target_workers:
                    self._resize(target, reason="autoscale-model")
                # published after the resize: whoever reads this plan in
                # stats also reads the worker target it already steered
                with self._stats_lock:
                    self._planned_workers = planned
                return
        with self._stats_lock:
            estimates = [
                s for s in self._service_s.values() if s is not None
            ]
        service_s = (
            sum(estimates) / len(estimates) if estimates else None
        )
        target = self._autoscaler.decide(
            queue_depth=len(self.queue),
            workers=self._target_workers,
            service_s=service_s,
            now=time.monotonic(),
        )
        if target is not None and target != self._target_workers:
            self._resize(target, reason="autoscale")

    def _plan_workers(self, cfg: FleetConfig) -> int | None:
        """The planner's worker target, or ``None`` while uncalibrated.

        Measures the arrival rate over the recent admission instants,
        parameterizes a :class:`ServiceProfile` from the recent batch
        spans, and asks :func:`plan_capacity` for the smallest fleet
        meeting the config's deadline SLO — the ROADMAP's "feed the
        planner's answer back" loop.  Returns ``None`` (heuristic
        fallback) below the observation floors, so a cold fleet never
        steers by an unmeasured model.
        """
        with self._stats_lock:
            admits = tuple(self._admit_times)
            spans = tuple(self._span_history)
        if (
            len(admits) < MODEL_MIN_ARRIVALS
            or len(spans) < MODEL_MIN_BATCHES
        ):
            return None
        window = admits[-1] - admits[0]
        if window <= 0:
            return None
        rate = (len(admits) - 1) / window
        profile = ServiceProfile(
            spans_s=tuple(sorted(s for s, _ in spans)),
            mean_batch_size=max(
                1.0, sum(n for _, n in spans) / len(spans)
            ),
        )
        deadline_s = cfg.default_deadline_s
        slo = SLOTarget(
            p95_latency_s=deadline_s,
            deadline_hit_rate=cfg.autoscale_hit_rate,
            deadline_s=deadline_s,
        )
        try:
            plan = plan_capacity(
                arrival_rate_rps=rate,
                profile=profile,
                slo=slo,
                max_workers=cfg.max_workers,
            )
        except ServingError:
            return None
        # infeasible plans still return max_workers — the best the
        # config allows, and exactly what a storm wants deployed
        return plan.workers

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        x: np.ndarray | None = None,
        *,
        tenant: str = "default",
        feeds: Mapping[str, np.ndarray] | None = None,
        deadline_s: float | None = None,
    ) -> Ticket:
        """Admit one request; returns a :class:`Ticket` future.

        Validation happens here, at admission — a malformed request is
        the submitter's error and must never poison the co-batched
        requests of other callers.  The deadline default comes from the
        tenant's policy, falling back to the fleet default.
        """
        if self._closed:
            raise ServingError("dispatcher is closed; no new requests")
        try:
            session = self.sessions[tenant]
        except KeyError:
            raise ServingError(
                f"unknown tenant {tenant!r}; registered: "
                f"{sorted(self.sessions)}"
            ) from None
        feeds = self._validate(session, x, feeds, tenant)
        if deadline_s is None:
            policy = self.control.config.policy(tenant)
            deadline_s = (
                policy.deadline_s
                if policy.deadline_s is not None
                else self.control.config.default_deadline_s
            )
        if deadline_s <= 0:
            raise ServingError(
                f"deadline_s must be positive, got {deadline_s}"
            )
        now = time.monotonic()
        ticket = Ticket(
            tenant=tenant, feeds=feeds, request_seq=next(self._seq),
            enqueue_t=now, deadline_t=now + deadline_s,
        )
        self.queue.put(ticket)  # AdmissionError propagates to the caller
        # counters only move once the request is actually admitted, so a
        # rejected burst neither inflates `submitted` nor starts the
        # throughput wall clock
        with self._submit_lock:
            self._admitted += 1
            if self._first_submit_t is None:
                self._first_submit_t = now
            self._admit_times.append(now)
        # every admission deposits retry allowance: the budget is a
        # ratio of real work, not wall clock
        self._retry_budget.note_admitted()
        return ticket

    def run_many(
        self,
        requests: Sequence,
        *,
        tenant: str = "default",
        deadline_s: float | None = None,
        timeout: float = 60.0,
    ) -> list[DispatchResult]:
        """Submit a closed-loop burst and wait; results in request order.

        Each element is an input array or a feeds mapping (as in
        :meth:`Session.run_batch`), or a ``(tenant, request)`` pair for
        mixed-tenant bursts.
        """
        tickets = []
        for req in requests:
            if isinstance(req, tuple) and len(req) == 2:
                req_tenant, payload = req
            else:
                req_tenant, payload = tenant, req
            if isinstance(payload, Mapping):
                tickets.append(
                    self.submit(
                        tenant=req_tenant, feeds=payload,
                        deadline_s=deadline_s,
                    )
                )
            else:
                tickets.append(
                    self.submit(
                        payload, tenant=req_tenant, deadline_s=deadline_s
                    )
                )
        return [t.result(timeout) for t in tickets]

    @staticmethod
    def _validate(session, x, feeds, tenant) -> Mapping[str, np.ndarray]:
        graph = session.compiled.graph
        if (x is None) == (feeds is None):
            raise ServingError(
                f"tenant {tenant!r}: pass exactly one of x or feeds"
            )
        if feeds is None:
            if len(graph.inputs) != 1:
                raise ServingError(
                    f"tenant {tenant!r}: model {graph.name!r} has inputs "
                    f"{graph.inputs}; pass a feeds mapping"
                )
            feeds = {graph.inputs[0]: np.asarray(x)}
        missing = [n for n in graph.inputs if n not in feeds]
        if missing:
            raise ServingError(
                f"tenant {tenant!r}: request is missing feeds for "
                f"{missing}"
            )
        for name in graph.inputs:
            try:
                session.compiled.check_feed(name, feeds[name])
            except ShapeError as exc:
                raise ServingError(f"tenant {tenant!r}: {exc}") from None
        return feeds

    # ------------------------------------------------------------------ #
    # workers
    # ------------------------------------------------------------------ #
    def _serve_batch(self, worker_id: int, batch: list[Ticket]) -> None:
        """Execute one formed micro-batch (called from ``_worker_entry``).

        The happy path is one co-batched session dispatch.  On failure
        the batch is **quarantined**: each member is re-run in
        isolation (with the config's retry/backoff budgeted against its
        deadline), so only the offending request(s) fail — with a typed
        :class:`RequestFailedError` — while innocents still succeed.
        Every attempt feeds the tenant's circuit breaker, which may
        degrade the execution backend for subsequent batches (bit-exact
        by construction, so degradation never shows in outputs).
        """
        tenant = batch[0].tenant
        breaker = self._breakers[tenant]
        execution, probe = breaker.plan_execution()
        t0 = time.monotonic()
        try:
            served, t1 = self._execute_once(
                tenant, batch, attempt=0, execution=execution
            )
        except WorkerCrashError:
            # a whole-worker crash, not a request fault: let it escape —
            # the worker-entry safety net fails the batch and the
            # supervisor respawns the thread
            raise
        except BaseException as exc:  # noqa: BLE001 — quarantined below
            # the failed attempt still took real service time; feeding
            # it into the EWMA keeps the drain model honest for tenants
            # whose requests always fault
            self._note_failure(tenant, time.monotonic() - t0)
            self._breaker_event(
                tenant, breaker.record(False, probe=probe)
            )
            self._quarantine(worker_id, tenant, batch, exc)
            return
        self._breaker_event(tenant, breaker.record(True, probe=probe))
        self._complete(worker_id, tenant, batch, served, t0, t1)

    def _execute_once(
        self,
        tenant: str,
        tickets: list[Ticket],
        *,
        attempt: int,
        execution: str | None,
    ) -> tuple[list[RequestResult], float]:
        """One dispatch attempt for ``tickets``; returns ``(served, t1)``.

        Fires the ``"dispatch.request"`` fault point once per ticket
        (keyed by request seq, so a poisoned request poisons every
        batch it lands in — the quarantine invariant), then runs the
        batch through the tenant session under the fault scope.
        """
        session = self.sessions[tenant]
        injector = self._faults
        if injector is not None:
            for t in tickets:
                injector.fire(
                    "dispatch.request",
                    key=t.request_seq,
                    tenant=tenant,
                    attempt=attempt,
                )
            with _faults.scope(
                injector,
                tenant=tenant,
                key=tickets[0].request_seq,
                attempt=attempt,
            ):
                served = session.run_batch(
                    [t.feeds for t in tickets], execution=execution
                )
            t1 = time.monotonic()
        else:
            served = session.run_batch(
                [t.feeds for t in tickets], execution=execution
            )
            t1 = time.monotonic()
        return served, t1

    def _quarantine(
        self,
        worker_id: int,
        tenant: str,
        batch: list[Ticket],
        batch_exc: BaseException,
    ) -> None:
        """Re-run a failed batch's members individually (poison isolation)."""
        with self._stats_lock:
            self._tenant_stats[tenant].quarantined += len(batch)
        self.control.record(
            "quarantine",
            f"worker {worker_id}: batch of {len(batch)} for "
            f"{tenant!r} quarantined after {batch_exc!r}",
        )
        for ticket in batch:
            self._serve_single(worker_id, tenant, ticket, batch_exc)

    def _serve_single(
        self,
        worker_id: int,
        tenant: str,
        ticket: Ticket,
        batch_exc: BaseException,
    ) -> None:
        """Isolation attempts for one quarantined ticket.

        Attempt numbering is shared with the fault plan: the failed
        batch run was attempt 0, isolation runs are 1, 2, ... — so a
        spec with ``fail_attempts=1`` models a transient fault that the
        first isolation re-run survives.  Backoff sleeps are budgeted
        against the ticket's remaining deadline: a retry that could not
        finish in time is not attempted at all.
        """
        breaker = self._breakers[tenant]
        retry = self.config.retry
        last_exc = batch_exc
        attempts = 0
        for k in range(1, retry.max_attempts + 1):
            if k > 1:
                delay = retry.backoff(k, key=ticket.request_seq)
                est = self._service_s.get(tenant) or 0.0
                budget = ticket.deadline_t - time.monotonic()
                if delay + est > max(0.0, budget):
                    break
                if not self._retry_budget.allow():
                    # fleet-wide retry budget exhausted: fail this
                    # request now rather than let a storm amplify
                    # itself through the retry path (the first
                    # isolation run above was still mandatory)
                    with self._stats_lock:
                        self._retry_denied += 1
                        first_denial = self._retry_denied == 1
                    if first_denial:
                        snap = self._retry_budget.snapshot
                        self.control.record(
                            "retry-budget",
                            f"retry budget exhausted after "
                            f"{snap['granted']:.0f} grant(s) "
                            f"(ratio {snap['ratio']:.3f}, burst "
                            f"{snap['burst']:.0f}); denying further "
                            "retries until admissions refill it",
                        )
                    break
                if delay > 0:
                    time.sleep(delay)
                with self._stats_lock:
                    self._retries += 1
            attempts = k
            execution, probe = breaker.plan_execution()
            t0 = time.monotonic()
            try:
                served, t1 = self._execute_once(
                    tenant, [ticket], attempt=k, execution=execution
                )
            except WorkerCrashError:
                raise
            except BaseException as exc:  # noqa: BLE001 — retried/failed
                last_exc = exc
                self._note_failure(tenant, time.monotonic() - t0)
                self._breaker_event(
                    tenant, breaker.record(False, probe=probe)
                )
                continue
            self._breaker_event(
                tenant, breaker.record(True, probe=probe)
            )
            self._complete(worker_id, tenant, [ticket], served, t0, t1)
            return
        error = RequestFailedError(
            tenant,
            ticket.request_seq,
            attempts + 1,  # the batch attempt plus the isolation runs
            cause=last_exc,
            detail="quarantined after a failed batch",
        )
        with self._stats_lock:
            self._tenant_stats[tenant].failed += 1
        ticket._fail(error)

    def _complete(
        self,
        worker_id: int,
        tenant: str,
        batch: list[Ticket],
        served: list[RequestResult],
        t0: float,
        t1: float,
    ) -> None:
        """Success bookkeeping + fulfillment for one dispatch attempt."""
        service_s = t1 - t0
        with self._stats_lock:
            prev = self._service_s[tenant]
            self._service_s[tenant] = (
                service_s
                if prev is None
                else 0.5 * prev + 0.5 * service_s
            )
            self._span_history.append((service_s, len(batch)))
            self._last_done_t = t1
            ts = self._tenant_stats[tenant]
            ts.batches += 1
            ts.requests += len(batch)
            for ticket in batch:
                ts.latencies_s.append(t1 - ticket.enqueue_t)
                if t1 <= ticket.deadline_t:
                    ts.deadline_hits += 1
                else:
                    ts.deadline_misses += 1
        for ticket, rr in zip(batch, served):
            ticket._fulfill(
                DispatchResult(
                    result=rr,
                    tenant=tenant,
                    worker=worker_id,
                    queue_wait_s=t0 - ticket.enqueue_t,
                    latency_s=t1 - ticket.enqueue_t,
                    deadline_met=t1 <= ticket.deadline_t,
                    admit_t=ticket.enqueue_t,
                    start_t=t0,
                    complete_t=t1,
                )
            )

    def _note_failure(self, tenant: str, service_s: float) -> None:
        """Fold a *failed* attempt's duration into the EWMA estimate.

        Without this, a tenant whose requests always fault would freeze
        the estimate at its last healthy value and starve the
        autoscaler's drain model of the real (wasted) service time.
        """
        with self._stats_lock:
            prev = self._service_s[tenant]
            self._service_s[tenant] = (
                service_s
                if prev is None
                else 0.5 * prev + 0.5 * service_s
            )

    def _breaker_event(
        self, tenant: str, transition: str | None
    ) -> None:
        """Audit a circuit-breaker state change (``None`` = no change)."""
        if transition is None:
            return
        breaker = self._breakers[tenant]
        if transition == "open":
            self.control.record(
                "degrade",
                f"tenant {tenant!r}: circuit opened after repeated "
                f"failures; {breaker.primary!r} -> {breaker.fallback!r} "
                "(bit-exact, wall clock only)",
            )
        else:
            self.control.record(
                "restore",
                f"tenant {tenant!r}: probe succeeded; "
                f"{breaker.primary!r} restored",
            )

    def _worker_died(
        self, worker_id: int, batch: list[Ticket], exc: BaseException
    ) -> None:
        """Last rites for a worker dying mid-batch (called by the worker).

        Fails whatever tickets the batch still owes — a waiter must
        never hang on a thread that no longer exists — and audits the
        death.  Respawning is the supervisor's job.
        """
        pending = [t for t in batch if not t.done()]
        if pending:
            error = ServingError(
                f"worker {worker_id} crashed mid-batch ({exc!r}); "
                f"{len(pending)} request(s) were lost with it"
            )
            error.__cause__ = exc
            with self._stats_lock:
                for t in pending:
                    self._tenant_stats[t.tenant].failed += 1
            for t in pending:
                t._fail(error)
        self.control.record(
            "crash",
            f"worker {worker_id} died serving {batch[0].tenant!r}: "
            f"{exc!r} ({len(pending)} request(s) lost)",
        )

    # ------------------------------------------------------------------ #
    # lifecycle / introspection
    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> DispatchStats:
        """A consistent snapshot of the dispatcher's counters."""
        with self._stats_lock:
            per_tenant = {
                t: replace(ts, latencies_s=tuple(ts.latencies_s))
                for t, ts in self._tenant_stats.items()
            }
            wall = 0.0
            if self._first_submit_t is not None and self._last_done_t:
                wall = max(0.0, self._last_done_t - self._first_submit_t)
            return DispatchStats(
                submitted=self._admitted,
                rejected=self.queue.rejected,
                completed=sum(t.requests for t in per_tenant.values()),
                failed=sum(t.failed for t in per_tenant.values()),
                batches=sum(t.batches for t in per_tenant.values()),
                peak_queue_depth=self.queue.peak_depth,
                wall_s=wall,
                per_tenant=per_tenant,
                plan_cache=self.plan_cache.stats,
                shed=self.queue.shed,
                workers=self._target_workers,
                config_epoch=self.control.epoch,
                audit=self.control.audit(),
                quarantined=sum(
                    t.quarantined for t in per_tenant.values()
                ),
                retries=self._retries,
                retry_denied=self._retry_denied,
                retry_budget=self._retry_budget.snapshot,
                planned_workers=self._planned_workers,
                worker_crashes=self._worker_crashes,
                degraded={
                    t: b.fallback
                    for t, b in self._breakers.items()
                    if b.state == "open"
                },
                unjoined_workers=self._unjoined_workers,
            )

    def close(self, timeout: float | None = 30.0) -> tuple[int, ...]:
        """Drain the queue, stop the workers and the supervisor.

        ``timeout`` is one **shared** deadline for the whole fleet, not
        a per-thread allowance (N threads each granted 30 s would make
        the worst-case close N x 30 s).  Workers drain what is already
        queued before exiting; any ticket still queued once the
        deadline passes is *failed* with :class:`ServingError` — a
        waiter must never deadlock on a dispatcher that shut down.
        Returns the ids of workers that failed to join in time (also
        surfaced as ``stats.unjoined_workers`` and audited); empty on a
        clean close.
        """
        if self._closed:
            return self._unjoined_workers
        self._closed = True
        self._supervisor_stop.set()
        self.queue.close()
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        with self._scale_lock:
            threads = dict(self._threads)
        unjoined = []
        for wid, th in threads.items():
            if deadline is None:
                th.join()
            else:
                th.join(max(0.0, deadline - time.monotonic()))
            if th.is_alive():
                unjoined.append(wid)
        self._unjoined_workers = tuple(unjoined)
        if unjoined:
            self.control.record(
                "close",
                f"worker{'s' if len(unjoined) != 1 else ''} {unjoined} "
                f"failed to join within {timeout}s",
            )
        # whatever is still queued now has no worker left to serve it
        leftovers = self.queue.drain()
        if leftovers:
            with self._stats_lock:
                for t in leftovers:
                    self._tenant_stats[t.tenant].failed += 1
            error = ServingError(
                "dispatcher closed before this request could be "
                "served; submit to a live dispatcher (or close with a "
                "longer timeout to let the queue drain)"
            )
            for t in leftovers:
                t._fail(error)
        self._finalizer()  # idempotent: supervisor + queue teardown
        return self._unjoined_workers

    def __enter__(self) -> "Dispatcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
