"""Declarative control plane for the serving dispatcher.

The data plane (queue → batch former → worker shards → sessions) stays
bit-exact whatever happens; this module owns everything *operational*
about it, as one small declarative model instead of ad-hoc setters:

* :class:`TenantPolicy` — per-tenant QoS: scheduling ``weight``,
  ``priority`` class, default ``deadline_s``, admission ``quota``;
* :class:`FleetConfig` — the whole fleet: the tenant policy map plus
  batching, admission and autoscaling knobs and the ``min_workers`` /
  ``max_workers`` range;
* :class:`ControlPlane` — validated atomic swap of the live config with
  a subscriber protocol (:class:`ConfigSubscriber`) and an audit trail
  of :class:`ConfigChange` records, surfaced in ``Dispatcher.stats``;
* :class:`Autoscaler` — a pure decision function growing/shrinking the
  worker pool from queue depth and the per-tenant EWMA service
  estimates the queue already tracks, consulted once per supervisor
  sweep.

The shape follows the config/state/action split of network-element
configuration daemons: consumers *subscribe* to config changes and
re-derive their behavior from the new declarative state, so a change to
tenant weights, priorities, quotas, deadlines or worker counts lands on
a **live** dispatcher — no restart, no torn intermediate state, every
change validated first and recorded in the audit trail.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Protocol, runtime_checkable

from repro.errors import ConfigError
from repro.serving.faults import stable_uniform

__all__ = [
    "TenantPolicy",
    "DEFAULT_POLICY",
    "RetryPolicy",
    "FleetConfig",
    "ConfigChange",
    "ConfigSubscriber",
    "ControlPlane",
    "Autoscaler",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Deadline-aware retry with exponential backoff + deterministic jitter.

    Governs the dispatcher's quarantine path: after a batch faults, each
    member request is re-run in isolation up to ``max_attempts`` times.
    Between attempts the worker sleeps :meth:`backoff` seconds —
    exponential in the attempt number, jittered by a *deterministic*
    hash draw (:func:`~repro.serving.faults.stable_uniform` over the
    request key), and always budgeted against the ticket's remaining
    deadline: a retry that could not finish in time is not attempted.

    ``max_attempts=1`` (the default) means one isolation run and no
    backoff sleeps — quarantine itself is not optional, only the extra
    attempts are.
    """

    #: total isolation attempts per quarantined request (>= 1)
    max_attempts: int = 1
    #: sleep before attempt 2 (seconds); doubles-by-``multiplier`` after
    backoff_s: float = 0.002
    #: exponential growth factor between attempts
    multiplier: float = 2.0
    #: jitter fraction: each sleep is scaled by ``1 ± jitter`` via a
    #: deterministic per-(key, attempt) draw
    jitter: float = 0.5

    def validate(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(
                f"retry.max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_s < 0:
            raise ConfigError(
                f"retry.backoff_s must be >= 0, got {self.backoff_s}"
            )
        if self.multiplier < 1.0:
            raise ConfigError(
                f"retry.multiplier must be >= 1, got {self.multiplier}"
            )
        if not (0.0 <= self.jitter <= 1.0):
            raise ConfigError(
                f"retry.jitter must be in [0, 1], got {self.jitter}"
            )

    def backoff(self, attempt: int, key: int = 0) -> float:
        """Sleep before isolation attempt ``attempt`` (2-based).

        Deterministic: the jitter draw depends only on ``(key,
        attempt)``, so a chaos run's recovery timeline replays exactly.
        """
        if attempt <= 1 or self.backoff_s <= 0:
            return 0.0
        base = self.backoff_s * self.multiplier ** (attempt - 2)
        if self.jitter <= 0:
            return base
        u = stable_uniform(0, "retry.backoff", key, attempt)
        return base * (1.0 + self.jitter * (2.0 * u - 1.0))


@dataclass(frozen=True)
class TenantPolicy:
    """Per-tenant quality-of-service policy.

    Attributes
    ----------
    weight:
        Scheduling weight among tenants of the same priority class; a
        weight-2 tenant receives ~2x the batch slots of a weight-1
        tenant under contention (stride scheduling in the batch former).
    priority:
        Priority class; higher classes are always scheduled before
        lower ones, and load shedding evicts the lowest class first.
    deadline_s:
        Default deadline for this tenant's requests when ``submit`` does
        not pass one (falls back to the fleet ``default_deadline_s``).
    quota:
        Admission quota: at most this many of the tenant's requests may
        be queued at once (``None`` = only the global depth bound).
    """

    weight: float = 1.0
    priority: int = 0
    deadline_s: float | None = None
    quota: int | None = None

    def validate(self, tenant: str) -> None:
        """Raise :class:`ConfigError` unless the policy is servable."""
        if not (self.weight > 0 and math.isfinite(self.weight)):
            raise ConfigError(
                f"tenant {tenant!r}: weight must be a positive finite "
                f"number, got {self.weight}"
            )
        if not isinstance(self.priority, int):
            raise ConfigError(
                f"tenant {tenant!r}: priority must be an int class, "
                f"got {self.priority!r}"
            )
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ConfigError(
                f"tenant {tenant!r}: deadline_s must be positive, "
                f"got {self.deadline_s}"
            )
        if self.quota is not None and self.quota <= 0:
            raise ConfigError(
                f"tenant {tenant!r}: quota must be positive (or None "
                f"for unbounded), got {self.quota}"
            )


#: the policy of any tenant the config does not name explicitly
DEFAULT_POLICY = TenantPolicy()

#: batch-former scheduling disciplines a config may select
SCHEDULING_MODES = ("weighted", "fifo")

#: autoscaler policies a config may select
AUTOSCALE_MODES = ("heuristic", "model")


@dataclass(frozen=True)
class FleetConfig:
    """Declarative configuration of one dispatcher fleet.

    Immutable: reconfiguration builds a new instance (:meth:`evolve`,
    :meth:`with_tenant`) and applies it atomically via
    ``Dispatcher.apply_config``.  Every consumer re-reads the current
    config on each decision, so a swap takes effect at the next batch
    boundary without touching in-flight work.
    """

    #: per-tenant QoS policies; unnamed tenants get :data:`DEFAULT_POLICY`
    tenants: Mapping[str, TenantPolicy] = field(default_factory=dict)
    #: autoscaler range (equal values pin the fleet size)
    min_workers: int = 1
    max_workers: int = 4
    #: micro-batch size cap / flush trigger
    max_batch: int = 8
    #: global admission-control bound on queued requests
    max_queue_depth: int = 256
    #: deadline for requests whose tenant policy sets none
    default_deadline_s: float = 0.5
    #: longest the batch former holds a head request for co-batching.
    #: ``0`` (the default) is work-conserving: an idle worker takes up to
    #: ``max_batch`` of its chosen tenant's queue at once, and batches
    #: still form under load because requests queue while workers are busy
    batch_timeout_s: float = 0.0
    #: batch former discipline: ``"weighted"`` (priority classes, then
    #: weighted stride among the class) or ``"fifo"`` (head-tenant
    #: arrival order, the pre-control-plane behavior)
    scheduling: str = "weighted"
    #: scale up when the per-worker backlog exceeds this many batches
    scale_up_backlog: float = 1.0
    #: scale down while backlog would fit this many batches per worker
    #: on one fewer worker
    scale_down_backlog: float = 0.25
    #: consecutive low-load autoscaler observations required before
    #: shrinking; the dispatcher observes once per supervisor sweep, so
    #: this counts sweeps (``scale_patience x supervise_interval_s``)
    scale_patience: int = 3
    #: minimum seconds between autoscaler resizes
    scale_cooldown_s: float = 0.05
    #: quarantine retry policy (isolation attempts, backoff, jitter)
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: consecutive per-(tenant, backend) failures that open the circuit
    #: breaker and degrade the session's execution backend
    breaker_threshold: int = 4
    #: seconds an open breaker waits before probing the primary backend
    breaker_cooldown_s: float = 0.5
    #: supervisor sweep period: each sweep respawns dead workers, then
    #: makes the fleet's one autoscaler observation (elastic fleets)
    supervise_interval_s: float = 0.05
    #: fleet-wide retry budget: retries beyond the mandatory quarantine
    #: isolation run may never exceed ``retry_budget_burst +
    #: retry_budget_ratio x admitted`` (0.0 = no budgeted retries)
    retry_budget_ratio: float = 0.1
    #: retry tokens available before any request has been admitted
    retry_budget_burst: int = 8
    #: autoscaler policy: ``"heuristic"`` (queue-depth/EWMA backlog) or
    #: ``"model"`` (M/G/k capacity planning from the measured arrival
    #: rate, falling back to the heuristic until calibrated)
    autoscale_mode: str = "heuristic"
    #: deadline-hit-rate target the model-driven autoscaler plans for
    autoscale_hit_rate: float = 0.99
    #: worker-target multiplier while any circuit breaker is open —
    #: degraded backends are slower, so plan headroom for the storm
    fault_headroom: float = 1.25

    def policy(self, tenant: str) -> TenantPolicy:
        """The tenant's policy (:data:`DEFAULT_POLICY` if unnamed)."""
        return self.tenants.get(tenant, DEFAULT_POLICY)

    def validate(self) -> None:
        """Raise :class:`ConfigError` on the first invalid field."""
        for tenant, policy in self.tenants.items():
            if not isinstance(policy, TenantPolicy):
                raise ConfigError(
                    f"tenant {tenant!r}: expected a TenantPolicy, "
                    f"got {type(policy).__name__}"
                )
            policy.validate(tenant)
        if self.min_workers <= 0:
            raise ConfigError(
                f"min_workers must be positive, got {self.min_workers}"
            )
        if self.max_workers < self.min_workers:
            raise ConfigError(
                f"max_workers ({self.max_workers}) must be >= "
                f"min_workers ({self.min_workers})"
            )
        if self.max_batch <= 0:
            raise ConfigError(
                f"max_batch must be positive, got {self.max_batch}"
            )
        if self.max_queue_depth <= 0:
            raise ConfigError(
                f"max_queue_depth must be positive, "
                f"got {self.max_queue_depth}"
            )
        if not self.default_deadline_s > 0:
            raise ConfigError(
                f"default_deadline_s must be positive, "
                f"got {self.default_deadline_s}"
            )
        if self.batch_timeout_s < 0:
            raise ConfigError(
                f"batch_timeout_s must be >= 0, got {self.batch_timeout_s}"
            )
        if self.scheduling not in SCHEDULING_MODES:
            raise ConfigError(
                f"unknown scheduling {self.scheduling!r}; "
                f"use one of {SCHEDULING_MODES}"
            )
        if self.scale_up_backlog <= 0 or self.scale_down_backlog < 0:
            raise ConfigError(
                "scale_up_backlog must be > 0 and scale_down_backlog >= 0"
            )
        if self.scale_patience <= 0 or self.scale_cooldown_s < 0:
            raise ConfigError(
                "scale_patience must be > 0 and scale_cooldown_s >= 0"
            )
        if not isinstance(self.retry, RetryPolicy):
            raise ConfigError(
                f"retry must be a RetryPolicy, "
                f"got {type(self.retry).__name__}"
            )
        self.retry.validate()
        if self.breaker_threshold <= 0:
            raise ConfigError(
                f"breaker_threshold must be positive, "
                f"got {self.breaker_threshold}"
            )
        if self.breaker_cooldown_s < 0:
            raise ConfigError(
                f"breaker_cooldown_s must be >= 0, "
                f"got {self.breaker_cooldown_s}"
            )
        if not self.supervise_interval_s > 0:
            raise ConfigError(
                f"supervise_interval_s must be positive, "
                f"got {self.supervise_interval_s}"
            )
        if not (0.0 <= self.retry_budget_ratio <= 1.0):
            raise ConfigError(
                f"retry_budget_ratio must be in [0, 1], "
                f"got {self.retry_budget_ratio}"
            )
        if self.retry_budget_burst < 0:
            raise ConfigError(
                f"retry_budget_burst must be >= 0, "
                f"got {self.retry_budget_burst}"
            )
        if self.autoscale_mode not in AUTOSCALE_MODES:
            raise ConfigError(
                f"unknown autoscale_mode {self.autoscale_mode!r}; "
                f"use one of {AUTOSCALE_MODES}"
            )
        if not (0.0 < self.autoscale_hit_rate <= 1.0):
            raise ConfigError(
                f"autoscale_hit_rate must be in (0, 1], "
                f"got {self.autoscale_hit_rate}"
            )
        if self.fault_headroom < 1.0:
            raise ConfigError(
                f"fault_headroom must be >= 1, got {self.fault_headroom}"
            )

    # -- functional update helpers -------------------------------------- #
    def evolve(self, **changes) -> "FleetConfig":
        """A copy with ``changes`` applied (the config stays immutable)."""
        return replace(self, **changes)

    def with_tenant(self, tenant: str, **policy_changes) -> "FleetConfig":
        """A copy with one tenant's policy fields updated."""
        tenants = dict(self.tenants)
        tenants[tenant] = replace(self.policy(tenant), **policy_changes)
        return replace(self, tenants=tenants)

    def diff(self, old: "FleetConfig | None") -> tuple[str, ...]:
        """Human-readable field-level differences vs ``old``."""
        if old is None:
            return (f"initial config: {self.summary()}",)
        lines: list[str] = []
        for name in (
            "min_workers", "max_workers", "max_batch", "max_queue_depth",
            "default_deadline_s", "batch_timeout_s", "scheduling",
            "scale_up_backlog", "scale_down_backlog", "scale_patience",
            "scale_cooldown_s", "retry", "retry_budget_ratio",
            "retry_budget_burst", "autoscale_mode", "autoscale_hit_rate",
            "fault_headroom", "breaker_threshold",
            "breaker_cooldown_s", "supervise_interval_s",
        ):
            a, b = getattr(old, name), getattr(self, name)
            if a != b:
                lines.append(f"{name}: {a} -> {b}")
        for tenant in sorted(set(old.tenants) | set(self.tenants)):
            a, b = old.policy(tenant), self.policy(tenant)
            if a != b:
                lines.append(f"tenant {tenant!r}: {a} -> {b}")
        return tuple(lines) if lines else ("no changes",)

    def summary(self) -> str:
        """One-line description for audit records."""
        return (
            f"workers {self.min_workers}..{self.max_workers}, "
            f"max_batch {self.max_batch}, depth {self.max_queue_depth}, "
            f"scheduling {self.scheduling!r}, "
            f"{len(self.tenants)} tenant polic"
            f"{'y' if len(self.tenants) == 1 else 'ies'}"
        )


@dataclass(frozen=True)
class ConfigChange:
    """One audit-trail entry: a config swap or a fleet resize."""

    #: config epoch after this change (0 = construction)
    epoch: int
    #: monotonic-clock instant the change was applied
    at_s: float
    #: ``"config"`` (apply_config), ``"scale"`` (resize) or ``"init"``
    kind: str
    #: human-readable what-changed lines
    summary: tuple[str, ...]


@runtime_checkable
class ConfigSubscriber(Protocol):
    """Anything that re-derives behavior from the declarative config."""

    def apply_config(
        self, old: FleetConfig | None, new: FleetConfig
    ) -> None:
        """Adopt ``new``; must not fail (configs are pre-validated)."""
        ...  # pragma: no cover — protocol


class ControlPlane:
    """Validated, atomic, audited ownership of the live config.

    ``apply`` validates the candidate config *before* touching anything,
    then swaps it and notifies every subscriber in subscription order
    under one lock — a reader never observes half a reconfiguration.
    The bounded audit trail records every swap (and, via
    :meth:`record`, every fleet event: a resize made on the supervisor's
    sweep or by a narrowed worker range, a crash, a quarantine, a
    breaker transition) for ``stats``.  Swaps and records may come from
    any thread.
    """

    def __init__(
        self,
        config: FleetConfig,
        *,
        now: Callable[[], float] = time.monotonic,
        audit_limit: int = 256,
    ):
        config.validate()
        self._now = now
        self._lock = threading.Lock()
        self._subscribers: list[ConfigSubscriber] = []
        self._config = config
        self._epoch = 0
        self._audit: deque[ConfigChange] = deque(maxlen=audit_limit)
        self._audit.append(
            ConfigChange(
                epoch=0, at_s=now(), kind="init",
                summary=config.diff(None),
            )
        )

    @property
    def config(self) -> FleetConfig:
        """The live config (an immutable snapshot; reads need no lock)."""
        return self._config

    @property
    def epoch(self) -> int:
        """How many reconfigurations have been applied."""
        return self._epoch

    def subscribe(self, subscriber: ConfigSubscriber) -> None:
        """Register for future swaps and replay the current config."""
        with self._lock:
            self._subscribers.append(subscriber)
            subscriber.apply_config(None, self._config)

    def apply(self, new: FleetConfig) -> ConfigChange:
        """Validate, atomically swap, notify subscribers, audit.

        A :class:`ConfigError` leaves the previous config fully in
        force.  Applying an identical config is a recorded no-op (the
        epoch still advances, so callers can fence on it).
        """
        if not isinstance(new, FleetConfig):
            raise ConfigError(
                f"apply_config expects a FleetConfig, "
                f"got {type(new).__name__}"
            )
        new.validate()
        with self._lock:
            old = self._config
            self._config = new
            for subscriber in self._subscribers:
                subscriber.apply_config(old, new)
            self._epoch += 1
            change = ConfigChange(
                epoch=self._epoch, at_s=self._now(), kind="config",
                summary=new.diff(old),
            )
            self._audit.append(change)
            return change

    def record(self, kind: str, *summary: str) -> ConfigChange:
        """Append a non-config audit event (e.g. an autoscaler resize)."""
        with self._lock:
            change = ConfigChange(
                epoch=self._epoch, at_s=self._now(), kind=kind,
                summary=tuple(summary),
            )
            self._audit.append(change)
            return change

    def audit(self) -> tuple[ConfigChange, ...]:
        """The audit trail, oldest first (bounded to ``audit_limit``)."""
        with self._lock:
            return tuple(self._audit)


class Autoscaler:
    """Worker-count decisions from queue depth and service estimates.

    Stateless about the fleet itself — the dispatcher feeds every
    observation in and applies the returned target — so the policy is
    unit-testable with synthetic load and injected clocks.  The
    dispatcher observes once per supervisor sweep
    (``supervise_interval_s``), never on submit or after a batch, so an
    observation costs the fleet per sweep, not per request.  Two
    signals:

    * **backlog**: queued batches per worker
      (``queue_depth / max_batch / workers``); above
      ``scale_up_backlog`` the fleet grows toward the depth that would
      bring it back under the threshold;
    * **drain time**: with a per-tenant EWMA service estimate available,
      the projected time to drain the backlog
      (``batches * service_s / workers``); if it exceeds half the
      default deadline, enough workers are requested to drain within
      that budget — capacity planning, not just thresholding.

    Shrinking needs ``scale_patience`` consecutive low-load
    observations (sweeps), and every resize respects
    ``scale_cooldown_s``; both guard against thrash on bursty arrivals.
    The ``min_workers`` / ``max_workers`` clamp is enforced immediately,
    cooldown or not, because it is a hard config bound rather than a
    load decision.
    """

    def __init__(self, config: FleetConfig | None = None):
        self._config = config if config is not None else FleetConfig()
        # decisions run on the dispatcher's supervisor thread, but
        # apply_config runs on whichever thread reconfigures the fleet;
        # the streak/cooldown bookkeeping must not be torn between them
        self._lock = threading.Lock()
        self._cool_until = 0.0
        self._low_streak = 0

    # -- ConfigSubscriber ----------------------------------------------- #
    def apply_config(
        self, old: FleetConfig | None, new: FleetConfig
    ) -> None:
        with self._lock:
            self._config = new
            self._low_streak = 0

    # -- decisions ------------------------------------------------------ #
    def desired_workers(
        self, *, queue_depth: int, service_s: float | None
    ) -> int:
        """Ideal fleet size for the observed load (before hysteresis)."""
        cfg = self._config
        backlog_batches = queue_depth / max(1, cfg.max_batch)
        if service_s is not None and service_s > 0:
            # drain the backlog within half the default deadline budget
            budget_s = 0.5 * cfg.default_deadline_s
            need = backlog_batches * service_s / max(budget_s, 1e-9)
        else:
            need = backlog_batches / cfg.scale_up_backlog
        return max(cfg.min_workers, min(cfg.max_workers, math.ceil(need)))

    def decide(
        self,
        *,
        queue_depth: int,
        workers: int,
        service_s: float | None,
        now: float,
    ) -> int | None:
        """New worker target, or ``None`` to leave the fleet alone.

        Serialized internally with :meth:`apply_config`, which resets
        the shrink streak from another thread, and with any second
        caller, which could otherwise pass the cooldown check twice.
        """
        with self._lock:
            cfg = self._config
            if workers < cfg.min_workers:
                return cfg.min_workers
            if workers > cfg.max_workers:
                return cfg.max_workers
            desired = self.desired_workers(
                queue_depth=queue_depth, service_s=service_s
            )
            if desired > workers:
                self._low_streak = 0
                if now < self._cool_until:
                    return None
                self._cool_until = now + cfg.scale_cooldown_s
                return desired
            backlog_batches = queue_depth / max(1, cfg.max_batch)
            fits_smaller = (
                workers > cfg.min_workers
                and backlog_batches
                <= cfg.scale_down_backlog * max(1, workers - 1)
            )
            if not fits_smaller:
                self._low_streak = 0
                return None
            self._low_streak += 1
            if (
                self._low_streak < cfg.scale_patience
                or now < self._cool_until
            ):
                return None
            self._low_streak = 0
            self._cool_until = now + cfg.scale_cooldown_s
            return workers - 1

    def decide_target(
        self, *, target: int, workers: int, now: float
    ) -> int | None:
        """Steer toward an externally planned worker target.

        The model-driven path: the dispatcher plans capacity from the
        measured arrival rate (:func:`repro.fleet.planner.plan_capacity`
        plus fault headroom) and hands the answer here, which applies
        the *same* clamp / cooldown / shrink-patience discipline as the
        heuristic — model and heuristic modes share one hysteresis, so
        switching modes live never double-fires a resize.  Growth jumps
        straight to the planned target (a storm wants capacity now);
        shrinking steps down one worker per patience streak.
        """
        with self._lock:
            cfg = self._config
            if workers < cfg.min_workers:
                return cfg.min_workers
            if workers > cfg.max_workers:
                return cfg.max_workers
            target = max(cfg.min_workers, min(cfg.max_workers, target))
            if target > workers:
                self._low_streak = 0
                if now < self._cool_until:
                    return None
                self._cool_until = now + cfg.scale_cooldown_s
                return target
            if target == workers:
                self._low_streak = 0
                return None
            self._low_streak += 1
            if (
                self._low_streak < cfg.scale_patience
                or now < self._cool_until
            ):
                return None
            self._low_streak = 0
            self._cool_until = now + cfg.scale_cooldown_s
            return workers - 1
