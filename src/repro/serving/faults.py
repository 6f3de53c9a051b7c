"""Seedable, deterministic fault injection for the serving layer.

The source paper's discipline for memory races — make the silent error
loud (:class:`~repro.errors.SegmentRaceError`) — applied to the whole
serving path: every failure mode the dispatcher claims to survive must
be *expressible* and *reproducible*, or the resilience code is untested
folklore.  This module is the expression half:

* a :class:`FaultPlan` declares faults against **named injection
  points** (:data:`SITES`) wired through the stack —
  ``"dispatch.request"`` per admitted request, ``"session.run_batch"``
  in :meth:`~repro.serving.session.Session.run_batch`,
  ``"backend.fast"`` / ``"backend.turbo"`` /
  ``"backend.turbo.gemm"`` inside the execution backends and
  ``"worker.loop"`` in the dispatcher's worker threads;
* a :class:`FaultInjector` evaluates the plan at each point.  Decisions
  are **pure hash draws** over ``(seed, site, key)`` — no mutable RNG
  state — so the same plan poisons the same request keys whether the
  request runs co-batched, quarantined in isolation or retried, on
  whichever worker thread;
* with no plan the whole subsystem is a no-op: every hook is a
  thread-local read and a ``None`` check.

Fault kinds: ``"error"`` raises
:class:`~repro.errors.InjectedFaultError` (the poison-request /
flaky-backend case), ``"crash"`` raises
:class:`~repro.errors.WorkerCrashError` (kills a worker thread),
``"hang"`` sleeps ``hang_s`` (a stuck dependency).

Deterministic helpers (:func:`stable_uniform`) are also what the retry
policy's jitter draws from, so a whole chaos run — faults, backoffs,
recovery order — replays bit-for-bit from one seed.
"""

from __future__ import annotations

import hashlib
import struct
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.errors import ConfigError, InjectedFaultError, WorkerCrashError

__all__ = [
    "SITES",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "stable_uniform",
    "scope",
    "active_injector",
    "perhaps",
]

#: the named injection points wired through the serving stack
SITES = (
    "dispatch.request",    # Dispatcher: once per ticket per attempt
    "session.run_batch",   # Session.run_batch entry (any caller)
    "backend.fast",        # FastBackend.run_pipeline_batch
    "backend.turbo",       # TurboBackend.run_pipeline_batch (inherited)
    "backend.turbo.gemm",  # turbo's GEMM work: once per native segment
                           # pass and per native pointwise/dense call, or
                           # in TurboBackend._gemm, the BLAS leaf, without
                           # the native leaves
    "worker.loop",         # dispatcher worker thread, before claiming work
)

#: fault kinds a spec may request
KINDS = ("error", "crash", "hang")


def stable_uniform(seed: int, *parts) -> float:
    """A deterministic uniform draw in ``[0, 1)`` from ``(seed, parts)``.

    Pure function of its arguments (blake2b over the repr) — identical
    across threads, processes and reruns, which is what lets a fault
    plan poison the *same* request keys wherever and however often they
    are re-executed, and lets retry jitter replay bit-for-bit.
    """
    payload = repr((seed,) + parts).encode()
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return struct.unpack("<Q", digest)[0] / 2.0**64


@dataclass(frozen=True)
class FaultSpec:
    """One declared fault against a named injection point.

    Attributes
    ----------
    site:
        Injection point name (one of :data:`SITES`).
    kind:
        ``"error"`` | ``"crash"`` | ``"hang"``.
    rate:
        Probability a matching draw fires, decided by
        :func:`stable_uniform` over ``(plan seed, site, key)`` — a key
        either is or is not poisoned, forever.
    keys:
        Restrict to specific context keys (request seqs at the request
        sites, worker ids at ``"worker.loop"``); ``None`` matches all.
    tenants:
        Restrict to specific tenants; ``None`` matches all.
    fail_attempts:
        Fire only while the context ``attempt`` is below this — models
        *transient* faults that succeed once quarantine/retry re-runs
        the request (``None`` = permanent: fires on every attempt).
    max_fires:
        Stop after this many fires (counted by the injector).  Models
        a fault that clears on its own — e.g. a backend brown-out the
        circuit breaker should probe back from.
    hang_s:
        Sleep duration for ``kind="hang"``.
    message:
        Carried into the raised :class:`InjectedFaultError`.
    """

    site: str
    kind: str = "error"
    rate: float = 1.0
    keys: tuple[int, ...] | None = None
    tenants: tuple[str, ...] | None = None
    fail_attempts: int | None = None
    max_fires: int | None = None
    hang_s: float = 0.05
    message: str = "injected fault"

    def validate(self) -> None:
        """Raise :class:`~repro.errors.ConfigError` on a bad spec."""
        if not self.site or not isinstance(self.site, str):
            raise ConfigError(f"fault site must be a name, got {self.site!r}")
        if self.kind not in KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; use one of {KINDS}"
            )
        if not (0.0 <= self.rate <= 1.0):
            raise ConfigError(
                f"fault rate must be in [0, 1], got {self.rate}"
            )
        if self.fail_attempts is not None and self.fail_attempts <= 0:
            raise ConfigError(
                f"fail_attempts must be positive (or None for permanent), "
                f"got {self.fail_attempts}"
            )
        if self.max_fires is not None and self.max_fires <= 0:
            raise ConfigError(
                f"max_fires must be positive (or None for unbounded), "
                f"got {self.max_fires}"
            )
        if self.hang_s < 0:
            raise ConfigError(f"hang_s must be >= 0, got {self.hang_s}")

    def matches(
        self, key: int | None, tenant: str | None, attempt: int
    ) -> bool:
        """Whether this spec applies to the given firing context."""
        if self.keys is not None and key not in self.keys:
            return False
        if self.tenants is not None and tenant not in self.tenants:
            return False
        if self.fail_attempts is not None and attempt >= self.fail_attempts:
            return False
        return True


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the declared faults — the whole chaos scenario.

    Immutable and cheap to share: the dispatcher and its sessions
    evaluate the same plan and reach the same decisions for the same
    keys.
    """

    seed: int = 0
    specs: tuple[FaultSpec, ...] = field(default_factory=tuple)

    def validate(self) -> None:
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise ConfigError(
                    f"FaultPlan.specs expects FaultSpec entries, "
                    f"got {type(spec).__name__}"
                )
            spec.validate()

    def with_spec(self, **spec_fields) -> "FaultPlan":
        """A copy with one more :class:`FaultSpec` appended."""
        return FaultPlan(
            seed=self.seed,
            specs=self.specs + (FaultSpec(**spec_fields),),
        )


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at the named injection points.

    Thread-safe; the only mutable state is the fire counters (used for
    ``max_fires`` bookkeeping and surfaced via :attr:`counts`).  The
    *decision* for a (site, key) pair is stateless — a pure hash draw —
    so isolation re-runs and retries all agree on which keys are
    poisoned.
    """

    def __init__(self, plan: FaultPlan):
        if isinstance(plan, FaultInjector):  # idempotent wrapping
            plan = plan.plan
        plan.validate()
        self.plan = plan
        self._lock = threading.Lock()
        self._site_fires: dict[str, int] = {}
        self._spec_fires: list[int] = [0] * len(plan.specs)

    # ------------------------------------------------------------------ #
    # decisions
    # ------------------------------------------------------------------ #
    def _draws(self, spec: FaultSpec, site: str, key: int | None) -> bool:
        """The stateless poisoned-or-not decision for one (site, key)."""
        if spec.rate >= 1.0:
            return True
        if spec.rate <= 0.0:
            return False
        return stable_uniform(self.plan.seed, site, key) < spec.rate

    def would_fire(
        self,
        site: str,
        *,
        key: int | None = None,
        tenant: str | None = None,
        attempt: int = 0,
    ) -> bool:
        """Whether :meth:`fire` would act, ignoring ``max_fires`` budgets."""
        return any(
            spec.site == site
            and spec.matches(key, tenant, attempt)
            and self._draws(spec, site, key)
            for spec in self.plan.specs
        )

    def preview(
        self,
        site: str,
        keys: Iterable[int],
        *,
        tenant: str | None = None,
        attempt: int = 0,
    ) -> tuple[int, ...]:
        """The subset of ``keys`` the plan poisons at ``site``.

        What a chaos test asserts against: *exactly these* requests may
        fail, everything else must succeed.
        """
        return tuple(
            k
            for k in keys
            if self.would_fire(site, key=k, tenant=tenant, attempt=attempt)
        )

    # ------------------------------------------------------------------ #
    # firing
    # ------------------------------------------------------------------ #
    def fire(
        self,
        site: str,
        *,
        key: int | None = None,
        tenant: str | None = None,
        attempt: int = 0,
    ) -> None:
        """Evaluate every matching spec at ``site``; act on the first hit.

        ``"error"`` raises :class:`InjectedFaultError`, ``"crash"``
        raises :class:`WorkerCrashError`, ``"hang"`` sleeps ``hang_s``
        (then continues — a slow dependency, not a failed one).
        """
        for i, spec in enumerate(self.plan.specs):
            if spec.site != site or not spec.matches(key, tenant, attempt):
                continue
            if not self._draws(spec, site, key):
                continue
            with self._lock:
                if (
                    spec.max_fires is not None
                    and self._spec_fires[i] >= spec.max_fires
                ):
                    continue
                self._spec_fires[i] += 1
                self._site_fires[site] = self._site_fires.get(site, 0) + 1
            if spec.kind == "hang":
                time.sleep(spec.hang_s)
                continue
            if spec.kind == "crash":
                raise WorkerCrashError(site, spec.message)
            raise InjectedFaultError(site, spec.message)

    @property
    def counts(self) -> Mapping[str, int]:
        """Fires per site so far (a snapshot)."""
        with self._lock:
            return dict(self._site_fires)


# --------------------------------------------------------------------------- #
# thread-local injection scope
# --------------------------------------------------------------------------- #
# The execution backends sit below the serving layer and must not grow
# injector parameters through every signature; instead the dispatcher (or
# a session) establishes a scope around the numeric pass, and the hooks
# inside the backends read it.  Execution is synchronous within a worker
# thread, so thread-local state is exactly the right lifetime.
class _ScopeState(threading.local):
    injector: "FaultInjector | None" = None
    tenant: str | None = None
    key: int | None = None
    attempt: int = 0


_SCOPE = _ScopeState()


def active_injector() -> FaultInjector | None:
    """The injector of the innermost active :func:`scope` (or ``None``)."""
    return _SCOPE.injector


@contextmanager
def scope(
    injector: FaultInjector,
    *,
    tenant: str | None = None,
    key: int | None = None,
    attempt: int = 0,
):
    """Make ``injector`` (plus firing context) visible to nested hooks."""
    prev = (_SCOPE.injector, _SCOPE.tenant, _SCOPE.key, _SCOPE.attempt)
    _SCOPE.injector = injector
    _SCOPE.tenant = tenant
    _SCOPE.key = key
    _SCOPE.attempt = attempt
    try:
        yield injector
    finally:
        (
            _SCOPE.injector,
            _SCOPE.tenant,
            _SCOPE.key,
            _SCOPE.attempt,
        ) = prev


def perhaps(site: str, injector: FaultInjector | None = None) -> None:
    """Fire ``site`` against the scoped (or given) injector, if any.

    The hook the backends and :class:`~repro.serving.session.Session`
    call unconditionally — with no plan active it is a thread-local read
    and a ``None`` check, cheap enough for the serving hot path.
    """
    inj = injector if injector is not None else _SCOPE.injector
    if inj is None:
        return
    inj.fire(
        site,
        key=_SCOPE.key,
        tenant=_SCOPE.tenant,
        attempt=_SCOPE.attempt,
    )
