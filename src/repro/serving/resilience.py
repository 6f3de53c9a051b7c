"""Failure-recovery policy for the dispatcher fleet.

Two mechanisms, both *invisible to outputs* because every execution
backend in this repo is bit-exact by construction:

* :class:`CircuitBreaker` — per-(tenant, backend) failure tracking.
  After ``breaker_threshold`` consecutive failures on a tenant's
  primary backend the breaker **opens**: subsequent batches run on the
  fallback in :data:`DEGRADE_CHAIN` (``"turbo"`` → ``"fast"``, which
  still stacks the batch and replays the shared cost template), trading
  the native segment pass for NumPy int32 GEMMs.
  After ``breaker_cooldown_s`` one batch **probes** the primary; success
  closes the breaker, failure re-arms the cooldown.  Degrading changes
  wall clock, never bits — the whole point of keeping every backend
  exact is that recovery needs no output reconciliation.

* :func:`supervisor_loop` — the watchdog thread body.  It holds the
  dispatcher only weakly (the same discipline as the worker threads, so
  a dropped dispatcher can still be garbage collected) and periodically
  asks it to :meth:`~repro.serving.dispatcher.Dispatcher._supervise`:
  respawn dead worker threads within ``min_workers..max_workers`` and
  audit the crash in the control-plane trail.

Broken *process pools* are handled inline by the dispatch path (a dead
child surfaces as a result timeout / pipe error on the waiting worker,
which rebuilds the pool immediately) — the supervisor only needs to own
the failure mode nobody is waiting on: a worker thread that died.
"""

from __future__ import annotations

import threading
import time
import weakref
from typing import Callable

from repro.serving.control import FleetConfig

__all__ = ["DEGRADE_CHAIN", "CircuitBreaker", "supervisor_loop"]

#: graceful-degradation order; backends absent from the map (``"fast"``,
#: ``"simulate"``, user backends) have nothing to degrade to and their
#: breakers stay inert
DEGRADE_CHAIN = {"turbo": "fast"}


class CircuitBreaker:
    """Consecutive-failure breaker for one (tenant, primary backend).

    Thread-safe; shared by every worker serving the tenant.  The life
    cycle is the classic three states collapsed to two booleans:

    * **closed** — batches run on the primary backend;
    * **open** — batches run on the fallback; once ``breaker_cooldown_s``
      has elapsed, exactly one in-flight batch is elected the **probe**
      and runs on the primary (other workers keep using the fallback
      until the probe reports back).

    ``plan_execution`` picks the backend for one batch attempt and
    ``record`` feeds the outcome back; state transitions are returned as
    ``"open"`` / ``"close"`` strings so the dispatcher can audit them.
    """

    def __init__(
        self,
        primary: str,
        config_fn: Callable[[], FleetConfig],
        *,
        now: Callable[[], float] = time.monotonic,
    ):
        self.primary = primary
        self.fallback = DEGRADE_CHAIN.get(primary)
        self._config_fn = config_fn
        self._now = now
        self._lock = threading.Lock()
        self._failures = 0
        self._open = False
        self._retry_at = 0.0
        self._probe_inflight = False

    @property
    def state(self) -> str:
        return "open" if self._open else "closed"

    @property
    def execution(self) -> str:
        """The backend a non-probe batch would use right now."""
        return self.fallback if self._open else self.primary

    def plan_execution(self) -> tuple[str, bool]:
        """``(backend for this batch, is_probe)`` — call once per attempt."""
        if self.fallback is None:
            return self.primary, False
        with self._lock:
            if not self._open:
                return self.primary, False
            if not self._probe_inflight and self._now() >= self._retry_at:
                self._probe_inflight = True
                return self.primary, True
            return self.fallback, False

    def record(self, ok: bool, *, probe: bool = False) -> str | None:
        """Feed one batch outcome back; returns a transition to audit.

        ``"open"`` — the breaker just opened (degradation begins);
        ``"close"`` — a probe succeeded (primary restored); ``None`` —
        no state change worth auditing.
        """
        if self.fallback is None:
            return None
        cfg = self._config_fn()
        with self._lock:
            if probe:
                self._probe_inflight = False
                if ok:
                    self._open = False
                    self._failures = 0
                    return "close"
                self._retry_at = self._now() + cfg.breaker_cooldown_s
                return None
            if ok:
                if not self._open:
                    self._failures = 0
                return None
            self._failures += 1
            if not self._open and self._failures >= cfg.breaker_threshold:
                self._open = True
                self._retry_at = self._now() + cfg.breaker_cooldown_s
                return "open"
            return None


def supervisor_loop(
    dispatcher_ref: "weakref.ref", stop: threading.Event
) -> None:
    """Watchdog thread body: periodically respawn dead worker threads.

    Holds the dispatcher only through ``dispatcher_ref`` and drops the
    strong reference before every sleep, so an abandoned dispatcher is
    still collectable (its finalizer sets ``stop``; the ``None`` deref
    is the backstop).  Sweep errors are swallowed — a supervisor that
    dies of its own bug would be an unsupervised single point of
    failure, the exact disease it exists to cure.
    """
    while not stop.is_set():
        dispatcher = dispatcher_ref()
        if dispatcher is None or dispatcher._closed:
            return
        interval = dispatcher.config.supervise_interval_s
        try:
            dispatcher._supervise()
        except Exception:
            pass
        del dispatcher
        stop.wait(interval)
