"""Admission-controlled request queue with QoS-aware micro-batching.

The serving front-end half of the dispatcher: callers submit
:class:`Ticket`\\ s (one per request), workers pop *micro-batches*.  The
queue owns the scheduling policies of the serving layer, all of them
driven by the declarative :class:`~repro.serving.control.FleetConfig`
it subscribes to:

* **admission control** — the queue is bounded globally
  (``max_queue_depth``) and per tenant (the policy ``quota``); a submit
  over either bound raises :class:`~repro.errors.AdmissionError`
  instead of letting latency grow without bound.  Back-pressure is
  explicit and counted.
* **priority load shedding** — when the queue is full and a
  higher-priority request arrives, the newest queued request of the
  *lowest* priority class is evicted (its waiter gets the
  :class:`AdmissionError`) so important traffic is never turned away
  while junk occupies the queue.
* **QoS-aware batch forming** — a tenant's batch becomes *due* when it
  reaches ``max_batch``, when its oldest request has waited
  ``batch_timeout_s``, or when that request's deadline budget shrinks
  to the tenant's estimated batch service time.  The default hold is
  ``0``, which makes the former work-conserving: every queued tenant is
  due at once, so an idle worker takes up to ``max_batch`` of its
  chosen tenant's queue without waiting, and batches form under load
  from what queued while the workers were busy.  Among due tenants the
  former picks the highest priority class first, then the smallest
  weighted stride pass inside the class (a weight-2 tenant gets ~2x the
  slots of a weight-1 peer), then FIFO arrival.  ``scheduling="fifo"``
  restores the pre-control-plane head-tenant arrival order.

Batches are always single-tenant (different tenants run different
models and can never share a stacked GEMM) and FIFO *within* the
tenant, so the queue keeps one FIFO per tenant with queued work and a
running depth: a put, a shed or a pop costs O(tenants), whatever the
depth.  All state is guarded by one condition variable; ``pop_batch``
re-derives its view after every wait, so any number of workers can
block in it concurrently without double-claiming a request, and a
live ``apply_config`` lands at the next scheduling decision.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Callable, Mapping

import numpy as np

from repro.errors import AdmissionError, ServingError
from repro.serving.control import FleetConfig

__all__ = ["Ticket", "RequestQueue"]


class Ticket:
    """One submitted request: feeds in, a future for the result out.

    Created by :meth:`~repro.serving.dispatcher.Dispatcher.submit`;
    fulfilled (or failed) exactly once by a dispatcher worker — or
    failed by the queue itself when priority load shedding evicts it.
    A second settle, concurrent or not, is a no-op: the first answer
    stands.

    The future is a bare lock, held from creation until the ticket
    settles, plus a ``done`` flag set just before the release.  A waiter
    acquires the lock and releases it at once, which wakes the next
    waiter in turn.
    """

    #: serializes settles, so exactly one of two racing settles releases
    #: the ticket's lock (held for a few bytecodes; waiters never take it)
    _SETTLE_LOCK = threading.Lock()

    __slots__ = (
        "tenant", "feeds", "request_seq", "enqueue_t", "deadline_t",
        "_settled", "_done", "_result", "_error",
    )

    def __init__(
        self,
        tenant: str,
        feeds: Mapping[str, np.ndarray],
        request_seq: int,
        enqueue_t: float,
        deadline_t: float,
    ):
        self.tenant = tenant
        self.feeds = feeds
        #: submission order over the dispatcher's lifetime (all tenants)
        self.request_seq = request_seq
        #: monotonic-clock submission instant
        self.enqueue_t = enqueue_t
        #: monotonic-clock deadline; completion after it counts as a miss
        self.deadline_t = deadline_t
        self._settled = threading.Lock()
        self._settled.acquire()
        self._done = False
        self._result = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        """Whether a worker has fulfilled (or failed) this request."""
        return self._done

    def result(self, timeout: float | None = None):
        """Block for the :class:`DispatchResult`; re-raise worker errors.

        ``None`` waits without limit; a timeout of 0 or less never
        blocks.
        """
        if not self._done:
            if timeout is None:
                acquired = self._settled.acquire()
            else:
                acquired = self._settled.acquire(timeout=max(0.0, timeout))
            if acquired:
                self._settled.release()  # wakes the next waiter
            elif not self._done:
                # (a settled ticket's lock fails an acquire only while
                # another waiter holds it for an instant)
                raise ServingError(
                    f"request {self.request_seq} ({self.tenant!r}) not "
                    f"served within {timeout}s — the dispatcher may be "
                    "closed or overloaded; raise the timeout or add "
                    "workers"
                )
        if self._error is not None:
            raise self._error
        return self._result

    # -- worker side ---------------------------------------------------- #
    def _fulfill(self, result) -> None:
        self._settle(result, None)

    def _fail(self, error: BaseException) -> None:
        self._settle(None, error)

    def _settle(self, result, error: BaseException | None) -> None:
        with Ticket._SETTLE_LOCK:
            if self._done:
                return
            self._result = result
            self._error = error
            self._done = True
            self._settled.release()


class RequestQueue:
    """Bounded ticket queue with QoS-aware micro-batch forming.

    The queue holds one FIFO per tenant with queued work (a tenant's
    FIFO goes when it empties) plus a running depth.  Admission reads
    one FIFO length, shedding one tail per tenant and batch forming one
    head per tenant, so no call but :meth:`drain` walks the queued
    tickets.

    Parameters
    ----------
    max_depth:
        Admission-control bound (shorthand for a default
        :class:`FleetConfig` with that ``max_queue_depth``).
    config:
        Full declarative config; overrides ``max_depth``.  The queue is
        a :class:`~repro.serving.control.ConfigSubscriber` — a live
        dispatcher swaps configs via :meth:`apply_config`.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        *,
        config: FleetConfig | None = None,
    ):
        if config is None:
            config = FleetConfig(
                max_queue_depth=max_depth if max_depth is not None else 256
            )
        config.validate()
        self._config = config
        #: tenant -> its queued tickets, oldest first; never empty
        self._fifos: dict[str, deque[Ticket]] = {}
        #: queued tickets over every FIFO
        self._depth = 0
        self._cond = threading.Condition()
        self._closed = False
        #: weighted-stride pass per tenant (the fairness state); every
        #: tenant with a FIFO has one
        self._pass: dict[str, float] = {}
        #: admission-control rejections over the queue's lifetime
        self.rejected = 0
        #: queued requests evicted by priority load shedding
        self.shed = 0
        #: deepest the queue ever got
        self.peak_depth = 0

    def __len__(self) -> int:
        with self._cond:
            return self._depth

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    @property
    def max_depth(self) -> int:
        """The live global admission bound (config-derived)."""
        return self._config.max_queue_depth

    # ------------------------------------------------------------------ #
    # control plane
    # ------------------------------------------------------------------ #
    def apply_config(
        self, old: FleetConfig | None, new: FleetConfig
    ) -> None:
        """Adopt ``new`` (:class:`ConfigSubscriber` protocol).

        Takes effect at the next admission / scheduling decision:
        already-queued requests above a tightened quota or depth bound
        stay queued and drain normally — reconfiguration never drops
        work that was legally admitted (only priority shedding does,
        and only in favor of strictly more important work).
        """
        with self._cond:
            self._config = new
            self._cond.notify_all()

    def kick(self) -> None:
        """Wake every blocked ``pop_batch`` to re-read external state.

        Used by the dispatcher after worker retirements are posted so a
        worker parked in the wait loop notices its ``stop`` signal.
        """
        with self._cond:
            self._cond.notify_all()

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #
    def put(self, ticket: Ticket) -> None:
        """Admit ``ticket`` or raise :class:`AdmissionError`.

        Over-quota and over-depth submissions are rejected — except
        that a full queue holding strictly lower-priority work sheds
        its newest lowest-priority request (failing *that* ticket with
        :class:`AdmissionError`) to admit the more important newcomer.
        """
        with self._cond:
            if self._closed:
                raise ServingError(
                    "queue is closed; the dispatcher is shutting down"
                )
            cfg = self._config
            policy = cfg.policy(ticket.tenant)
            if (
                policy.quota is not None
                and len(self._fifos.get(ticket.tenant, ())) >= policy.quota
            ):
                self.rejected += 1
                raise AdmissionError(
                    f"tenant {ticket.tenant!r} is at its admission "
                    f"quota ({policy.quota} queued); retry later or "
                    "raise the tenant's quota via apply_config"
                )
            if self._depth >= cfg.max_queue_depth:
                tenant = self._shed_candidate(policy.priority)
                if tenant is None:
                    self.rejected += 1
                    raise AdmissionError(
                        f"request queue at capacity "
                        f"({cfg.max_queue_depth}); retry later, raise "
                        "max_queue_depth, or add workers"
                    )
                fifo = self._fifos[tenant]
                victim = fifo.pop()
                if not fifo:
                    del self._fifos[tenant]
                self._depth -= 1
                self.shed += 1
                victim._fail(
                    AdmissionError(
                        f"request {victim.request_seq} "
                        f"({tenant!r}, priority "
                        f"{cfg.policy(tenant).priority}) was shed "
                        "from a full queue to admit higher-priority "
                        "work; retry later or raise max_queue_depth"
                    )
                )
            fifo = self._fifos.get(ticket.tenant)
            if fifo is None:
                self._seed_pass(ticket.tenant)
                fifo = self._fifos[ticket.tenant] = deque()
            fifo.append(ticket)
            self._depth += 1
            self.peak_depth = max(self.peak_depth, self._depth)
            self._cond.notify_all()

    def _shed_candidate(self, incoming_priority: int) -> str | None:
        """The tenant whose newest ticket to evict for a newcomer.

        The newest tail of the lowest priority class strictly below
        ``incoming_priority`` (newest: it has waited least, so failing
        it wastes the least progress).  ``None`` when nothing queued is
        strictly less important — then the newcomer itself is rejected.
        """
        cfg = self._config
        return min(
            (
                t
                for t in self._fifos
                if cfg.policy(t).priority < incoming_priority
            ),
            key=lambda t: (
                cfg.policy(t).priority,
                -self._fifos[t][-1].request_seq,
            ),
            default=None,
        )

    def _seed_pass(self, tenant: str) -> None:
        """Stride bookkeeping for a tenant (re)entering the queue.

        A tenant with no queued work joins at the *minimum* pass of the
        currently active tenants (the virtual time), so an idle spell
        neither banks an unfair burst (a stale low pass) nor penalizes
        the return.  An empty queue resets the epoch entirely, keeping
        the passes bounded over a long-lived dispatcher.
        """
        if not self._fifos:
            self._pass.clear()
            self._pass[tenant] = 0.0
            return
        floor = min(self._pass[t] for t in self._fifos)
        self._pass[tenant] = max(self._pass.get(tenant, 0.0), floor)

    def close(self) -> None:
        """Stop admitting; workers drain what is queued, then get ``None``."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def drain(self) -> list[Ticket]:
        """Atomically remove and return every queued ticket, oldest first.

        The dispatcher's close path calls this after the worker join
        deadline: whatever is still queued then has no worker left to
        serve it, and each ticket must be *failed* (never abandoned) so
        no waiter deadlocks on a dispatcher that already shut down.
        """
        with self._cond:
            items = sorted(
                (t for fifo in self._fifos.values() for t in fifo),
                key=lambda t: t.request_seq,
            )
            self._fifos.clear()
            self._depth = 0
            self._pass.clear()
            self._cond.notify_all()
            return items

    # ------------------------------------------------------------------ #
    # batch forming
    # ------------------------------------------------------------------ #
    def pop_batch(
        self,
        max_batch: int,
        batch_timeout_s: float,
        service_estimate: Callable[[str], float | None],
        *,
        stop: Callable[[], bool] | None = None,
    ) -> list[Ticket] | None:
        """Block until a micro-batch is due; ``None`` once closed and empty.

        A tenant is *due* when its queued count reaches ``max_batch``,
        its oldest request has waited ``batch_timeout_s``, that
        request's remaining deadline budget drops to the tenant's
        estimated service time (``service_estimate(tenant)``; ``None``
        while the tenant has no history), or the queue is closed
        (drain).  With ``batch_timeout_s == 0`` every queued tenant is
        due immediately (work-conserving), so this call waits only for
        the queue to become non-empty.  Among due tenants the scheduler
        picks by priority class, then weighted stride pass, then arrival
        order; the batch is the tenant's oldest ``max_batch`` requests
        in FIFO order.

        ``stop`` (checked after every wake) lets the dispatcher retire
        this worker without closing the queue — the autoscaler's shrink
        path; a retired pop returns ``None`` without claiming work.

        Safe for any number of concurrent worker threads: the queue
        view is re-derived under the lock after every wait, and removal
        is atomic with the due decision.
        """
        with self._cond:
            while True:
                if stop is not None and stop():
                    return None
                if not self._fifos:
                    if self._closed:
                        return None
                    self._cond.wait()
                    continue
                cfg = self._config
                now_t = time.monotonic()
                tenant, wake_at = self._select_tenant(
                    cfg, max_batch, batch_timeout_s, service_estimate, now_t
                )
                if tenant is None:
                    # nothing due: sleep until the earliest head could
                    # become due (puts/closes/config swaps notify)
                    self._cond.wait(max(0.0, wake_at - now_t))
                    continue
                fifo = self._fifos[tenant]
                batch = [
                    fifo.popleft() for _ in range(min(max_batch, len(fifo)))
                ]
                if not fifo:
                    del self._fifos[tenant]
                self._depth -= len(batch)
                self._pass[tenant] += len(batch) / cfg.policy(tenant).weight
                return batch

    @staticmethod
    def _flush_at(
        head: Ticket,
        batch_timeout_s: float,
        service_estimate: Callable[[str], float | None],
    ) -> float:
        """When ``head``'s tenant becomes due regardless of batch size."""
        flush_at = head.enqueue_t + batch_timeout_s
        est = service_estimate(head.tenant)
        if est is not None:
            # dispatch early enough that service can still finish
            # inside the oldest request's deadline
            flush_at = min(flush_at, head.deadline_t - est)
        return flush_at

    def _select_tenant(
        self,
        cfg: FleetConfig,
        max_batch: int,
        batch_timeout_s: float,
        service_estimate: Callable[[str], float | None],
        now_t: float,
    ) -> tuple[str | None, float]:
        """The due tenant to serve next (``None`` if none is due) and the
        earliest instant a head weighed but not yet due becomes due.

        Highest priority class first; inside the class, the smallest
        weighted stride pass; ties broken by arrival order (the head's
        ``request_seq``).  Fullness (``len(fifo) >= max_batch``) makes a
        tenant due immediately — a full batch gains nothing by waiting.
        ``"fifo"`` scheduling weighs only the tenant of the oldest head
        and waits for it even while another tenant is due.
        """
        fifos = self._fifos
        if cfg.scheduling == "fifo":
            weighed = [min(fifos, key=lambda t: fifos[t][0].request_seq)]
        else:
            weighed = fifos
        best, best_key, wake_at = None, None, math.inf
        for tenant in weighed:
            fifo = fifos[tenant]
            head = fifo[0]
            flush_at = self._flush_at(head, batch_timeout_s, service_estimate)
            if not (
                self._closed or len(fifo) >= max_batch or now_t >= flush_at
            ):
                wake_at = min(wake_at, flush_at)
                continue
            key = (
                -cfg.policy(tenant).priority,
                self._pass[tenant],
                head.request_seq,
            )
            if best_key is None or key < best_key:
                best, best_key = tenant, key
        return best, wake_at
