"""Load generation and the correctness gate.

One generator — the calling thread — submits every request.  Between
submissions it harvests completed tickets: each response is checked bit
for bit against a precomputed ``CompiledModel.run(execution="fast")``
reference for its pool entry, its per-request ``CostReport`` against the
reference report, and only then reduced to a latency sample and dropped,
so memory stays flat however many requests a run sends.

Open loop: requests are due on the seeded schedule whether or not earlier
ones finished, and latency is timed from the due instant on
``time.monotonic()`` (the clock of ``DispatchResult.complete_t``), so a
generator stall is charged to the requests it delayed.  Closed loop: a
fixed number of requests stays outstanding, each due when submitted.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.errors import AdmissionError, ReproError

#: how long after the schedule ends in-flight requests may still finish
DRAIN_TIMEOUT_S = 60.0
#: closed-loop poll interval while every outstanding request is in flight
POLL_S = 0.002
#: the open-loop schedule starts this long after the generator does
LEAD_S = 0.01


@dataclass
class Outcome:
    """What one measured phase produced."""

    sent: int = 0
    completed: int = 0
    #: completed no later than the end of the measured window
    completed_in_window: int = 0
    #: completed within the workload's latency limit
    within_limit: int = 0
    rejected: int = 0
    #: tickets that raised (failed, shed, or never served)
    errored: int = 0
    mismatched: int = 0
    #: (due instant, latency) per completed request
    latencies_s: list = field(default_factory=list)
    queue_waits_s: list = field(default_factory=list)
    max_lag_s: float = 0.0
    start_t: float = 0.0
    end_t: float = 0.0
    last_complete_t: float = 0.0

    @property
    def failed(self) -> int:
        return self.rejected + self.errored + self.mismatched

    def latencies_by_due(self) -> list[float]:
        return [lat for _, lat in sorted(self.latencies_s)]


class Reference:
    """Precomputed fast-path outputs and cost reports per pool entry."""

    def __init__(self, compiled: dict, pools: dict):
        self.runs = {
            tenant: [cm.run(feeds=feeds, execution="fast") for feeds in pools[tenant]]
            for tenant, cm in compiled.items()
        }
        #: reports already compared, held so their ids cannot be reused
        self._checked_reports: dict[tuple[str, int, int], object] = {}

    def matches(self, tenant: str, pool_index: int, result) -> bool:
        ref = self.runs[tenant][pool_index]
        if result.result.outputs.keys() != ref.outputs.keys():
            return False
        for name, expected in ref.outputs.items():
            if not np.array_equal(result.result.outputs[name], expected):
                return False
        report = result.stats.report
        key = (tenant, pool_index, id(report))
        if key not in self._checked_reports:
            # sessions share one report object per plan; compare it once
            if report != ref.report:
                return False
            self._checked_reports[key] = report
        return True


class _Harvester:
    def __init__(self, outcome: Outcome, reference: Reference, limit_s: float):
        self.outcome = outcome
        self.reference = reference
        self.limit_s = limit_s

    def take(self, entry) -> None:
        ticket, due, tenant, pool_index = entry
        out = self.outcome
        try:
            result = ticket.result(0)
        except ReproError:
            out.errored += 1
            return
        if not self.reference.matches(tenant, pool_index, result):
            out.mismatched += 1
            return
        latency = result.complete_t - due
        out.completed += 1
        out.latencies_s.append((due, latency))
        out.queue_waits_s.append(result.queue_wait_s)
        if latency <= self.limit_s:
            out.within_limit += 1
        if result.complete_t <= out.end_t:
            out.completed_in_window += 1
        out.last_complete_t = max(out.last_complete_t, result.complete_t)

    def front(self, inflight: deque) -> None:
        """Harvest done tickets at the front of the in-flight queue."""
        while inflight and inflight[0][0].done():
            self.take(inflight.popleft())

    def drain(self, inflight) -> None:
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        for entry in inflight:
            try:
                entry[0].result(max(0.0, deadline - time.monotonic()))
            except ReproError:
                pass
            self.take(entry)


def _submit(dispatcher, names, pools, sched, i, outcome):
    """Submit schedule item ``i``; returns its ticket or None if refused."""
    tenant = names[sched.tenant[i]]
    # a fresh mapping per request: the traced run maps feeds back to seqs
    feeds = dict(pools[tenant][sched.pool[i]])
    outcome.sent += 1
    try:
        return dispatcher.submit(feeds=feeds, tenant=tenant)
    except AdmissionError:
        outcome.rejected += 1
        return None


def run_open(dispatcher, workload, sched, pools, reference, seconds) -> Outcome:
    names = [t.name for t in workload.tenants]
    out = Outcome()
    harvest = _Harvester(out, reference, workload.latency_limit_s)
    inflight: deque = deque()
    clock, sleep = time.monotonic, time.sleep
    out.start_t = start = clock() + LEAD_S
    out.end_t = start + seconds
    for i, offset in enumerate(sched.due_s.tolist()):
        due = start + offset
        now = clock()
        if now < due:
            harvest.front(inflight)
            now = clock()
            if now < due:
                sleep(due - now)
                now = clock()
        out.max_lag_s = max(out.max_lag_s, now - due)
        ticket = _submit(dispatcher, names, pools, sched, i, out)
        if ticket is not None:
            inflight.append(
                (ticket, due, names[sched.tenant[i]], int(sched.pool[i]))
            )
    harvest.drain(inflight)
    return out


def run_closed(dispatcher, workload, sched, pools, reference, seconds) -> Outcome:
    names = [t.name for t in workload.tenants]
    out = Outcome()
    harvest = _Harvester(out, reference, workload.latency_limit_s)
    clock = time.monotonic
    out.start_t = clock()
    out.end_t = out.start_t + seconds
    inflight: list = []
    i = 0

    def send():
        nonlocal i
        j = i % len(sched)
        due = clock()
        ticket = _submit(dispatcher, names, pools, sched, j, out)
        if ticket is not None:
            inflight.append((ticket, due, names[sched.tenant[j]], int(sched.pool[j])))
        i += 1

    for _ in range(workload.outstanding):
        send()
    while clock() < out.end_t and inflight:
        done = [e for e in inflight if e[0].done()]
        if not done:
            time.sleep(POLL_S)
            continue
        # replace every finished request before checking any response,
        # so a batch's worth of replacements arrives together
        for entry in done:
            inflight.remove(entry)
            if clock() < out.end_t:
                send()
        for entry in done:
            harvest.take(entry)
    harvest.drain(inflight)
    return out
