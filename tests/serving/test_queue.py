"""RequestQueue semantics: admission control and micro-batch forming.

The batch former's contract, exercised deterministically with real (but
short) clocks: flush on size, flush on timeout, flush early under
deadline pressure, group by the head request's tenant in FIFO order, and
never double-claim a ticket across concurrent workers.  The per-tenant
FIFOs pop at the same cost at any depth and decide exactly as a flat
list of every queued ticket would.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import AdmissionError, ServingError
from repro.serving.control import FleetConfig, TenantPolicy
from repro.serving.queue import RequestQueue, Ticket

NO_ESTIMATE = {}.get  # service_estimate with no history for any tenant


def ticket(tenant, seq, *, deadline_in=10.0):
    now = time.monotonic()
    return Ticket(
        tenant=tenant, feeds={}, request_seq=seq,
        enqueue_t=now, deadline_t=now + deadline_in,
    )


class TestAdmission:
    def test_rejects_beyond_max_depth(self):
        q = RequestQueue(max_depth=2)
        q.put(ticket("a", 0))
        q.put(ticket("a", 1))
        with pytest.raises(AdmissionError, match="capacity"):
            q.put(ticket("a", 2))
        assert q.rejected == 1
        assert q.peak_depth == 2

    def test_closed_queue_rejects_submissions(self):
        q = RequestQueue(max_depth=4)
        q.close()
        with pytest.raises(ServingError, match="closed"):
            q.put(ticket("a", 0))

    def test_bad_depth(self):
        with pytest.raises(ServingError, match="positive"):
            RequestQueue(max_depth=0)


class TestBatchForming:
    def test_flush_on_max_batch(self):
        q = RequestQueue(max_depth=16)
        for i in range(5):
            q.put(ticket("a", i))
        batch = q.pop_batch(3, 10.0, NO_ESTIMATE)
        assert [t.request_seq for t in batch] == [0, 1, 2]
        assert len(q) == 2

    def test_flush_on_batch_timeout(self):
        q = RequestQueue(max_depth=16)
        q.put(ticket("a", 0))
        t0 = time.monotonic()
        batch = q.pop_batch(8, 0.05, NO_ESTIMATE)
        elapsed = time.monotonic() - t0
        assert [t.request_seq for t in batch] == [0]
        assert 0.03 <= elapsed < 1.0

    def test_deadline_budget_forces_early_flush(self):
        q = RequestQueue(max_depth=16)
        # 60 ms of deadline budget, 50 ms estimated service: the former
        # may hold the request ~10 ms, far less than the 5 s timeout
        q.put(ticket("a", 0, deadline_in=0.06))
        t0 = time.monotonic()
        batch = q.pop_batch(8, 5.0, {"a": 0.05}.get)
        elapsed = time.monotonic() - t0
        assert [t.request_seq for t in batch] == [0]
        assert elapsed < 1.0

    def test_batches_group_by_head_tenant_fifo(self):
        q = RequestQueue(max_depth=16)
        for seq, tenant in enumerate("ababab"):
            q.put(ticket(tenant, seq))
        first = q.pop_batch(8, 0.0, NO_ESTIMATE)
        second = q.pop_batch(8, 0.0, NO_ESTIMATE)
        assert [t.request_seq for t in first] == [0, 2, 4]  # all tenant a
        assert [t.request_seq for t in second] == [1, 3, 5]  # then tenant b
        assert all(t.tenant == "a" for t in first)
        assert all(t.tenant == "b" for t in second)

    def test_close_drains_then_returns_none(self):
        q = RequestQueue(max_depth=16)
        q.put(ticket("a", 0))
        q.close()
        assert [t.request_seq for t in q.pop_batch(8, 10.0, NO_ESTIMATE)] == [0]
        assert q.pop_batch(8, 10.0, NO_ESTIMATE) is None

    def test_pop_wakes_on_close(self):
        q = RequestQueue(max_depth=16)
        out = []

        def worker():
            out.append(q.pop_batch(8, 10.0, NO_ESTIMATE))

        th = threading.Thread(target=worker)
        th.start()
        time.sleep(0.02)
        q.close()
        th.join(5.0)
        assert not th.is_alive()
        assert out == [None]

    def test_concurrent_workers_never_double_claim(self):
        q = RequestQueue(max_depth=64)
        for i in range(30):
            q.put(ticket("a", i))
        claimed: list[int] = []
        lock = threading.Lock()

        def worker():
            while True:
                batch = q.pop_batch(4, 0.0, NO_ESTIMATE)
                if batch is None:
                    return
                with lock:
                    claimed.extend(t.request_seq for t in batch)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        q.close()  # drain mode: workers exit once empty
        for t in threads:
            t.start()
        for t in threads:
            t.join(10.0)
        assert sorted(claimed) == list(range(30))


class TestQoS:
    """Config-driven scheduling: priority, weights, quotas, shedding."""

    def test_priority_class_served_first(self):
        cfg = FleetConfig(
            tenants={"gold": TenantPolicy(priority=2)}, max_queue_depth=16
        )
        q = RequestQueue(config=cfg)
        for seq, tenant in enumerate(["bronze", "bronze", "gold", "gold"]):
            q.put(ticket(tenant, seq))
        first = q.pop_batch(8, 0.0, NO_ESTIMATE)
        second = q.pop_batch(8, 0.0, NO_ESTIMATE)
        assert all(t.tenant == "gold" for t in first)
        assert [t.request_seq for t in first] == [2, 3]
        assert all(t.tenant == "bronze" for t in second)

    def test_weighted_stride_share(self):
        cfg = FleetConfig(
            tenants={
                "heavy": TenantPolicy(weight=3.0),
                "light": TenantPolicy(weight=1.0),
            },
            max_queue_depth=256,
        )
        q = RequestQueue(config=cfg)
        for i in range(60):
            q.put(ticket("heavy", 2 * i))
            q.put(ticket("light", 2 * i + 1))
        served = [q.pop_batch(4, 0.0, NO_ESTIMATE)[0].tenant for _ in range(12)]
        # a 3:1 weight ratio yields ~3x the batch slots under contention
        assert served.count("heavy") == 9
        assert served.count("light") == 3

    def test_tenant_quota_rejects_independently_of_depth(self):
        cfg = FleetConfig(
            tenants={"capped": TenantPolicy(quota=2)}, max_queue_depth=16
        )
        q = RequestQueue(config=cfg)
        q.put(ticket("capped", 0))
        q.put(ticket("capped", 1))
        with pytest.raises(AdmissionError, match="quota"):
            q.put(ticket("capped", 2))
        assert q.rejected == 1
        q.put(ticket("other", 3))  # depth bound untouched for peers

    def test_full_queue_sheds_newest_lowest_priority(self):
        cfg = FleetConfig(
            tenants={"gold": TenantPolicy(priority=2)}, max_queue_depth=2
        )
        q = RequestQueue(config=cfg)
        old_bronze, new_bronze = ticket("bronze", 0), ticket("bronze", 1)
        q.put(old_bronze)
        q.put(new_bronze)
        q.put(ticket("gold", 2))  # full -> evict the *newest* bronze
        assert q.shed == 1
        with pytest.raises(AdmissionError, match="shed"):
            new_bronze.result(0.0)
        assert not old_bronze.done()
        batch = q.pop_batch(8, 0.0, NO_ESTIMATE)
        assert [t.request_seq for t in batch] == [2]

    def test_equal_priority_full_queue_still_rejects_newcomer(self):
        cfg = FleetConfig(max_queue_depth=2)
        q = RequestQueue(config=cfg)
        q.put(ticket("a", 0))
        q.put(ticket("b", 1))
        with pytest.raises(AdmissionError, match="capacity"):
            q.put(ticket("c", 2))  # nothing strictly less important
        assert q.shed == 0 and q.rejected == 1

    def test_fifo_mode_preserves_head_tenant_order(self):
        cfg = FleetConfig(
            tenants={"b": TenantPolicy(priority=5)},
            scheduling="fifo",
            max_queue_depth=16,
        )
        q = RequestQueue(config=cfg)
        for seq, tenant in enumerate("aabb"):
            q.put(ticket(tenant, seq))
        first = q.pop_batch(8, 0.0, NO_ESTIMATE)
        # fifo ignores b's priority: the head request's tenant (a) wins
        assert all(t.tenant == "a" for t in first)

    def test_apply_config_retunes_live_queue(self):
        q = RequestQueue(config=FleetConfig(max_queue_depth=1))
        q.put(ticket("a", 0))
        with pytest.raises(AdmissionError):
            q.put(ticket("a", 1))
        q.apply_config(None, FleetConfig(max_queue_depth=4))
        q.put(ticket("a", 1))  # the raised bound admits immediately
        assert len(q) == 2
        assert q.max_depth == 4

    def test_stop_retires_blocked_worker_without_claiming(self):
        q = RequestQueue(config=FleetConfig())
        stop = threading.Event()
        out = []

        def worker():
            out.append(q.pop_batch(8, 10.0, NO_ESTIMATE, stop=stop.is_set))

        th = threading.Thread(target=worker)
        th.start()
        time.sleep(0.02)
        stop.set()
        q.kick()
        th.join(5.0)
        assert not th.is_alive()
        assert out == [None]
        q.put(ticket("a", 0))
        assert len(q) == 1  # the retired worker claimed nothing


class TestTicket:
    def test_result_timeout_is_actionable(self):
        t = ticket("a", 7)
        with pytest.raises(ServingError, match="not served"):
            t.result(timeout=0.01)

    def test_fulfill_and_fail(self):
        t = ticket("a", 0)
        t._fulfill("payload")
        assert t.done() and t.result(0.0) == "payload"
        t2 = ticket("a", 1)
        t2._fail(ServingError("boom"))
        with pytest.raises(ServingError, match="boom"):
            t2.result(0.0)

    def test_zero_or_negative_timeout_never_blocks(self):
        t = ticket("a", 2)
        for timeout in (0, 0.0, -1.0):
            t0 = time.monotonic()
            with pytest.raises(ServingError, match="not served within"):
                t.result(timeout)
            assert time.monotonic() - t0 < 1.0
        t._fulfill("payload")
        assert t.result(0) == "payload"
        assert t.result(-5.0) == "payload"

    def test_result_none_blocks_until_settled(self):
        t = ticket("a", 3)
        settler = threading.Timer(0.05, t._fulfill, args=("late",))
        settler.start()
        try:
            assert t.result(None) == "late"
        finally:
            settler.join()
        assert t.done()

    @pytest.mark.parametrize("timeout", [None, 30.0])
    def test_every_concurrent_waiter_wakes(self, timeout):
        t = ticket("a", 4)
        n = 8
        started = threading.Barrier(n + 1)
        got = []

        def wait():
            started.wait()
            got.append(t.result(timeout))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            waiters = [threading.Thread(target=wait) for _ in range(n)]
            for th in waiters:
                th.start()
            started.wait()
            time.sleep(0.02)  # let the waiters park on the ticket
            t._fulfill("all")
            for th in waiters:
                th.join(10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in waiters)
        assert got == ["all"] * n

    def test_failed_ticket_wakes_waiters_with_the_error(self):
        t = ticket("a", 5)
        errors = []

        def wait():
            try:
                t.result(30.0)
            except ServingError as exc:
                errors.append(exc)

        th = threading.Thread(target=wait)
        th.start()
        t._fail(ServingError("shed"))
        th.join(10.0)
        assert not th.is_alive()
        assert [str(e) for e in errors] == ["shed"]

    def test_second_settle_is_harmless(self):
        t = ticket("a", 6)
        t._fulfill("first")
        assert t.result(0) == "first"  # a waiter has passed the lock on
        t._fulfill("second")
        t._fail(ServingError("late"))
        assert t.done()
        assert t.result(0) == "first"
        assert t.result(None) == "first"
        t2 = ticket("a", 7)
        t2._fail(ServingError("first"))
        t2._fulfill("late")
        with pytest.raises(ServingError, match="first"):
            t2.result(None)

    def test_racing_settles_release_once(self):
        """Settlers and waiters racing at a 1 µs switch interval: no
        settle raises, and every waiter sees the one answer that won."""
        errors, answers = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seq in range(50):
                t = ticket("a", seq)

                def settle(i, t=t):
                    try:
                        if i % 2:
                            t._fail(ServingError(f"fail {i}"))
                        else:
                            t._fulfill(f"ok {i}")
                    except BaseException as exc:  # noqa: BLE001
                        errors.append(exc)

                def wait(t=t):
                    try:
                        answers.append((t, t.result(30.0)))
                    except ServingError as exc:
                        answers.append((t, str(exc)))

                threads = [
                    threading.Thread(target=settle, args=(i,))
                    for i in range(4)
                ] + [threading.Thread(target=wait) for _ in range(4)]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(10.0)
                assert not any(th.is_alive() for th in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(answers) == 50 * 4
        by_ticket = {}
        for t, answer in answers:
            by_ticket.setdefault(t.request_seq, set()).add(answer)
        assert all(len(seen) == 1 for seen in by_ticket.values())

    def test_done_reads_the_flag_while_a_waiter_holds_the_lock(self):
        t = ticket("a", 8)
        assert not t.done()
        t._fulfill("payload")
        # a waiter inside result() holds the lock for an instant
        t._settled.acquire()
        try:
            assert t.done()
            seen = []
            th = threading.Thread(target=lambda: seen.append(t.result(0)))
            th.start()
            th.join(10.0)
            assert seen == ["payload"]
        finally:
            t._settled.release()


# --------------------------------------------------------------------------- #
# per-tenant FIFOs: flat cost and equivalence with one flat list
# --------------------------------------------------------------------------- #
def test_pop_cost_does_not_grow_with_depth():
    tenants = "abcd"

    def pop_cost(depth, repeats=300):
        q = RequestQueue(max_depth=2 * depth)
        for seq in range(depth):
            q.put(ticket(tenants[seq % len(tenants)], seq))
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            batch = q.pop_batch(8, 0.0, NO_ESTIMATE)
            best = min(best, time.perf_counter() - t0)
            for t in batch:  # hold the depth
                q.put(t)
        assert len(q) == depth
        return best

    shallow, deep = pop_cost(100), pop_cost(10_000)
    # one head per tenant whatever the depth; a scan of every queued
    # ticket costs some 50x more at 10,000 than at 100
    assert deep <= 5 * shallow, (shallow, deep)


class FlatQueueModel:
    """The batch former's rules over one flat list of queued tickets.

    Each rule reads the whole list: the quota counts the tenant's
    tickets, shedding takes the newest ticket of the lowest class below
    the newcomer, stride seeding reads every queued tenant, and a pop
    finds each tenant's head and count.  Items are ``(tenant, seq)`` in
    put order.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.items = []
        self.passes = {}
        self.closed = False
        self.peak = 0

    def put(self, tenant, seq):
        cfg = self.cfg
        if self.closed:
            return "closed"
        policy = cfg.policy(tenant)
        queued = [s for t, s in self.items if t == tenant]
        if policy.quota is not None and len(queued) >= policy.quota:
            return "quota"
        victim = None
        if len(self.items) >= cfg.max_queue_depth:
            lower = [
                (cfg.policy(t).priority, -s, t)
                for t, s in self.items
                if cfg.policy(t).priority < policy.priority
            ]
            if not lower:
                return "capacity"
            _, neg_seq, victim_tenant = min(lower)
            victim = -neg_seq
            self.items.remove((victim_tenant, victim))
        if not self.items:
            self.passes = {tenant: 0.0}
        elif not queued:
            floor = min(self.passes[t] for t, _ in self.items)
            self.passes[tenant] = max(self.passes.get(tenant, 0.0), floor)
        self.items.append((tenant, seq))
        self.peak = max(self.peak, len(self.items))
        return ("admitted", victim)

    def pop(self, max_batch, timed_out):
        """The batch's seqs, or ``None`` when a pop would block or end."""
        cfg = self.cfg
        heads, counts = {}, {}
        for t, s in self.items:
            heads.setdefault(t, s)
            counts[t] = counts.get(t, 0) + 1

        def due(t):
            return self.closed or counts[t] >= max_batch or timed_out

        if cfg.scheduling == "fifo":
            candidates = [self.items[0][0]] if self.items else []
        else:
            candidates = list(heads)
        candidates = [t for t in candidates if due(t)]
        if not candidates:
            return None
        tenant = min(
            candidates,
            key=lambda t: (-cfg.policy(t).priority, self.passes[t], heads[t]),
        )
        batch = [s for t, s in self.items if t == tenant][:max_batch]
        self.items = [(t, s) for t, s in self.items if s not in batch]
        self.passes[tenant] += len(batch) / cfg.policy(tenant).weight
        return batch

    def drain(self):
        out = [s for _, s in self.items]
        self.items, self.passes = [], {}
        return out


def pop_or_none(q, max_batch, batch_timeout_s):
    """``pop_batch`` if a batch is due at once; ``None`` where it waits."""
    evaluated = []
    done = threading.Event()

    def kicker():  # wakes a pop parked in its wait so it can retire
        while not done.wait(0.001):
            q.kick()

    th = threading.Thread(target=kicker)
    th.start()
    try:
        return q.pop_batch(
            max_batch, batch_timeout_s, NO_ESTIMATE,
            stop=lambda: evaluated.append(1) or len(evaluated) > 1,
        )
    finally:
        done.set()
        th.join(10.0)


TENANTS = ("t0", "t1", "t2")

queue_policies = st.fixed_dictionaries({
    t: st.builds(
        TenantPolicy,
        weight=st.sampled_from([1.0, 2.0, 3.0]),
        priority=st.integers(0, 2),
        quota=st.one_of(st.none(), st.integers(1, 4)),
    )
    for t in TENANTS
})

queue_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from(TENANTS)),
        st.tuples(st.sampled_from(["pop", "pop", "pop", "close", "drain"])),
    ),
    max_size=40,
)


@given(
    policies=queue_policies,
    ops=queue_ops,
    scheduling=st.sampled_from(["weighted", "fifo"]),
    max_queue_depth=st.integers(1, 8),
    max_batch=st.integers(1, 4),
    timed_out=st.booleans(),
)
@example(
    # a tenant re-entering behind a busier peer joins at the peer's pass
    policies={t: TenantPolicy() for t in TENANTS},
    ops=[("put", "t0")] + [("put", "t1")] * 4 + [("pop",)] * 4
    + [("put", "t0"), ("pop",), ("pop",)],
    scheduling="weighted",
    max_queue_depth=8,
    max_batch=1,
    timed_out=True,
)
@settings(max_examples=200, deadline=None)
def test_per_tenant_fifos_match_the_flat_list_rules(
    policies, ops, scheduling, max_queue_depth, max_batch, timed_out
):
    # Puts happen in request_seq order, as one submitter makes them.  In
    # the dispatcher, a FIFO's tail order and request_seq order can
    # differ only when two submitters race between taking a seq and
    # calling put; then the queue's "oldest head" and "newest tail" read
    # put order within a tenant and request_seq across tenants.
    cfg = FleetConfig(
        tenants=policies,
        scheduling=scheduling,
        max_queue_depth=max_queue_depth,
    )
    q = RequestQueue(config=cfg)
    model = FlatQueueModel(cfg)
    # 0 s holds make every queued tenant due; a long hold leaves only
    # full tenants (and any tenant once the queue is closed) due
    batch_timeout_s = 0.0 if timed_out else 1e6
    queued = {}
    rejected = shed_total = 0
    for seq, op in enumerate(ops):
        if op[0] == "put":
            tenant = op[1]
            t = ticket(tenant, seq)
            try:
                q.put(t)
                got = ("admitted",)
            except AdmissionError as exc:
                got = ("quota" if "quota" in str(exc) else "capacity",)
            except ServingError:
                got = ("closed",)
            else:
                queued[seq] = t
            shed = [s for s, qt in queued.items() if qt.done()]
            for s in shed:
                del queued[s]
            want = model.put(tenant, seq)
            if isinstance(want, tuple):
                assert got == ("admitted",)
                assert shed == ([] if want[1] is None else [want[1]])
            else:
                assert got == (want,)
                assert shed == []
            rejected += got[0] in ("quota", "capacity")
            shed_total += len(shed)
        elif op[0] == "pop":
            batch = pop_or_none(q, max_batch, batch_timeout_s)
            got = None if batch is None else [t.request_seq for t in batch]
            assert got == model.pop(max_batch, timed_out)
            for s in got or ():
                del queued[s]
        elif op[0] == "close":
            q.close()
            model.closed = True
        else:
            assert [t.request_seq for t in q.drain()] == model.drain()
            queued.clear()
        assert len(q) == len(model.items)
        assert q.peak_depth == model.peak
    assert (q.rejected, q.shed) == (rejected, shed_total)
