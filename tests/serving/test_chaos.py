"""Chaos hammer: seeded fault storms against a live dispatcher.

The acceptance property, hypothesis-style: for arbitrary seeds, fleet
shapes and poison rates, a storm over the dispatcher must satisfy

* **containment** — the set of failed requests equals exactly the
  plan's poisoned set (``FaultInjector.preview``); innocent co-batched
  requests always survive quarantine;
* **accounting** — ``admitted == completed + failed + shed`` balances
  after the dust settles;
* **bit-exactness** — every surviving output is identical to per-call
  ``execution="fast"`` (parity-locked to ``"simulate"``);
* **determinism** — replaying the same seed fails the same requests.

Every wait is bounded (no unbounded ``result()`` calls), so a hung
dispatcher fails the suite instead of wedging it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.errors import RequestFailedError, ServingError
from repro.graph.models import build_classifier_graph
from repro.serving import (
    Dispatcher,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    FleetConfig,
    RetryPolicy,
)

RESULT_TIMEOUT_S = 120.0


def random_int8(rng, shape):
    return rng.integers(-128, 128, size=shape, dtype=np.int8)


@pytest.fixture(scope="module")
def compiled_cls():
    return repro.compile(
        build_classifier_graph("vww", classes=2), execution="fast"
    )


def input_shape(cm):
    return cm.graph.tensors[cm.graph.inputs[0]].spec.shape


def run_storm(cm, plan, *, n, workers, max_batch, seed=0):
    """Flood one dispatcher under ``plan``; classify every outcome.

    Returns ``(ok_seqs, failed_seqs, stats)`` where ``ok_seqs`` maps
    request seq -> served output (already checked bit-exact) and
    ``failed_seqs`` is the set of seqs that raised
    :class:`RequestFailedError`.
    """
    rng = np.random.default_rng(seed)
    xs = [random_int8(rng, input_shape(cm)) for _ in range(n)]
    cfg = FleetConfig(
        min_workers=workers,
        max_workers=workers,
        max_batch=max_batch,
        max_queue_depth=4 * n + 8,
        default_deadline_s=60.0,
        batch_timeout_s=0.0,
        supervise_interval_s=0.01,
        retry=RetryPolicy(max_attempts=2, backoff_s=0.001),
    )
    failed = set()
    with Dispatcher(cm, workers=workers, config=cfg, faults=plan) as d:
        tickets = [d.submit(x) for x in xs]
        for x, t in zip(xs, tickets):
            try:
                res = t.result(RESULT_TIMEOUT_S)
            except RequestFailedError:
                failed.add(t.request_seq)
            else:
                np.testing.assert_array_equal(
                    res.output, cm.run(x, execution="fast").output
                )
        stats = d.stats
    return failed, stats


class TestChaosHammer:
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(4, 18),
        workers=st.integers(1, 3),
        max_batch=st.integers(1, 5),
        rate=st.sampled_from([0.0, 0.1, 0.3]),
    )
    @settings(max_examples=5, deadline=None)
    def test_poison_containment_and_balance(
        self, compiled_cls, seed, n, workers, max_batch, rate
    ):
        plan = FaultPlan(
            seed=seed,
            specs=(FaultSpec(site="dispatch.request", rate=rate),),
        )
        poisoned = set(
            FaultInjector(plan).preview("dispatch.request", range(n))
        )
        failed, stats = run_storm(
            compiled_cls, plan, n=n, workers=workers, max_batch=max_batch,
        )
        assert failed == poisoned
        assert stats.completed == n - len(poisoned)
        assert stats.failed == len(poisoned)
        assert stats.submitted == stats.completed + stats.failed + stats.shed
        if poisoned:
            assert stats.quarantined >= 1
            assert any(c.kind == "quarantine" for c in stats.audit)

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=4, deadline=None)
    def test_storm_with_worker_crashes(self, compiled_cls, seed):
        # poison + two whole-worker crashes: the supervisor must keep
        # the fleet at target and containment must still hold exactly
        n = 16
        plan = FaultPlan(
            seed=seed,
            specs=(
                FaultSpec(site="dispatch.request", rate=0.15),
                FaultSpec(
                    site="worker.loop", kind="crash", keys=(0, 1),
                    max_fires=2,
                ),
            ),
        )
        poisoned = set(
            FaultInjector(plan).preview("dispatch.request", range(n))
        )
        failed, stats = run_storm(
            compiled_cls, plan, n=n, workers=2, max_batch=4,
        )
        assert failed == poisoned
        assert stats.submitted == stats.completed + stats.failed + stats.shed
        assert stats.worker_crashes >= 1
        assert stats.workers == 2
        assert any(c.kind == "crash" for c in stats.audit)

    def test_same_seed_fails_the_same_requests(self, compiled_cls):
        plan = FaultPlan(
            seed=1234,
            specs=(FaultSpec(site="dispatch.request", rate=0.25),),
        )
        first, _ = run_storm(
            compiled_cls, plan, n=12, workers=2, max_batch=3
        )
        second, _ = run_storm(
            compiled_cls, plan, n=12, workers=3, max_batch=2
        )
        assert first == second  # fleet shape cannot move the poison
        assert first == set(
            FaultInjector(plan).preview("dispatch.request", range(12))
        )

    def test_breaker_degrades_and_restores_under_backend_faults(
        self, compiled_cls
    ):
        # a finite turbo brown-out: the breaker opens (degrade to
        # "fast"), probes turbo after each cooldown, and closes once
        # the fault budget is spent — with zero failed requests and
        # bit-exact outputs throughout
        import time

        plan = FaultPlan(
            specs=(FaultSpec(site="backend.turbo", max_fires=4),)
        )
        cfg = FleetConfig(
            min_workers=1, max_workers=1, max_batch=1,
            max_queue_depth=256, default_deadline_s=60.0,
            batch_timeout_s=0.0, breaker_threshold=2,
            breaker_cooldown_s=0.02,
            retry=RetryPolicy(max_attempts=3, backoff_s=0.001),
        )
        rng = np.random.default_rng(8)
        xs = [random_int8(rng, input_shape(compiled_cls)) for _ in range(20)]
        with Dispatcher(
            compiled_cls, workers=1, config=cfg, faults=plan
        ) as d:
            for x in xs:
                res = d.submit(x).result(RESULT_TIMEOUT_S)
                np.testing.assert_array_equal(
                    res.output,
                    compiled_cls.run(x, execution="fast").output,
                )
                time.sleep(0.002)
            # drive probes until the breaker closes (budget is finite)
            for _ in range(50):
                if not d.stats.degraded:
                    break
                time.sleep(0.03)
                d.submit(xs[0]).result(RESULT_TIMEOUT_S)
            stats = d.stats
        kinds = [c.kind for c in stats.audit]
        assert stats.failed == 0
        assert "degrade" in kinds
        assert "restore" in kinds
        assert stats.degraded == {}

    def test_ticket_failure_is_a_serving_error(self, compiled_cls):
        # API contract: RequestFailedError is catchable as ServingError,
        # so existing callers' error handling keeps working
        plan = FaultPlan(
            specs=(FaultSpec(site="dispatch.request", keys=(0,)),)
        )
        with Dispatcher(
            compiled_cls, workers=1, max_batch=1, batch_timeout_s=0.0,
            default_deadline_s=60.0, faults=plan,
        ) as d:
            with pytest.raises(ServingError):
                d.submit(random_int8(
                    np.random.default_rng(9), input_shape(compiled_cls)
                )).result(RESULT_TIMEOUT_S)

    def test_per_tenant_counts_match_the_tickets(self, compiled_cls):
        # Each tenant's failed and quarantined counts are exactly that
        # tenant's tickets that raised or were quarantined, and the
        # fleet's counts are their sums.  Permanent poison fails its
        # request, transient poison survives the isolation run, and a
        # hang parks the only worker so a tail is still queued at close.
        n, tail = 24, 6
        permanent, transient = (2, 5, 11, 16), (3, 8, 13)
        plan = FaultPlan(
            specs=(
                FaultSpec(site="dispatch.request", keys=permanent),
                FaultSpec(
                    site="dispatch.request", keys=transient, fail_attempts=1
                ),
                FaultSpec(
                    site="dispatch.request", kind="hang", keys=(n,),
                    hang_s=1.0,
                ),
            )
        )
        cfg = FleetConfig(
            min_workers=1, max_workers=1, max_batch=1,
            max_queue_depth=256, default_deadline_s=60.0,
        )
        tenants = ("a", "b")
        rng = np.random.default_rng(10)
        d = Dispatcher(
            {t: compiled_cls for t in tenants}, workers=1, config=cfg,
            faults=plan,
        )

        def submit(seqs):
            return [
                d.submit(
                    random_int8(rng, input_shape(compiled_cls)),
                    tenant=tenants[seq % 2],
                )
                for seq in seqs
            ]

        def settle(batch):
            for t in batch:
                try:
                    t.result(RESULT_TIMEOUT_S)
                except ServingError as exc:
                    raised[t.request_seq] = exc

        raised = {}
        tickets = []
        try:
            tickets += submit(range(n))
            settle(tickets)
            tickets += submit(range(n, n + tail))
        finally:
            d.close(timeout=0.2)
        settle(tickets[n:])
        stats = d.stats
        # submission is single-threaded: request_seq == submit index
        assert [t.request_seq for t in tickets] == list(range(n + tail))
        assert {
            s for s, e in raised.items() if isinstance(e, RequestFailedError)
        } == set(permanent)
        assert any(
            "closed before" in str(e) for s, e in raised.items() if s >= n
        )
        for tenant in tenants:
            mine = {t.request_seq for t in tickets if t.tenant == tenant}
            ts = stats.per_tenant[tenant]
            assert ts.failed == len(mine & set(raised))
            assert ts.quarantined == len(mine & {*permanent, *transient})
        assert stats.failed == len(raised)
        assert stats.quarantined == len(permanent) + len(transient)
        assert stats.submitted == stats.completed + stats.failed + stats.shed
