"""Resilience-layer coverage: breaker, retry, quarantine, supervision.

Three layers of tests:

* pure units — :class:`CircuitBreaker` against an injected clock and
  :class:`RetryPolicy` arithmetic, no threads anywhere;
* dispatcher behaviors under seeded :class:`FaultPlan`\\ s — poison
  containment (innocent co-batched requests must survive), transient
  faults recovered by backoff retries, the deadline budget cutting
  retries short, dead-worker respawn, and the close() discipline
  (one shared join deadline; queued leftovers failed, never leaked);
* the process-mode child-death path (POSIX only): a pool child killed
  mid-batch must surface as a rebuilt pool plus quarantined re-runs,
  with the ``admitted == completed + failed + shed`` balance intact.
"""

from __future__ import annotations

import multiprocessing
import threading
import time

import numpy as np
import pytest

import repro
from repro.errors import (
    ConfigError,
    InjectedFaultError,
    RequestFailedError,
    ServingError,
)
from repro.graph.models import build_classifier_graph
from repro.serving import (
    CircuitBreaker,
    Dispatcher,
    FaultPlan,
    FaultSpec,
    FleetConfig,
    RetryPolicy,
    TenantPolicy,
)
from repro.serving.resilience import DEGRADE_CHAIN

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def random_int8(rng, shape):
    return rng.integers(-128, 128, size=shape, dtype=np.int8)


@pytest.fixture(scope="module")
def compiled_cls():
    return repro.compile(
        build_classifier_graph("vww", classes=2), execution="fast"
    )


def input_shape(cm):
    return cm.graph.tensors[cm.graph.inputs[0]].spec.shape


def make_inputs(cm, n, seed=0):
    rng = np.random.default_rng(seed)
    return [random_int8(rng, input_shape(cm)) for _ in range(n)]


def balance_holds(stats):
    return stats.submitted == stats.completed + stats.failed + stats.shed


# --------------------------------------------------------------------------- #
# circuit breaker (pure unit, injected clock)
# --------------------------------------------------------------------------- #
def make_breaker(primary="turbo", threshold=2, cooldown=1.0):
    clock = [0.0]
    cfg = FleetConfig(
        breaker_threshold=threshold, breaker_cooldown_s=cooldown
    )
    return CircuitBreaker(primary, lambda: cfg, now=lambda: clock[0]), clock


class TestCircuitBreaker:
    def test_degrade_chain_is_bit_exact_by_construction(self):
        # every fallback is a registered backend; "fast" is terminal
        assert DEGRADE_CHAIN == {"turbo": "fast"}

    def test_starts_closed_on_primary(self):
        br, _ = make_breaker()
        assert br.state == "closed"
        assert br.plan_execution() == ("turbo", False)

    def test_inert_without_a_fallback(self):
        br, _ = make_breaker(primary="fast")
        for _ in range(10):
            assert br.record(False) is None
        assert br.state == "closed"
        assert br.plan_execution() == ("fast", False)

    def test_opens_at_threshold(self):
        br, _ = make_breaker(threshold=3)
        assert br.record(False) is None
        assert br.record(False) is None
        assert br.record(False) == "open"
        assert br.state == "open"
        assert br.execution == "fast"
        assert br.plan_execution() == ("fast", False)

    def test_success_resets_the_streak_while_closed(self):
        br, _ = make_breaker(threshold=2)
        br.record(False)
        br.record(True)
        assert br.record(False) is None  # streak restarted, not at 2
        assert br.state == "closed"

    def test_single_probe_elected_after_cooldown(self):
        br, clock = make_breaker(threshold=1, cooldown=5.0)
        assert br.record(False) == "open"
        assert br.plan_execution() == ("fast", False)  # cooling down
        clock[0] = 6.0
        assert br.plan_execution() == ("turbo", True)  # the probe
        # concurrent batches keep degrading while the probe is in flight
        assert br.plan_execution() == ("fast", False)

    def test_probe_success_closes(self):
        br, clock = make_breaker(threshold=1, cooldown=1.0)
        br.record(False)
        clock[0] = 2.0
        assert br.plan_execution() == ("turbo", True)
        assert br.record(True, probe=True) == "close"
        assert br.state == "closed"
        assert br.plan_execution() == ("turbo", False)

    def test_probe_failure_rearms_the_cooldown(self):
        br, clock = make_breaker(threshold=1, cooldown=1.0)
        br.record(False)
        clock[0] = 2.0
        assert br.plan_execution() == ("turbo", True)
        assert br.record(False, probe=True) is None
        assert br.state == "open"
        assert br.plan_execution() == ("fast", False)  # re-armed
        clock[0] = 3.5
        assert br.plan_execution() == ("turbo", True)  # next probe


class TestRetryPolicy:
    @pytest.mark.parametrize(
        "fields",
        [
            dict(max_attempts=0),
            dict(backoff_s=-1.0),
            dict(multiplier=0.5),
            dict(jitter=1.5),
        ],
    )
    def test_bad_policy_rejected(self, fields):
        with pytest.raises(ConfigError):
            RetryPolicy(**fields).validate()

    def test_first_attempt_has_no_backoff(self):
        assert RetryPolicy(max_attempts=3).backoff(1) == 0.0

    def test_exponential_growth_within_jitter_band(self):
        p = RetryPolicy(max_attempts=5, backoff_s=0.1, jitter=0.5)
        for attempt in (2, 3, 4):
            base = 0.1 * 2.0 ** (attempt - 2)
            d = p.backoff(attempt, key=11)
            assert 0.5 * base <= d <= 1.5 * base

    def test_backoff_is_deterministic_per_key_and_attempt(self):
        p = RetryPolicy(max_attempts=3, backoff_s=0.1)
        assert p.backoff(2, key=5) == p.backoff(2, key=5)
        assert p.backoff(2, key=5) != p.backoff(2, key=6)

    def test_zero_jitter_is_exact(self):
        p = RetryPolicy(max_attempts=4, backoff_s=0.1, jitter=0.0)
        assert p.backoff(3) == pytest.approx(0.2)

    def test_fleet_config_validates_resilience_knobs(self):
        for bad in (
            dict(retry=RetryPolicy(max_attempts=0)),
            dict(breaker_threshold=0),
            dict(breaker_cooldown_s=-1.0),
            dict(supervise_interval_s=0.0),
            dict(process_result_timeout_s=0.0),
        ):
            with pytest.raises(ConfigError):
                FleetConfig(**bad).validate()

    def test_fleet_config_diff_covers_resilience_knobs(self):
        old = FleetConfig()
        new = old.evolve(
            retry=RetryPolicy(max_attempts=3), breaker_threshold=2
        )
        joined = " ".join(new.diff(old))
        assert "retry" in joined
        assert "breaker_threshold" in joined


# --------------------------------------------------------------------------- #
# quarantine + retry through a live dispatcher
# --------------------------------------------------------------------------- #
class TestQuarantine:
    def test_only_the_poisoned_request_fails(self, compiled_cls):
        plan = FaultPlan(
            specs=(FaultSpec(site="dispatch.request", keys=(2,)),)
        )
        xs = make_inputs(compiled_cls, 6, seed=1)
        with Dispatcher(
            compiled_cls, workers=1, max_batch=6, batch_timeout_s=0.0,
            default_deadline_s=60.0, faults=plan,
        ) as d:
            tickets = [d.submit(x) for x in xs]
            outcomes = []
            for t in tickets:
                try:
                    outcomes.append(t.result(60.0))
                except ServingError as e:
                    outcomes.append(e)
            stats = d.stats
        for seq, (x, out) in enumerate(zip(xs, outcomes)):
            if seq == 2:
                assert isinstance(out, RequestFailedError)
                assert out.request_seq == 2
                assert out.tenant == "default"
                assert isinstance(out.__cause__, InjectedFaultError)
            else:
                np.testing.assert_array_equal(
                    out.output,
                    compiled_cls.run(x, execution="fast").output,
                )
        assert stats.failed == 1
        assert stats.quarantined >= 1
        assert stats.per_tenant["default"].failed == 1
        assert stats.per_tenant["default"].quarantined >= 1
        assert balance_holds(stats)
        assert any(c.kind == "quarantine" for c in stats.audit)

    def test_transient_fault_recovered_by_backoff_retry(self, compiled_cls):
        # fires at attempt 0 (the batch) and attempt 1 (first isolation
        # run); attempt 2 succeeds, so max_attempts=3 saves the request
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="dispatch.request", keys=(0,), fail_attempts=2
                ),
            )
        )
        cfg = FleetConfig(
            min_workers=1, max_workers=1, max_batch=2,
            default_deadline_s=60.0, batch_timeout_s=0.0,
            retry=RetryPolicy(max_attempts=3, backoff_s=0.001),
        )
        xs = make_inputs(compiled_cls, 2, seed=2)
        with Dispatcher(
            compiled_cls, workers=1, config=cfg, faults=plan
        ) as d:
            results = d.run_many(xs, timeout=60.0)
            stats = d.stats
        for x, res in zip(xs, results):
            np.testing.assert_array_equal(
                res.output, compiled_cls.run(x, execution="fast").output
            )
        assert stats.failed == 0
        assert stats.retries >= 1
        assert balance_holds(stats)

    def test_retry_respects_the_deadline_budget(self, compiled_cls):
        # a permanent poison plus a huge backoff: the retry loop must
        # give up against the deadline instead of sleeping through it
        plan = FaultPlan(
            specs=(FaultSpec(site="dispatch.request", keys=(0,)),)
        )
        cfg = FleetConfig(
            min_workers=1, max_workers=1, max_batch=1,
            default_deadline_s=0.25, batch_timeout_s=0.0,
            retry=RetryPolicy(max_attempts=6, backoff_s=30.0),
        )
        x = make_inputs(compiled_cls, 1, seed=3)[0]
        t0 = time.monotonic()
        with Dispatcher(
            compiled_cls, workers=1, config=cfg, faults=plan
        ) as d:
            ticket = d.submit(x)
            with pytest.raises(RequestFailedError) as e:
                ticket.result(30.0)
        assert time.monotonic() - t0 < 10.0  # never slept 30 s
        assert e.value.attempts < 6 + 1

    def test_failed_batches_update_the_service_estimate(self, compiled_cls):
        # satellite: the EWMA the autoscaler and retry budget consult
        # must learn from failed batches too, not just successes
        plan = FaultPlan(
            specs=(FaultSpec(site="dispatch.request", keys=(0, 1)),)
        )
        with Dispatcher(
            compiled_cls, workers=1, max_batch=1, batch_timeout_s=0.0,
            default_deadline_s=60.0, faults=plan,
        ) as d:
            for t in [d.submit(x) for x in make_inputs(compiled_cls, 2)]:
                with pytest.raises(RequestFailedError):
                    t.result(60.0)
            assert d._service_s.get("default", 0.0) > 0.0


# --------------------------------------------------------------------------- #
# worker supervision
# --------------------------------------------------------------------------- #
class TestSupervisor:
    def test_crashed_worker_is_respawned(self, compiled_cls):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="worker.loop", kind="crash", keys=(0,),
                    max_fires=1,
                ),
            )
        )
        cfg = FleetConfig(
            min_workers=2, max_workers=2, max_batch=4,
            default_deadline_s=60.0, batch_timeout_s=0.0,
            supervise_interval_s=0.01,
        )
        xs = make_inputs(compiled_cls, 12, seed=4)
        with Dispatcher(
            compiled_cls, workers=2, config=cfg, faults=plan
        ) as d:
            results = d.run_many(xs, timeout=60.0)
            stats = d.stats
        assert len(results) == 12
        assert stats.completed == 12
        assert stats.worker_crashes >= 1
        assert stats.workers == 2  # back at target after the respawn
        assert any(c.kind == "crash" for c in stats.audit)
        assert balance_holds(stats)

    def test_supervisor_thread_stops_on_close(self, compiled_cls):
        d = Dispatcher(compiled_cls, workers=1)
        supervisor = d._supervisor
        assert supervisor.is_alive()
        d.close()
        supervisor.join(5.0)
        assert not supervisor.is_alive()


# --------------------------------------------------------------------------- #
# close(): one shared deadline, leftovers failed loudly
# --------------------------------------------------------------------------- #
class TestClose:
    def test_close_joins_against_one_shared_deadline(self, compiled_cls):
        # every worker sleeps 2 s per loop turn; with 3 workers a
        # per-worker timeout would cost ~3x, the shared deadline ~1x
        plan = FaultPlan(
            specs=(FaultSpec(site="worker.loop", kind="hang", hang_s=2.0),)
        )
        d = Dispatcher(
            compiled_cls, workers=3, batch_timeout_s=0.0, faults=plan
        )
        time.sleep(0.1)  # let the workers enter their hang
        t0 = time.monotonic()
        unjoined = d.close(timeout=0.3)
        elapsed = time.monotonic() - t0
        assert elapsed < 1.5  # shared budget, not 3 x 0.3 (nor 3 x 2 s)
        assert len(unjoined) >= 1
        assert d.stats.unjoined_workers == unjoined
        assert any(c.kind == "close" for c in d.stats.audit)

    def test_queued_tickets_fail_with_serving_error_at_close(
        self, compiled_cls
    ):
        # workers hang long enough that close()'s join deadline expires
        # with requests still queued; those tickets must fail loudly
        # (and promptly) instead of deadlocking their waiters
        plan = FaultPlan(
            specs=(FaultSpec(site="worker.loop", kind="hang", hang_s=1.0),)
        )
        xs = make_inputs(compiled_cls, 8, seed=5)
        d = Dispatcher(
            compiled_cls, workers=1, max_batch=1, batch_timeout_s=0.0,
            default_deadline_s=60.0, faults=plan,
        )
        tickets = [d.submit(x) for x in xs]
        d.close(timeout=0.2)
        t0 = time.monotonic()
        failed = 0
        for t in tickets:
            try:
                t.result(5.0)
            except ServingError:
                failed += 1
        assert time.monotonic() - t0 < 5.0  # nobody waited out a timeout
        assert failed >= 1
        stats = d.stats
        assert stats.failed >= failed
        assert balance_holds(stats)

    def test_submit_racing_close_never_deadlocks(self, compiled_cls):
        # regression: a ticket admitted concurrently with close() must
        # resolve (served or failed), never hang its waiter
        xs = make_inputs(compiled_cls, 16, seed=6)
        d = Dispatcher(
            compiled_cls, workers=1, max_batch=2, batch_timeout_s=0.0,
            default_deadline_s=60.0,
        )
        tickets = []
        errors = []

        def flood():
            for x in xs:
                try:
                    tickets.append(d.submit(x))
                except ServingError:
                    break  # closed mid-flood: expected

        flooder = threading.Thread(target=flood)
        flooder.start()
        time.sleep(0.005)
        d.close(timeout=10.0)
        flooder.join(10.0)
        assert not flooder.is_alive()
        for t in tickets:
            try:
                t.result(10.0)
            except ServingError as e:
                errors.append(e)
        stats = d.stats
        assert stats.submitted == len(tickets)
        assert balance_holds(stats)


# --------------------------------------------------------------------------- #
# process-mode child death (POSIX)
# --------------------------------------------------------------------------- #
@pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
class TestProcessChildDeath:
    def test_killed_child_rebuilds_pool_and_recovers(self, compiled_cls):
        # one child os._exit()s while holding request 3's batch; the
        # waiting worker times out, rebuilds the pool, and quarantine
        # re-runs every member — the kill is transient (fail_attempts=1)
        # so all requests ultimately succeed
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="process.child", kind="exit", keys=(3,),
                    fail_attempts=1, max_fires=1,
                ),
            )
        )
        cfg = FleetConfig(
            min_workers=2, max_workers=2, max_batch=4,
            default_deadline_s=60.0, batch_timeout_s=0.0,
            process_result_timeout_s=1.0,
            retry=RetryPolicy(max_attempts=2, backoff_s=0.001),
        )
        xs = make_inputs(compiled_cls, 8, seed=7)
        with Dispatcher(
            compiled_cls, workers=2, worker_mode="process", config=cfg,
            faults=plan,
        ) as d:
            results = d.run_many(xs, timeout=120.0)
            stats = d.stats
        for x, res in zip(xs, results):
            np.testing.assert_array_equal(
                res.output, compiled_cls.run(x, execution="fast").output
            )
        assert stats.completed == 8
        assert stats.failed == 0
        assert stats.pool_rebuilds >= 1
        assert stats.quarantined >= 1
        assert any(c.kind == "pool" for c in stats.audit)
        assert balance_holds(stats)
