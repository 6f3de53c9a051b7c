"""Self-healing coverage: planner-driven scaling, retry guardrail, reconfig.

Three layers:

* pure units on :meth:`Autoscaler.decide_target` — the model-driven
  path shares the heuristic's clamp / cooldown / shrink-patience
  hysteresis, pinned here with synthetic clocks;
* the fleet-wide retry-budget guardrail through a live dispatcher — a
  permanent poison with a generous ``max_attempts`` must stop retrying
  once the bucket drains, with the denial audited;
* the reconfiguration regression — ``apply_config`` worker clamps must
  not reset the EWMA service estimates, circuit-breaker state, or
  retry-budget history that mid-storm self-healing depends on.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

import repro
from repro.errors import RequestFailedError
from repro.graph.models import build_classifier_graph
from repro.serving import (
    Dispatcher,
    FaultPlan,
    FaultSpec,
    FleetConfig,
    RetryPolicy,
    repair_metrics,
)
from repro.serving.control import Autoscaler
from repro.serving.dispatcher import MODEL_MIN_ARRIVALS, MODEL_MIN_BATCHES


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
# decide_target (pure unit, synthetic clock)
# --------------------------------------------------------------------------- #
def make_scaler(**kw):
    defaults = dict(
        min_workers=1, max_workers=8, scale_patience=2,
        scale_cooldown_s=10.0,
    )
    defaults.update(kw)
    return Autoscaler(FleetConfig(**defaults))


class TestDecideTarget:
    def test_out_of_bounds_workers_clamp_immediately(self):
        scaler = make_scaler()
        # hard config bounds ignore cooldown and the planned target
        assert scaler.decide_target(target=4, workers=12, now=0.0) == 8
        assert scaler.decide_target(target=4, workers=0, now=0.0) == 1

    def test_target_is_clamped_into_the_config_range(self):
        scaler = make_scaler()
        assert scaler.decide_target(target=99, workers=2, now=100.0) == 8

    def test_growth_jumps_straight_to_target_after_cooldown(self):
        scaler = make_scaler()
        # a storm wants capacity now: no one-step ramp on the way up
        assert scaler.decide_target(target=6, workers=2, now=100.0) == 6
        # inside the cooldown window further growth is deferred
        assert scaler.decide_target(target=8, workers=6, now=105.0) is None
        assert scaler.decide_target(target=8, workers=6, now=110.0) == 8

    def test_shrink_steps_down_one_per_patience_streak(self):
        scaler = make_scaler()
        assert scaler.decide_target(target=1, workers=4, now=100.0) is None
        assert scaler.decide_target(target=1, workers=4, now=101.0) == 3
        # the streak resets after a shrink: patience starts over
        assert scaler.decide_target(target=1, workers=3, now=120.0) is None
        assert scaler.decide_target(target=1, workers=3, now=121.0) == 2

    def test_matching_target_resets_the_shrink_streak(self):
        scaler = make_scaler()
        assert scaler.decide_target(target=1, workers=2, now=100.0) is None
        # load came back: the planner agrees with the current fleet
        assert scaler.decide_target(target=2, workers=2, now=101.0) is None
        # the earlier low observation must not count toward patience
        assert scaler.decide_target(target=1, workers=2, now=102.0) is None
        assert scaler.decide_target(target=1, workers=2, now=103.0) == 1

    def test_shrink_respects_the_cooldown(self):
        scaler = make_scaler(scale_patience=1)
        assert scaler.decide_target(target=2, workers=1, now=100.0) == 2
        # patience satisfied, but the grow at t=100 started a cooldown
        assert scaler.decide_target(target=1, workers=2, now=105.0) is None
        assert scaler.decide_target(target=1, workers=2, now=110.0) == 1


# --------------------------------------------------------------------------- #
# retry-budget guardrail through a live dispatcher
# --------------------------------------------------------------------------- #
class TestRetryBudgetGuardrail:
    def test_budget_caps_retries_and_audits_the_denial(self, compiled_cls):
        # a permanent poison with six attempts allowed per request: the
        # first isolation run is mandatory, one extra retry fits the
        # burst, everything after that must be denied by the budget
        plan = FaultPlan(
            specs=(FaultSpec(site="dispatch.request", keys=(0,)),)
        )
        cfg = FleetConfig(
            min_workers=1, max_workers=1, max_batch=4,
            default_deadline_s=60.0, batch_timeout_s=0.0,
            retry=RetryPolicy(max_attempts=6, backoff_s=0.001),
            retry_budget_ratio=0.0, retry_budget_burst=1,
        )
        xs = make_inputs(compiled_cls, 4, seed=11)
        with Dispatcher(
            compiled_cls, workers=1, config=cfg, faults=plan
        ) as d:
            tickets = [d.submit(x) for x in xs]
            with pytest.raises(RequestFailedError):
                tickets[0].result(60.0)
            for t in tickets[1:]:
                t.result(60.0)
            stats = d.stats
        assert stats.failed == 1
        assert balance_holds(stats)
        # burst + ratio x admitted bounds the granted retries exactly
        assert stats.retries <= 1 + 0.0 * stats.submitted
        assert stats.retry_denied >= 1
        snap = stats.retry_budget
        assert snap["granted"] == stats.retries
        assert snap["denied"] == stats.retry_denied
        assert any(c.kind == "retry-budget" for c in stats.audit)

    def test_mandatory_isolation_run_is_not_budgeted(self, compiled_cls):
        # zero budget everywhere: quarantine still gets its one
        # isolation attempt per member, so a transient batch-level
        # fault (fail_attempts=1) is healed without spending retries
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="dispatch.request", keys=(1,), fail_attempts=1
                ),
            )
        )
        cfg = FleetConfig(
            min_workers=1, max_workers=1, max_batch=4,
            default_deadline_s=60.0, batch_timeout_s=0.0,
            retry=RetryPolicy(max_attempts=3, backoff_s=0.001),
            retry_budget_ratio=0.0, retry_budget_burst=0,
        )
        xs = make_inputs(compiled_cls, 4, seed=12)
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
        assert stats.retries == 0
        assert balance_holds(stats)


# --------------------------------------------------------------------------- #
# per-tenant audit records name their tenant
# --------------------------------------------------------------------------- #
class TestAuditTenants:
    def test_quoted_tenants_pair_their_own_repairs(self, compiled_cls):
        """Names with a quote, which ``repr`` puts in double quotes: the
        quarantine, degrade and restore records carry their tenant, so
        MTTR pairs each restore with its own tenant's degrade.  o'brien
        degrades at 0 s and is never restored; d'arcy degrades at 5 s
        and is restored at 6 s: MTTR 1 s."""
        tenants = ("o'brien", "d'arcy")
        plan = FaultPlan(
            specs=(FaultSpec(site="dispatch.request", keys=(0,)),)
        )
        # the poisoned request fails twice (its batch and one isolation
        # run), below the breaker's threshold
        cfg = FleetConfig(
            min_workers=1, max_workers=1, default_deadline_s=60.0,
            retry=RetryPolicy(max_attempts=1), breaker_threshold=4,
        )
        x = make_inputs(compiled_cls, 1, seed=15)[0]
        with Dispatcher(
            {t: compiled_cls for t in tenants}, workers=1,
            execution="turbo", config=cfg, faults=plan,
        ) as d:
            with pytest.raises(RequestFailedError):
                d.submit(x, tenant="o'brien").result(60.0)
            for tenant, outcomes in (
                ("o'brien", [(False, False)] * 4),
                ("d'arcy", [(False, False)] * 4 + [(True, True)]),
            ):
                breaker = d._breakers[tenant]
                for ok, probe in outcomes:
                    d._breaker_event(tenant, breaker.record(ok, probe=probe))
            audit = d.stats.audit
        breaker_events = [
            c for c in audit if c.kind in ("degrade", "restore")
        ]
        assert [c.kind for c in breaker_events] == [
            "degrade", "degrade", "restore"
        ]
        timed = [
            dataclasses.replace(c, at_s=at_s)
            for c, at_s in zip(breaker_events, (0.0, 5.0, 6.0))
        ]
        metrics = repair_metrics(timed)
        assert (metrics.failures, metrics.repairs) == (2, 1)
        assert metrics.mttr_s == pytest.approx(1.0)
        assert [(c.kind, c.tenant) for c in audit if c.tenant] == [
            ("quarantine", "o'brien"),
            ("degrade", "o'brien"),
            ("degrade", "d'arcy"),
            ("restore", "d'arcy"),
        ]


# --------------------------------------------------------------------------- #
# apply_config must not reset self-healing state (regression)
# --------------------------------------------------------------------------- #
class TestReconfigPreservesState:
    def test_worker_clamp_keeps_ewma_breaker_and_budget(self, compiled_cls):
        cfg = FleetConfig(
            min_workers=2, max_workers=4, max_batch=4,
            default_deadline_s=60.0, batch_timeout_s=0.0,
            breaker_threshold=2, breaker_cooldown_s=60.0,
            retry_budget_ratio=0.0, retry_budget_burst=2,
        )
        with Dispatcher(
            compiled_cls, workers=2, execution="turbo", config=cfg
        ) as d:
            d.run_many(make_inputs(compiled_cls, 8, seed=13), timeout=60.0)

            # warm state a storm would have built up: a learned EWMA,
            # an open breaker mid-cooldown, and a half-spent budget
            ewma = dict(d._service_s)
            assert ewma["default"] is not None and ewma["default"] > 0.0
            breaker = d._breakers["default"]
            assert breaker.record(ok=False) is None
            assert breaker.record(ok=False) == "open"
            assert breaker.state == "open"
            assert d._retry_budget.allow()
            before = d._retry_budget.snapshot

            # a mid-storm clamp: shrink the fleet, same budget knobs
            clamp = FleetConfig(
                min_workers=1, max_workers=2, max_batch=4,
                default_deadline_s=60.0, batch_timeout_s=0.0,
                breaker_threshold=2, breaker_cooldown_s=60.0,
                retry_budget_ratio=0.0, retry_budget_burst=2,
            )
            d.apply_config(clamp)

            # degradation bookkeeping survived the reconfiguration
            assert d._breakers["default"] is breaker
            assert breaker.state == "open"
            assert dict(d._service_s) == ewma
            after = d._retry_budget.snapshot
            assert after["granted"] == before["granted"] == 1
            assert after["denied"] == before["denied"]
            # and the spent burst was not re-minted: one grant left
            assert d._retry_budget.allow()
            assert not d._retry_budget.allow()

            # the fleet itself did clamp into the new range
            d.run_many(make_inputs(compiled_cls, 4, seed=14), timeout=60.0)
            stats = d.stats
            assert stats.workers <= 2
            assert balance_holds(stats)

    def test_budget_knob_raise_extends_history(self, compiled_cls):
        cfg = FleetConfig(
            min_workers=1, max_workers=1, max_batch=2,
            default_deadline_s=60.0, batch_timeout_s=0.0,
            retry_budget_ratio=0.0, retry_budget_burst=1,
        )
        with Dispatcher(compiled_cls, workers=1, config=cfg) as d:
            assert d._retry_budget.allow()
            assert not d._retry_budget.allow()
            richer = FleetConfig(
                min_workers=1, max_workers=1, max_batch=2,
                default_deadline_s=60.0, batch_timeout_s=0.0,
                retry_budget_ratio=0.0, retry_budget_burst=2,
            )
            d.apply_config(richer)
            # exactly one more grant: the old spend still counts
            assert d._retry_budget.allow()
            assert not d._retry_budget.allow()


# --------------------------------------------------------------------------- #
# model-driven planning through a live dispatcher
# --------------------------------------------------------------------------- #
class TestModelPlanning:
    def test_cold_fleet_has_no_plan(self, compiled_cls):
        cfg = FleetConfig(
            min_workers=1, max_workers=4, max_batch=2,
            default_deadline_s=60.0, batch_timeout_s=0.0,
            autoscale_mode="model",
        )
        with Dispatcher(compiled_cls, workers=1, config=cfg) as d:
            # below the observation floors the planner abstains and the
            # dispatcher steers by the queue-depth heuristic instead
            assert d._plan_workers(cfg) is None
            assert d.stats.planned_workers is None

    def test_calibrated_fleet_publishes_a_plan(self, compiled_cls):
        cfg = FleetConfig(
            min_workers=1, max_workers=4, max_batch=1,
            default_deadline_s=60.0, batch_timeout_s=0.0,
            autoscale_mode="model", scale_cooldown_s=0.0,
        )
        n = max(MODEL_MIN_ARRIVALS, MODEL_MIN_BATCHES) + 8
        with Dispatcher(compiled_cls, workers=1, config=cfg) as d:
            d.run_many(make_inputs(compiled_cls, n, seed=15), timeout=60.0)
            # the plan is made on the supervisor's sweep: wait for the
            # first sweep that finds the fleet calibrated
            deadline = time.monotonic() + 60.0
            while (
                d.stats.planned_workers is None
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            stats = d.stats
        assert stats.completed == n
        assert stats.planned_workers is not None
        assert 1 <= stats.planned_workers <= cfg.max_workers
        # the fleet converged to within the hysteresis of the plan
        assert abs(stats.workers - stats.planned_workers) <= 1
        assert balance_holds(stats)
