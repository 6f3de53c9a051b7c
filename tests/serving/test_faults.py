"""Fault-injection units: determinism, gating, kinds, scoping, wiring.

The contract under test: fault decisions are *pure hash draws* over
``(seed, site, key)`` — the same plan poisons the same keys in every
thread, process and re-run — and with no plan the whole subsystem is a
no-op.  The wiring tests prove each named injection point actually
fires from its real call site (``Session.run_batch``, the fast and
turbo backends), not just from the injector in isolation.
"""

from __future__ import annotations

import pickle
import time

import numpy as np
import pytest

import repro
from repro.errors import ConfigError, InjectedFaultError, WorkerCrashError
from repro.graph.models import build_classifier_graph
from repro.serving import FaultInjector, FaultPlan, FaultSpec, Session
from repro.serving.faults import (
    SITES,
    active_injector,
    perhaps,
    scope,
    stable_uniform,
)


def random_int8(rng, shape):
    return rng.integers(-128, 128, size=shape, dtype=np.int8)


@pytest.fixture(scope="module")
def compiled_cls():
    return repro.compile(
        build_classifier_graph("vww", classes=2), execution="fast"
    )


def input_shape(cm):
    return cm.graph.tensors[cm.graph.inputs[0]].spec.shape


def error_plan(site, **fields):
    return FaultPlan(specs=(FaultSpec(site=site, **fields),))


class TestStableUniform:
    def test_deterministic(self):
        assert stable_uniform(3, "site", 7) == stable_uniform(3, "site", 7)

    def test_range_and_spread(self):
        draws = [stable_uniform(0, "s", k) for k in range(256)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert len(set(draws)) == len(draws)

    def test_sensitive_to_every_part(self):
        base = stable_uniform(0, "s", 1)
        assert stable_uniform(1, "s", 1) != base
        assert stable_uniform(0, "t", 1) != base
        assert stable_uniform(0, "s", 2) != base


class TestValidation:
    @pytest.mark.parametrize(
        "fields",
        [
            dict(site=""),
            dict(site="x", kind="explode"),
            dict(site="x", rate=1.5),
            dict(site="x", rate=-0.1),
            dict(site="x", fail_attempts=0),
            dict(site="x", max_fires=0),
            dict(site="x", hang_s=-1.0),
        ],
    )
    def test_bad_spec_rejected(self, fields):
        with pytest.raises(ConfigError):
            FaultSpec(**fields).validate()

    def test_plan_rejects_non_spec_entries(self):
        with pytest.raises(ConfigError):
            FaultPlan(specs=("not a spec",)).validate()

    def test_injector_validates_at_construction(self):
        with pytest.raises(ConfigError):
            FaultInjector(error_plan("x", rate=2.0))

    def test_with_spec_appends(self):
        plan = FaultPlan(seed=9).with_spec(site="a").with_spec(site="b")
        assert plan.seed == 9
        assert [s.site for s in plan.specs] == ["a", "b"]

    def test_injector_wrapping_is_idempotent(self):
        inj = FaultInjector(error_plan("a"))
        assert FaultInjector(inj).plan is inj.plan

    def test_sites_cover_the_documented_stack(self):
        assert "dispatch.request" in SITES
        assert "worker.loop" in SITES


class TestDecisions:
    def test_rate_edges(self):
        always = FaultInjector(error_plan("s", rate=1.0))
        never = FaultInjector(error_plan("s", rate=0.0))
        keys = range(32)
        assert always.preview("s", keys) == tuple(keys)
        assert never.preview("s", keys) == ()

    def test_fractional_rate_is_deterministic_across_injectors(self):
        a = FaultInjector(error_plan("s", rate=0.3))
        b = FaultInjector(error_plan("s", rate=0.3))
        keys = range(200)
        poisoned = a.preview("s", keys)
        assert poisoned == b.preview("s", keys)
        # a 30% draw over 200 keys lands well inside (0, 200)
        assert 20 < len(poisoned) < 180

    def test_seed_changes_the_poison_set(self):
        keys = range(200)
        a = FaultInjector(FaultPlan(seed=0, specs=(FaultSpec("s", rate=0.3),)))
        b = FaultInjector(FaultPlan(seed=1, specs=(FaultSpec("s", rate=0.3),)))
        assert a.preview("s", keys) != b.preview("s", keys)

    def test_key_and_tenant_gating(self):
        inj = FaultInjector(
            error_plan("s", keys=(3, 5), tenants=("acme",))
        )
        assert inj.would_fire("s", key=3, tenant="acme")
        assert not inj.would_fire("s", key=4, tenant="acme")
        assert not inj.would_fire("s", key=3, tenant="globex")

    def test_fail_attempts_models_transient_faults(self):
        inj = FaultInjector(error_plan("s", fail_attempts=2))
        assert inj.would_fire("s", key=0, attempt=0)
        assert inj.would_fire("s", key=0, attempt=1)
        assert not inj.would_fire("s", key=0, attempt=2)

    def test_max_fires_budget(self):
        inj = FaultInjector(error_plan("s", max_fires=2))
        for _ in range(2):
            with pytest.raises(InjectedFaultError):
                inj.fire("s", key=0)
        inj.fire("s", key=0)  # budget spent: no-op
        assert inj.counts == {"s": 2}
        # would_fire reports the decision, not the budget
        assert inj.would_fire("s", key=0)

    def test_unlisted_site_never_fires(self):
        inj = FaultInjector(error_plan("s"))
        inj.fire("other", key=0)
        assert inj.counts == {}


class TestKinds:
    def test_error_raises_with_site(self):
        inj = FaultInjector(error_plan("s", message="boom"))
        with pytest.raises(InjectedFaultError) as e:
            inj.fire("s", key=1)
        assert e.value.site == "s"
        assert "boom" in str(e.value)

    def test_crash_raises_worker_crash(self):
        inj = FaultInjector(error_plan("s", kind="crash"))
        with pytest.raises(WorkerCrashError):
            inj.fire("s")
        assert issubclass(WorkerCrashError, InjectedFaultError)

    def test_hang_sleeps_then_continues(self):
        inj = FaultInjector(error_plan("s", kind="hang", hang_s=0.02))
        t0 = time.monotonic()
        inj.fire("s")  # must not raise
        assert time.monotonic() - t0 >= 0.02

    @pytest.mark.parametrize("cls", [InjectedFaultError, WorkerCrashError])
    def test_pickle_round_trip(self, cls):
        # the exceptions stay picklable for callers that ship them
        # across processes
        err = pickle.loads(pickle.dumps(cls("site.x", "child died")))
        assert type(err) is cls
        assert err.site == "site.x"
        assert err.message == "child died"


class TestScope:
    def test_active_injector_lifetime(self):
        inj = FaultInjector(FaultPlan())
        assert active_injector() is None
        with scope(inj):
            assert active_injector() is inj
            with scope(FaultInjector(FaultPlan(seed=1))) as inner:
                assert active_injector() is inner
            assert active_injector() is inj
        assert active_injector() is None

    def test_scope_restored_on_error(self):
        inj = FaultInjector(error_plan("s"))
        with pytest.raises(InjectedFaultError):
            with scope(inj):
                perhaps("s")
        assert active_injector() is None

    def test_perhaps_is_noop_without_scope(self):
        perhaps("s")  # no injector anywhere: must not raise

    def test_perhaps_reads_scope_context(self):
        inj = FaultInjector(error_plan("s", keys=(7,)))
        with scope(inj, key=8):
            perhaps("s")  # key 8 not poisoned
        with scope(inj, key=7):
            with pytest.raises(InjectedFaultError):
                perhaps("s")

    def test_explicit_injector_overrides_scope(self):
        quiet = FaultInjector(FaultPlan())
        loud = FaultInjector(error_plan("s"))
        with scope(quiet):
            with pytest.raises(InjectedFaultError):
                perhaps("s", loud)


class TestWiring:
    """Each named site fires from its real call site in the stack."""

    def test_session_run_batch_site(self, compiled_cls):
        x = random_int8(np.random.default_rng(0), input_shape(compiled_cls))
        session = Session(
            compiled_cls, faults=error_plan("session.run_batch")
        )
        with pytest.raises(InjectedFaultError) as e:
            session.run_batch([x])
        assert e.value.site == "session.run_batch"

    @pytest.mark.parametrize(
        "execution,site",
        [
            ("fast", "backend.fast"),
            ("turbo", "backend.turbo"),
            ("turbo", "backend.turbo.gemm"),
        ],
    )
    def test_backend_sites(self, compiled_cls, execution, site):
        x = random_int8(np.random.default_rng(1), input_shape(compiled_cls))
        session = Session(compiled_cls, execution=execution)
        with scope(FaultInjector(error_plan(site))):
            with pytest.raises(InjectedFaultError) as e:
                session.run_batch([x])
        assert e.value.site == site

    def test_backend_site_does_not_cross_backends(self, compiled_cls):
        x = random_int8(np.random.default_rng(2), input_shape(compiled_cls))
        session = Session(compiled_cls, execution="fast")
        with scope(FaultInjector(error_plan("backend.turbo.gemm"))):
            out = session.run_batch([x])[0].output
        np.testing.assert_array_equal(
            out, compiled_cls.run(x, execution="fast").output
        )

    def test_no_plan_is_a_noop(self, compiled_cls):
        x = random_int8(np.random.default_rng(3), input_shape(compiled_cls))
        session = Session(compiled_cls)
        out = session.run_batch([x])[0].output
        np.testing.assert_array_equal(
            out, compiled_cls.run(x, execution="fast").output
        )
