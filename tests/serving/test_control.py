"""Control-plane correctness: declarative config, live reconfiguration.

The operational layer must never touch the arithmetic: whatever configs
are applied, in whatever interleaving with live traffic, every served
request stays bit-identical to running it alone, admitted work is never
dropped by a reconfiguration (only priority shedding fails tickets, and
those are counted), and every change lands in the audit trail.  The
hammer test races ``apply_config`` against active workers and
submitters and checks the books balance afterwards.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.errors import AdmissionError, ConfigError, ServingError
from repro.graph.models import build_classifier_graph
from repro.serving import Dispatcher, FleetConfig, Session, TenantPolicy
from repro.serving.control import Autoscaler, ControlPlane


@pytest.fixture(scope="module")
def compiled_cls():
    return repro.compile(
        build_classifier_graph("vww", classes=2), execution="fast"
    )


def input_shape(cm):
    return cm.graph.tensors[cm.graph.inputs[0]].spec.shape


def random_int8(rng, shape):
    return rng.integers(-128, 128, size=shape, dtype=np.int8)


class TestConfigModel:
    def test_defaults_validate(self):
        FleetConfig().validate()
        TenantPolicy().validate("t")

    @pytest.mark.parametrize(
        "changes, match",
        [
            ({"min_workers": 0}, "min_workers"),
            ({"min_workers": 3, "max_workers": 2}, "max_workers"),
            ({"max_batch": 0}, "max_batch"),
            ({"max_queue_depth": -1}, "max_queue_depth"),
            ({"default_deadline_s": 0.0}, "default_deadline_s"),
            ({"batch_timeout_s": -0.1}, "batch_timeout_s"),
            ({"scheduling": "lifo"}, "scheduling"),
            ({"scale_up_backlog": 0.0}, "scale_up_backlog"),
            ({"scale_patience": 0}, "scale_patience"),
        ],
    )
    def test_fleet_validation(self, changes, match):
        with pytest.raises(ConfigError, match=match):
            FleetConfig(**changes).validate()

    @pytest.mark.parametrize(
        "changes, match",
        [
            ({"weight": 0.0}, "weight"),
            ({"weight": float("inf")}, "weight"),
            ({"priority": 1.5}, "priority"),
            ({"deadline_s": 0.0}, "deadline_s"),
            ({"quota": 0}, "quota"),
        ],
    )
    def test_policy_validation(self, changes, match):
        with pytest.raises(ConfigError, match=match):
            TenantPolicy(**changes).validate("acme")

    def test_policy_lookup_falls_back_to_default(self):
        cfg = FleetConfig(tenants={"vip": TenantPolicy(weight=4.0)})
        assert cfg.policy("vip").weight == 4.0
        assert cfg.policy("stranger") == TenantPolicy()

    def test_evolve_and_with_tenant_are_functional(self):
        cfg = FleetConfig()
        cfg2 = cfg.evolve(max_batch=16).with_tenant("vip", priority=3)
        assert cfg.max_batch == 8 and not cfg.tenants
        assert cfg2.max_batch == 16
        assert cfg2.policy("vip").priority == 3

    def test_diff_names_what_changed(self):
        old = FleetConfig()
        new = old.evolve(max_workers=9).with_tenant("vip", weight=2.0)
        lines = "\n".join(new.diff(old))
        assert "max_workers: 4 -> 9" in lines
        assert "vip" in lines
        assert new.diff(new) == ("no changes",)


class TestControlPlane:
    def test_subscribe_replays_current_config(self):
        seen = []

        class Sub:
            def apply_config(self, old, new):
                seen.append((old, new))

        cfg = FleetConfig(max_batch=3)
        cp = ControlPlane(cfg)
        cp.subscribe(Sub())
        assert seen == [(None, cfg)]

    def test_apply_swaps_notifies_and_audits(self):
        seen = []

        class Sub:
            def apply_config(self, old, new):
                seen.append(new.max_batch)

        cp = ControlPlane(FleetConfig(max_batch=2))
        cp.subscribe(Sub())
        change = cp.apply(FleetConfig(max_batch=5))
        assert seen == [2, 5]
        assert cp.config.max_batch == 5 and cp.epoch == 1
        assert change.kind == "config" and change.epoch == 1
        kinds = [c.kind for c in cp.audit()]
        assert kinds == ["init", "config"]

    def test_invalid_apply_is_fully_rejected(self):
        cp = ControlPlane(FleetConfig(max_batch=2))
        with pytest.raises(ConfigError):
            cp.apply(FleetConfig(min_workers=0))
        with pytest.raises(ConfigError, match="FleetConfig"):
            cp.apply({"max_batch": 4})
        assert cp.config.max_batch == 2 and cp.epoch == 0
        assert [c.kind for c in cp.audit()] == ["init"]

    def test_audit_is_bounded(self):
        cp = ControlPlane(FleetConfig(), audit_limit=4)
        for _ in range(10):
            cp.record("scale", "noop")
        assert len(cp.audit()) == 4


class TestAutoscaler:
    def config(self, **kw):
        base = dict(
            min_workers=1, max_workers=4, max_batch=4,
            default_deadline_s=0.5, scale_up_backlog=1.0,
            scale_down_backlog=0.5, scale_patience=2,
            scale_cooldown_s=1.0,
        )
        base.update(kw)
        return FleetConfig(**base)

    def test_scales_up_on_backlog(self):
        a = Autoscaler(self.config())
        # 32 queued / batch 4 = 8 backlog batches on 1 worker
        assert a.decide(queue_depth=32, workers=1, service_s=None, now=0.0) == 4

    def test_drain_time_signal_uses_service_estimate(self):
        a = Autoscaler(self.config())
        # 8 backlog batches x 0.1 s = 0.8 s of work; the 0.25 s budget
        # (half the default deadline) needs ceil(0.8/0.25) = 4 workers
        assert (
            a.decide(queue_depth=32, workers=2, service_s=0.1, now=0.0) == 4
        )

    def test_cooldown_blocks_repeat_resizes(self):
        a = Autoscaler(self.config())
        assert a.decide(queue_depth=32, workers=1, service_s=None, now=0.0) == 4
        assert (
            a.decide(queue_depth=64, workers=1, service_s=None, now=0.5)
            is None
        )
        assert (
            a.decide(queue_depth=64, workers=1, service_s=None, now=1.5) == 4
        )

    def test_shrink_needs_patience(self):
        a = Autoscaler(self.config(scale_cooldown_s=0.0))
        assert a.decide(queue_depth=0, workers=3, service_s=None, now=0.0) is None
        assert a.decide(queue_depth=0, workers=3, service_s=None, now=0.1) == 2

    def test_burst_resets_the_low_streak(self):
        a = Autoscaler(self.config(scale_cooldown_s=0.0))
        assert a.decide(queue_depth=0, workers=2, service_s=None, now=0.0) is None
        # a loaded observation interrupts the streak; the next idle one
        # must start counting again
        assert a.decide(queue_depth=8, workers=2, service_s=None, now=0.1) is None
        assert a.decide(queue_depth=0, workers=2, service_s=None, now=0.2) is None
        assert a.decide(queue_depth=0, workers=2, service_s=None, now=0.3) == 1

    def test_range_clamp_ignores_cooldown(self):
        a = Autoscaler(self.config(min_workers=2, max_workers=3))
        assert a.decide(queue_depth=0, workers=1, service_s=None, now=0.0) == 2
        assert a.decide(queue_depth=0, workers=9, service_s=None, now=0.0) == 3

    def test_apply_config_resets_streak(self):
        cfg = self.config(scale_cooldown_s=0.0)
        a = Autoscaler(cfg)
        assert a.decide(queue_depth=0, workers=3, service_s=None, now=0.0) is None
        a.apply_config(cfg, cfg.evolve(scale_patience=3))
        assert a.decide(queue_depth=0, workers=3, service_s=None, now=0.1) is None
        assert a.decide(queue_depth=0, workers=3, service_s=None, now=0.2) is None
        assert a.decide(queue_depth=0, workers=3, service_s=None, now=0.3) == 2


class TestLiveReconfiguration:
    def test_apply_config_resizes_running_fleet(self, compiled_cls):
        cfg = FleetConfig(min_workers=1, max_workers=1, max_batch=4)
        with Dispatcher(compiled_cls, workers=1, config=cfg) as d:
            assert d.worker_count == 1
            d.apply_config(cfg.evolve(min_workers=3, max_workers=3))
            deadline = time.monotonic() + 5.0
            while d.live_workers < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert d.worker_count == 3 and d.live_workers == 3
            d.apply_config(cfg.evolve(min_workers=1, max_workers=1))
            while d.live_workers > 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert d.worker_count == 1 and d.live_workers == 1
            st_ = d.stats
            assert st_.config_epoch == 2 and st_.workers == 1
            kinds = [c.kind for c in st_.audit]
            assert kinds == ["init", "config", "scale", "config", "scale"]
            # the fleet still serves after scaling both ways
            x = random_int8(np.random.default_rng(0), input_shape(compiled_cls))
            res = d.submit(x).result(30.0)
            np.testing.assert_array_equal(
                res.output, compiled_cls.run(x, execution="fast").output
            )

    def test_tenant_policy_supplies_deadline_default(self, compiled_cls):
        cfg = FleetConfig(
            tenants={"default": TenantPolicy(deadline_s=7.0)},
            default_deadline_s=0.5,
            min_workers=1, max_workers=1,
        )
        with Dispatcher(compiled_cls, workers=1, config=cfg) as d:
            t = d.submit(
                random_int8(np.random.default_rng(1), input_shape(compiled_cls))
            )
            assert t.deadline_t - t.enqueue_t == pytest.approx(7.0, abs=0.01)

    def test_invalid_config_leaves_live_fleet_untouched(self, compiled_cls):
        cfg = FleetConfig(min_workers=2, max_workers=2)
        with Dispatcher(compiled_cls, workers=2, config=cfg) as d:
            with pytest.raises(ConfigError):
                d.apply_config(cfg.evolve(max_batch=0))
            assert d.config == cfg and d.stats.config_epoch == 0
            assert d.worker_count == 2

    def test_apply_config_after_close_raises(self, compiled_cls):
        d = Dispatcher(compiled_cls, workers=1)
        d.close()
        with pytest.raises(ServingError, match="closed"):
            d.apply_config(FleetConfig())

    def test_legacy_kwargs_pin_the_fleet(self, compiled_cls):
        with Dispatcher(compiled_cls, workers=2, max_batch=3) as d:
            assert d.config.min_workers == d.config.max_workers == 2
            assert d.max_batch == 3

    def test_batch_former_is_work_conserving_by_default(self, compiled_cls):
        assert FleetConfig().batch_timeout_s == 0.0
        with Dispatcher(compiled_cls, workers=1) as d:
            assert d.batch_timeout_s == 0.0
            assert d.config.batch_timeout_s == 0.0

    def test_config_max_batch_above_kwarg_default_serves(self, compiled_cls):
        # regression: sessions must accept batches as large as the
        # config's max_batch, not just the constructor kwarg's default
        # (8) — a 16-wide batch used to fail every ticket in it
        cfg = FleetConfig(
            min_workers=1, max_workers=1, max_batch=16,
            default_deadline_s=30.0, batch_timeout_s=0.05,
        )
        with Dispatcher(compiled_cls, workers=1, config=cfg) as d:
            rng = np.random.default_rng(7)
            xs = [
                random_int8(rng, input_shape(compiled_cls))
                for _ in range(16)
            ]
            results = d.run_many(xs, timeout=60.0)
            for x, res in zip(xs, results):
                np.testing.assert_array_equal(
                    res.output, compiled_cls.run(x, execution="fast").output
                )
            assert d.stats.failed == 0

    def test_apply_config_can_raise_max_batch_live(self, compiled_cls):
        cfg = FleetConfig(
            min_workers=1, max_workers=1, max_batch=2,
            default_deadline_s=30.0,
        )
        with Dispatcher(compiled_cls, workers=1, config=cfg) as d:
            d.apply_config(cfg.evolve(max_batch=64))
            rng = np.random.default_rng(8)
            xs = [
                random_int8(rng, input_shape(compiled_cls))
                for _ in range(12)
            ]
            results = d.run_many(xs, timeout=60.0)
            for x, res in zip(xs, results):
                np.testing.assert_array_equal(
                    res.output, compiled_cls.run(x, execution="fast").output
                )
            assert d.stats.failed == 0

    def test_apply_config_rejects_max_batch_over_session_cap(
        self, compiled_cls
    ):
        cfg = FleetConfig(min_workers=1, max_workers=1)
        with Dispatcher(compiled_cls, workers=1, config=cfg) as d:
            with pytest.raises(ConfigError, match="session batch cap"):
                d.apply_config(cfg.evolve(max_batch=100_000))
            assert d.config == cfg and d.stats.config_epoch == 0

    def test_resize_cycles_prune_dead_worker_threads(self, compiled_cls):
        cfg = FleetConfig(min_workers=1, max_workers=3)
        with Dispatcher(compiled_cls, workers=1, config=cfg) as d:

            def wait_workers(n):
                deadline = time.monotonic() + 5.0
                while d.live_workers != n and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert d.live_workers == n

            for _ in range(4):
                d.apply_config(cfg.evolve(min_workers=3, max_workers=3))
                wait_workers(3)
                d.apply_config(cfg.evolve(min_workers=1, max_workers=1))
                wait_workers(1)
            d.apply_config(cfg.evolve(min_workers=2, max_workers=2))
            wait_workers(2)
            # the registry must not hoard a Thread per retired shard;
            # once the retirees exit, pruning leaves only the live fleet
            deadline = time.monotonic() + 5.0
            n = len(d._threads)
            while time.monotonic() < deadline:
                with d._scale_lock:
                    d._prune_dead_workers()
                    n = len(d._threads)
                if n <= 2:
                    break
                time.sleep(0.01)
            assert n <= 2

    def test_autoscaler_grows_under_backlog(self, compiled_cls, monkeypatch):
        # The backlog must reach the autoscaler before any batch finishes:
        # from the first service sample on, its drain-time rule (backlog x
        # service time within half the 30 s deadline) rightly keeps one
        # worker.  The autoscaler observes only on the supervisor's sweep,
        # so batches wait until a sweep has audited the resize (or the
        # deadline passes), whenever the sweep happens to land.
        scaled = threading.Event()
        run_batch = Session.run_batch

        def after_scale(self, *args, **kwargs):
            scaled.wait(60.0)
            return run_batch(self, *args, **kwargs)

        monkeypatch.setattr(Session, "run_batch", after_scale)
        cfg = FleetConfig(
            min_workers=1, max_workers=3, max_batch=1,
            max_queue_depth=256, scale_cooldown_s=0.0,
            default_deadline_s=30.0,
        )
        with Dispatcher(compiled_cls, workers=1, config=cfg) as d:
            rng = np.random.default_rng(2)
            tickets = [
                d.submit(random_int8(rng, input_shape(compiled_cls)))
                for _ in range(24)
            ]
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline and not any(
                c.kind == "scale" for c in d.control.audit()
            ):
                time.sleep(0.005)
            scaled.set()
            for t in tickets:
                t.result(60.0)
            st_ = d.stats
        assert st_.workers > 1
        assert any(c.kind == "scale" for c in st_.audit)
        assert st_.completed == 24


class TestReconfigBitExactness:
    @given(
        seed=st.integers(0, 2**31),
        script=st.lists(
            st.sampled_from(["submit", "weights", "workers", "batch"]),
            min_size=3,
            max_size=12,
        ),
    )
    @settings(max_examples=6, deadline=None)
    def test_outputs_survive_arbitrary_reconfig_interleavings(
        self, compiled_cls, seed, script
    ):
        rng = np.random.default_rng(seed)
        cfg = FleetConfig(
            tenants={"default": TenantPolicy(weight=1.0)},
            min_workers=1, max_workers=3, max_batch=4,
            default_deadline_s=30.0,
        )
        tickets = []
        xs = []
        with Dispatcher(compiled_cls, workers=1, config=cfg) as d:
            for step in script:
                if step == "submit":
                    x = random_int8(rng, input_shape(compiled_cls))
                    xs.append(x)
                    tickets.append(d.submit(x))
                elif step == "weights":
                    d.apply_config(
                        d.config.with_tenant(
                            "default", weight=float(rng.integers(1, 9)),
                            priority=int(rng.integers(0, 3)),
                        )
                    )
                elif step == "workers":
                    n = int(rng.integers(1, 4))
                    d.apply_config(
                        d.config.evolve(min_workers=n, max_workers=n)
                    )
                else:
                    d.apply_config(
                        d.config.evolve(max_batch=int(rng.integers(1, 7)))
                    )
            results = [t.result(60.0) for t in tickets]
            st_ = d.stats
        for x, res in zip(xs, results):
            ref = compiled_cls.run(x, execution="fast")
            np.testing.assert_array_equal(res.output, ref.output)
            assert res.stats.report.cycles == ref.report.cycles
            assert res.stats.report.energy_mj == ref.report.energy_mj
        assert st_.completed == len(xs)
        assert st_.config_epoch == sum(1 for s in script if s != "submit")


class TestReconfigHammer:
    def test_apply_config_races_active_workers(self, compiled_cls):
        """Reconfig under fire: no torn stats, no dropped admitted work.

        Submitter threads flood two tenants while a config thread flips
        weights, priorities, batch sizes and worker counts as fast as it
        can.  Afterwards every ticket must have resolved (served with
        bit-exact output, or shed/rejected with AdmissionError) and the
        books must balance: admitted == completed + shed.
        """
        shape = input_shape(compiled_cls)
        rng = np.random.default_rng(23)
        pool = [random_int8(rng, shape) for _ in range(4)]
        expected = [
            compiled_cls.run(x, execution="fast").output for x in pool
        ]
        cfg = FleetConfig(
            tenants={
                "gold": TenantPolicy(weight=2.0, priority=1),
                "bronze": TenantPolicy(weight=1.0, priority=0, quota=32),
            },
            min_workers=1, max_workers=3, max_batch=4,
            max_queue_depth=64, default_deadline_s=30.0,
            scale_cooldown_s=0.0,
        )
        models = {"gold": compiled_cls, "bronze": compiled_cls}
        stop = threading.Event()
        tickets: list[tuple[int, object]] = []
        tickets_lock = threading.Lock()
        rejected = [0]
        errors: list[BaseException] = []

        with Dispatcher(models, workers=1, config=cfg) as d:

            def submitter(tenant, seed):
                srng = np.random.default_rng(seed)
                while not stop.is_set():
                    i = int(srng.integers(0, len(pool)))
                    try:
                        t = d.submit(pool[i], tenant=tenant)
                    except AdmissionError:
                        rejected[0] += 1
                        time.sleep(0.001)
                        continue
                    with tickets_lock:
                        tickets.append((i, t))

            def reconfigure(seed):
                crng = np.random.default_rng(seed)
                while not stop.is_set():
                    kind = int(crng.integers(0, 3))
                    try:
                        if kind == 0:
                            d.apply_config(
                                d.config.with_tenant(
                                    "gold",
                                    weight=float(crng.integers(1, 9)),
                                    priority=int(crng.integers(0, 3)),
                                )
                            )
                        elif kind == 1:
                            n = int(crng.integers(1, 4))
                            d.apply_config(
                                d.config.evolve(
                                    min_workers=n, max_workers=3
                                )
                            )
                        else:
                            d.apply_config(
                                d.config.evolve(
                                    max_batch=int(crng.integers(1, 7))
                                )
                            )
                    except BaseException as exc:  # noqa: BLE001
                        errors.append(exc)
                        return
                    time.sleep(0.0005)

            threads = [
                threading.Thread(target=submitter, args=("gold", 1)),
                threading.Thread(target=submitter, args=("bronze", 2)),
                threading.Thread(target=reconfigure, args=(3,)),
            ]
            for th in threads:
                th.start()
            time.sleep(1.5)
            stop.set()
            for th in threads:
                th.join(10.0)
                assert not th.is_alive()
            assert not errors, f"apply_config raised under race: {errors!r}"

            served = shed = 0
            for i, t in tickets:
                try:
                    res = t.result(60.0)
                except AdmissionError:
                    shed += 1
                    continue
                served += 1
                np.testing.assert_array_equal(res.output, expected[i])
            st_ = d.stats
            # the books balance: every admitted request either completed
            # or was shed in favor of higher-priority work; none vanished
            assert served + shed == len(tickets)
            assert st_.submitted == len(tickets)
            assert st_.completed == served
            assert st_.shed == shed
            assert st_.failed == 0
            assert st_.rejected == rejected[0]
            assert served > 0
            # the audit trail recorded the reconfiguration storm
            assert st_.config_epoch > 0
            assert len(st_.audit) > 1
