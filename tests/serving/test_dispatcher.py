"""Dispatcher correctness: sharding must change wall clock, never bits.

Property-style coverage of the acceptance criteria: under arbitrary
arrival interleavings, batch formation, worker counts and tenant mixes,
every request's outputs and per-request ``CostReport`` are bit-identical
to running it alone (``"fast"``, parity-locked to ``"simulate"``; plus a
direct simulate spot check).  Scheduling behaviors — starvation freedom,
deadline accounting, admission control — and the shared multi-tenant
``PlanCache`` are exercised explicitly.
"""

from __future__ import annotations

import gc
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.compiler import PlanCache
from repro.errors import AdmissionError, ServingError
from repro.graph.models import build_classifier_graph, build_network_graph
from repro.serving import Dispatcher


def random_int8(rng, shape):
    return rng.integers(-128, 128, size=shape, dtype=np.int8)


@pytest.fixture(scope="module")
def compiled_cls():
    return repro.compile(
        build_classifier_graph("vww", classes=2), execution="fast"
    )


@pytest.fixture(scope="module")
def compiled_bb():
    return repro.compile(build_network_graph("vww"), execution="fast")


def input_shape(cm):
    return cm.graph.tensors[cm.graph.inputs[0]].spec.shape


def assert_bit_exact(cm, x, dispatched):
    fast = cm.run(x, execution="fast")
    np.testing.assert_array_equal(dispatched.output, fast.output)
    rep, ref = dispatched.stats.report, fast.report
    assert rep.cycles == ref.cycles
    assert rep.instructions == ref.instructions
    assert rep.macs == ref.macs
    assert rep.sram_bytes == ref.sram_bytes
    assert rep.flash_bytes == ref.flash_bytes
    assert rep.modulo_ops == ref.modulo_ops
    assert rep.energy_mj == ref.energy_mj


class TestBitExactness:
    @given(
        n=st.integers(1, 10),
        workers=st.integers(1, 4),
        max_batch=st.integers(1, 6),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=8, deadline=None)
    def test_interleavings_single_tenant(
        self, compiled_cls, n, workers, max_batch, seed
    ):
        rng = np.random.default_rng(seed)
        xs = [random_int8(rng, input_shape(compiled_cls)) for _ in range(n)]
        with Dispatcher(
            compiled_cls, workers=workers, max_batch=max_batch,
            batch_timeout_s=0.001,
        ) as d:
            results = d.run_many(xs, timeout=60.0)
        assert len(results) == n
        for x, res in zip(xs, results):
            assert_bit_exact(compiled_cls, x, res)

    @given(seed=st.integers(0, 2**31), pattern=st.lists(
        st.sampled_from(["bb", "cls"]), min_size=2, max_size=14,
    ))
    @settings(max_examples=6, deadline=None)
    def test_tenant_mixing(self, compiled_cls, compiled_bb, seed, pattern):
        rng = np.random.default_rng(seed)
        models = {"bb": compiled_bb, "cls": compiled_cls}
        reqs = [
            (t, random_int8(rng, input_shape(models[t]))) for t in pattern
        ]
        with Dispatcher(models, workers=3, max_batch=4) as d:
            results = d.run_many(reqs, timeout=60.0)
            stats = d.stats
        for (tenant, x), res in zip(reqs, results):
            assert res.tenant == tenant
            assert_bit_exact(models[tenant], x, res)
        assert stats.completed == len(pattern)
        assert sum(t.requests for t in stats.per_tenant.values()) == len(
            pattern
        )

    def test_simulate_spot_check(self, compiled_cls):
        rng = np.random.default_rng(11)
        x = random_int8(rng, input_shape(compiled_cls))
        with Dispatcher(compiled_cls, workers=2) as d:
            res = d.submit(x).result(60.0)
        sim = compiled_cls.run(x, execution="simulate")
        np.testing.assert_array_equal(res.output, sim.output)
        assert res.stats.report.cycles == sim.report.cycles
        assert res.stats.report.instructions == sim.report.instructions
        assert res.stats.report.modulo_ops == sim.report.modulo_ops

    def test_request_ids_unique_across_workers(self, compiled_cls):
        rng = np.random.default_rng(13)
        xs = [random_int8(rng, input_shape(compiled_cls)) for _ in range(12)]
        with Dispatcher(compiled_cls, workers=4, max_batch=2) as d:
            results = d.run_many(xs, timeout=60.0)
        ids = [r.stats.request_id for r in results]
        assert len(set(ids)) == len(ids)


class TestScheduling:
    def test_heavy_tenant_cannot_starve_light_one(
        self, compiled_cls, compiled_bb
    ):
        rng = np.random.default_rng(17)
        models = {"heavy": compiled_bb, "light": compiled_cls}
        with Dispatcher(
            models, workers=2, max_batch=4, max_queue_depth=128
        ) as d:
            heavy = [
                d.submit(
                    random_int8(rng, input_shape(compiled_bb)),
                    tenant="heavy",
                )
                for _ in range(24)
            ]
            light = [
                d.submit(
                    random_int8(rng, input_shape(compiled_cls)),
                    tenant="light",
                )
                for _ in range(2)
            ]
            light_results = [t.result(60.0) for t in light]
            heavy_results = [t.result(60.0) for t in heavy]
        assert all(r.tenant == "light" for r in light_results)
        assert len(heavy_results) == 24
        # FIFO at batch granularity: the light tenant was not pushed to
        # the very end of the schedule by the flood submitted before it
        assert d.stats.per_tenant["light"].requests == 2

    def test_deadline_miss_is_accounted_not_dropped(self, compiled_cls):
        rng = np.random.default_rng(19)
        x = random_int8(rng, input_shape(compiled_cls))
        with Dispatcher(compiled_cls, workers=1) as d:
            res = d.submit(x, deadline_s=1e-6).result(60.0)
            stats = d.stats
        assert res.deadline_met is False  # served late, still served
        assert_bit_exact(compiled_cls, x, res)
        assert stats.per_tenant["default"].deadline_misses == 1
        assert stats.deadline_hit_rate == 0.0

    def test_generous_deadlines_are_hit(self, compiled_cls):
        rng = np.random.default_rng(23)
        xs = [random_int8(rng, input_shape(compiled_cls)) for _ in range(6)]
        with Dispatcher(compiled_cls, workers=2) as d:
            results = d.run_many(xs, deadline_s=30.0, timeout=60.0)
            stats = d.stats
        assert all(r.deadline_met for r in results)
        assert stats.deadline_hit_rate == 1.0
        assert stats.p95_latency_s >= stats.p50_latency_s > 0.0

    def test_admission_control_backpressure(self, compiled_cls):
        rng = np.random.default_rng(29)
        # a long batch timeout parks submissions in the queue: the third
        # submit must bounce with an actionable error, and the parked two
        # must still be served on close (drain semantics)
        with Dispatcher(
            compiled_cls, workers=1, max_batch=8, max_queue_depth=2,
            batch_timeout_s=30.0, default_deadline_s=60.0,
        ) as d:
            t1 = d.submit(random_int8(rng, input_shape(compiled_cls)))
            t2 = d.submit(random_int8(rng, input_shape(compiled_cls)))
            with pytest.raises(AdmissionError, match="max_queue_depth"):
                d.submit(random_int8(rng, input_shape(compiled_cls)))
            assert d.stats.rejected == 1
            d.close()
            assert t1.result(60.0).stats is not None
            assert t2.result(60.0).stats is not None


class TestMisuse:
    def test_unknown_tenant(self, compiled_cls):
        with Dispatcher({"only": compiled_cls}) as d:
            with pytest.raises(ServingError, match="unknown tenant"):
                d.submit(np.zeros((20, 20, 16), np.int8), tenant="nope")

    def test_malformed_request_rejected_at_submit(self, compiled_cls):
        with Dispatcher(compiled_cls) as d:
            with pytest.raises(ServingError, match="int8"):
                d.submit(np.zeros((3, 3, 3), np.int8))
            with pytest.raises(ServingError, match="exactly one"):
                d.submit()

    def test_submit_after_close(self, compiled_cls):
        d = Dispatcher(compiled_cls, workers=1)
        d.close()
        with pytest.raises(ServingError, match="closed"):
            d.submit(np.zeros((20, 20, 16), np.int8))

    def test_config_validation(self, compiled_cls):
        with pytest.raises(ServingError, match="worker"):
            Dispatcher(compiled_cls, workers=0)
        with pytest.raises(ServingError, match="tenant"):
            Dispatcher({})


class TestSharedPlanCache:
    def test_fleet_compile_shares_solves(self):
        cache = PlanCache()
        graphs = {
            "acme": build_classifier_graph("vww", classes=2),
            "globex": build_classifier_graph("vww", classes=2),
        }
        rng = np.random.default_rng(31)
        with Dispatcher.compile(
            graphs, cache=cache, workers=2, max_batch=4
        ) as d:
            stats = d.stats
            assert stats.plan_cache is not None
            # the second tenant's structurally identical model hit every
            # segment plan the first one solved
            assert stats.plan_cache.hits > 0
            xs = [
                ("acme", rng.integers(-128, 128, (20, 20, 16), np.int8)),
                ("globex", rng.integers(-128, 128, (20, 20, 16), np.int8)),
            ]
            results = d.run_many(xs, timeout=60.0)
        for (tenant, x), res in zip(xs, results):
            assert res.tenant == tenant
            assert_bit_exact(d.sessions[tenant].compiled, x, res)


class TestThreadWorkers:
    """Workers are threads sharing the tenant sessions in-process: an
    in-place weight edit reaches them, and a dispatcher dropped without
    close() is collected and takes its threads with it."""

    @pytest.mark.parametrize("execution", ["fast", "turbo"])
    def test_in_place_weight_mutation_reaches_the_workers(self, execution):
        compiled = repro.compile(
            build_classifier_graph("vww", classes=2), execution="fast"
        )
        rng = np.random.default_rng(3)
        xs = [random_int8(rng, input_shape(compiled)) for _ in range(4)]
        w = next(
            st.weights
            for st in compiled.segments[0].pipeline.stages
            if hasattr(st, "weights")
        )
        with Dispatcher(
            compiled, workers=2, max_batch=2, execution=execution
        ) as d:
            before = d.run_many(xs, timeout=60.0)
            w[0, 0] = np.int8(~int(w[0, 0]) & 0x7F)
            after = d.run_many(xs, timeout=60.0)
        for x, res in zip(xs, after):
            assert_bit_exact(compiled, x, res)
        # and the edit really changed what the workers computed
        assert any(
            not np.array_equal(b.output, a.output)
            for b, a in zip(before, after)
        )

    @pytest.mark.parametrize("workers", [1, 3])
    def test_dropped_dispatcher_is_collected_with_its_threads(
        self, compiled_cls, workers
    ):
        d = Dispatcher(compiled_cls, workers=workers, max_batch=2)
        x = random_int8(np.random.default_rng(5), input_shape(compiled_cls))
        assert_bit_exact(compiled_cls, x, d.submit(x).result(60.0))
        threads = [*d._threads.values(), d._supervisor]
        finalizer = d._finalizer
        del d
        # a worker may still hold its per-batch strong reference for a
        # moment after resolving the ticket: collect until it lets go
        deadline = time.monotonic() + 10.0
        while finalizer.alive and time.monotonic() < deadline:
            gc.collect()
            time.sleep(0.01)
        assert not finalizer.alive
        for th in threads:
            th.join(10.0)
        assert not any(th.is_alive() for th in threads)


class TestConcurrentSubmission:
    def test_open_loop_submitters(self, compiled_cls):
        """Several submitter threads racing the workers: everything lands,
        every result matches its own input."""
        rng = np.random.default_rng(41)
        per_thread = 6
        inputs = {
            t: [
                random_int8(rng, input_shape(compiled_cls))
                for _ in range(per_thread)
            ]
            for t in range(3)
        }
        collected: dict[int, list] = {}
        errors = []
        with Dispatcher(
            compiled_cls, workers=3, max_batch=4, max_queue_depth=64
        ) as d:

            def submitter(t):
                try:
                    tickets = [d.submit(x) for x in inputs[t]]
                    collected[t] = [tk.result(60.0) for tk in tickets]
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=submitter, args=(t,))
                for t in inputs
            ]
            for th in threads:
                th.start()
            for th in threads:
                th.join(120.0)
        assert not errors, errors
        for t, results in collected.items():
            for x, res in zip(inputs[t], results):
                assert_bit_exact(compiled_cls, x, res)
        assert d.stats.completed == 3 * per_thread
