"""Serving-layer parity: batched execution must change wall clock, not bits.

Property-style coverage: for random pipeline geometries and batch sizes,
``run_batch(xs)`` must agree with per-request ``execution="fast"`` (and by
the PR-2 parity guarantee, ``"simulate"``) on

* every output tensor, bit for bit,
* every per-request :class:`CostReport` (cycles, instruction counters,
  traffic, energy), replayed from the per-plan cost template,
* the per-request pool statistics.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.errors import CompileError, KernelError, ShapeError
from repro.graph.models import build_classifier_graph
from repro.kernels import (
    FastBackend,
    execution_backends,
    get_execution_backend,
)
from repro.quant import quantize_multiplier
from repro.runtime.pipeline import (
    BottleneckStage,
    DenseStage,
    GlobalAvgPoolStage,
    Pipeline,
    PointwiseStage,
)
from repro.serving import Session

MULT = quantize_multiplier(0.02)


def random_int8(rng, shape):
    return rng.integers(-128, 128, size=shape, dtype=np.int8)


def make_pipeline(rng, hw, c, k, stride, with_tail, classes=4):
    """A pointwise chain, optionally with the avgpool+dense tail."""
    pipe = Pipeline(hw, c)
    pipe.add(
        PointwiseStage(
            name="pw0", weights=random_int8(rng, (c, k)), mult=MULT,
            stride=stride,
        )
    )
    pipe.add(
        PointwiseStage(
            name="pw1", weights=random_int8(rng, (k, k)), mult=MULT
        )
    )
    if with_tail:
        pipe.add(GlobalAvgPoolStage(name="gap", mult=quantize_multiplier(0.01)))
        pipe.add(
            DenseStage(
                name="head", weights=random_int8(rng, (k, classes)), mult=MULT
            )
        )
    return pipe


def assert_request_matches_fast(batched_res, fast_res):
    np.testing.assert_array_equal(batched_res.output, fast_res.output)
    assert len(batched_res.stage_runs) == len(fast_res.stage_runs)
    for br, fr in zip(batched_res.stage_runs, fast_res.stage_runs):
        np.testing.assert_array_equal(br.output, fr.output)
        assert br.report.cycles == fr.report.cycles
        assert br.report.instructions == fr.report.instructions
        assert br.report.sram_bytes == fr.report.sram_bytes
        assert br.report.flash_bytes == fr.report.flash_bytes
        assert br.report.macs == fr.report.macs
        assert br.report.modulo_ops == fr.report.modulo_ops
        assert br.report.energy_mj == fr.report.energy_mj
        assert vars(br.pool_stats) == vars(fr.pool_stats)


class TestPipelineRunBatchParity:
    @given(
        hw=st.integers(4, 12),
        c=st.sampled_from([4, 8]),
        k=st.sampled_from([4, 8, 16]),
        stride=st.integers(1, 2),
        with_tail=st.booleans(),
        batch=st.integers(1, 5),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_chains(self, hw, c, k, stride, with_tail, batch, seed):
        rng = np.random.default_rng(seed)
        pipe = make_pipeline(rng, hw, c, k, stride, with_tail)
        plan = pipe.plan()
        xs = [random_int8(rng, (hw, hw, c)) for _ in range(batch)]
        batched = pipe.run_batch(xs, plan=plan)
        assert len(batched) == batch
        for x, res in zip(xs, batched):
            fast = pipe.run(x, plan=plan, execution="fast")
            assert_request_matches_fast(res, fast)

    def test_bottleneck_chain_parity(self):
        rng = np.random.default_rng(3)
        pipe = Pipeline(8, 8)
        pipe.add(
            BottleneckStage(
                name="b0", c_mid=16, c_out=8, kernel=3,
                w_expand=random_int8(rng, (8, 16)),
                w_dw=random_int8(rng, (3, 3, 16)),
                w_project=random_int8(rng, (16, 8)),
                mults=(
                    quantize_multiplier(0.02),
                    quantize_multiplier(0.015),
                    quantize_multiplier(0.03),
                ),
            )
        )
        plan = pipe.plan()
        xs = [random_int8(rng, (8, 8, 8)) for _ in range(4)]
        for x, res in zip(xs, pipe.run_batch(xs, plan=plan)):
            assert_request_matches_fast(
                res, pipe.run(x, plan=plan, execution="fast")
            )

    def test_nonbatched_backend_falls_back_per_request(self):
        rng = np.random.default_rng(6)
        pipe = make_pipeline(rng, 5, 4, 4, 1, False)
        plan = pipe.plan()
        xs = [random_int8(rng, (5, 5, 4)) for _ in range(3)]
        served = pipe.run_batch(xs, plan=plan, execution="simulate")
        for x, res in zip(xs, served):
            assert_request_matches_fast(
                res, pipe.run(x, plan=plan, execution="fast")
            )

    def test_empty_batch_rejected(self):
        rng = np.random.default_rng(7)
        pipe = make_pipeline(rng, 5, 4, 4, 1, False)
        with pytest.raises(KernelError, match="non-empty"):
            pipe.run_batch([], plan=pipe.plan())

    def test_ragged_batch_rejected(self):
        rng = np.random.default_rng(8)
        pipe = make_pipeline(rng, 5, 4, 4, 1, False)
        xs = [random_int8(rng, (5, 5, 4)), random_int8(rng, (4, 4, 4))]
        with pytest.raises(ShapeError, match="uniformly shaped"):
            pipe.run_batch(xs, plan=pipe.plan())


class TestSession:
    @pytest.fixture(scope="class")
    def compiled(self):
        return repro.compile(
            build_classifier_graph("vww", classes=2), execution="fast"
        )

    @pytest.fixture(scope="class")
    def session(self, compiled):
        return compiled.serve()

    def test_backend_registered(self, compiled):
        assert execution_backends() == ("fast", "simulate", "turbo")
        assert get_execution_backend("turbo").name == "turbo"
        with pytest.raises(KernelError) as e:
            Session(compiled, execution="batched")
        for name in ("fast", "simulate", "turbo"):
            assert repr(name) in str(e.value)

    @given(batch=st.integers(1, 6), seed=st.integers(0, 2**31))
    @settings(max_examples=8, deadline=None)
    def test_run_batch_bit_exact_vs_fast(self, compiled, session, batch, seed):
        rng = np.random.default_rng(seed)
        xs = [random_int8(rng, (20, 20, 16)) for _ in range(batch)]
        served = session.run_batch(xs)
        assert len(served) == batch
        for x, res in zip(xs, served):
            fast = compiled.run(x, execution="fast")
            np.testing.assert_array_equal(res.output, fast.output)
            assert res.stats.report.cycles == fast.report.cycles
            assert res.stats.report.instructions == fast.report.instructions
            assert res.stats.report.energy_mj == fast.report.energy_mj

    def test_report_bit_identical_to_simulate(self, compiled, session):
        rng = np.random.default_rng(17)
        x = random_int8(rng, (20, 20, 16))
        res = session.run(x)
        sim = compiled.run(x, execution="simulate")
        np.testing.assert_array_equal(res.output, sim.output)
        assert res.stats.report.cycles == sim.report.cycles
        assert res.stats.report.instructions == sim.report.instructions
        assert res.stats.report.macs == sim.report.macs
        assert res.stats.report.modulo_ops == sim.report.modulo_ops

    def test_per_stage_reports_named(self, session):
        rng = np.random.default_rng(19)
        res = session.run(random_int8(rng, (20, 20, 16)))
        assert set(res.stats.stage_reports) == set(res.stats.report.stages)
        assert len(res.stats.stage_reports) == session.compiled.n_stages

    def test_request_accounting(self, compiled):
        session = Session(compiled)
        rng = np.random.default_rng(23)
        xs = [random_int8(rng, (20, 20, 16)) for _ in range(3)]
        first = session.run_batch(xs)
        assert [r.stats.request_id for r in first] == [0, 1, 2]
        assert [r.stats.batch_index for r in first] == [0, 1, 2]
        assert all(r.stats.queue_depth == 3 for r in first)
        assert all(r.stats.latency_s > 0 for r in first)
        single = session.run(xs[0])
        assert single.stats.request_id == 3
        assert single.stats.queue_depth == 1
        assert session.stats.requests == 4
        assert session.stats.batches == 2
        assert session.stats.peak_queue_depth == 3
        assert session.stats.requests_per_s > 0

    def test_degraded_batch_replays_the_shared_template(
        self, compiled, monkeypatch
    ):
        """A turbo session degraded per batch to "fast" (the circuit
        breaker's fallback) stays bit-exact with per-call fast, reports
        included, and re-derives nothing: the template the turbo session
        derived at open is the one both backends share."""
        session = Session(compiled, execution="turbo")
        rng = np.random.default_rng(43)
        xs = [random_int8(rng, (20, 20, 16)) for _ in range(4)]
        refs = [compiled.run(x, execution="fast") for x in xs]

        calls = []
        analytic = FastBackend.run_pipeline

        def counting(self, *args, **kwargs):
            calls.append(self.name)
            return analytic(self, *args, **kwargs)

        monkeypatch.setattr(FastBackend, "run_pipeline", counting)
        served = session.run_batch(xs, execution="fast")
        (seg,) = compiled.segments
        stacked = seg.pipeline.run_batch(xs, plan=seg.plan, execution="fast")
        assert calls == []

        for res, ref in zip(served, refs):
            np.testing.assert_array_equal(res.output, ref.output)
            assert res.stats.report.cycles == ref.report.cycles
            assert res.stats.report.instructions == ref.report.instructions
            assert res.stats.report.energy_mj == ref.report.energy_mj
        # the backend's own per-request results: stage outputs, replayed
        # reports and pool statistics against the analytic reference
        fast = get_execution_backend("fast")
        for x, res in zip(xs, stacked):
            assert_request_matches_fast(
                res, analytic(fast, seg.pipeline, seg.plan, x)
            )

    def test_fast_backend_session_matches_per_call_fast(self, compiled):
        session = Session(compiled, execution="fast")
        rng = np.random.default_rng(29)
        x = random_int8(rng, (20, 20, 16))
        res = session.run(x)
        fast = compiled.run(x, execution="fast")
        np.testing.assert_array_equal(res.output, fast.output)
        assert res.stats.report.cycles == fast.report.cycles

    def test_rejects_empty_and_ambiguous_requests(self, session):
        with pytest.raises(CompileError, match="at least one"):
            session.run_batch([])
        with pytest.raises(CompileError, match="exactly one"):
            session.run()

    def test_multi_segment_model_served_per_request(self):
        """The ImageNet spine compiles to two segments (two graph inputs);
        serving must batch each segment's pipeline and keep every output
        tensor bit-exact vs per-request fast execution."""
        from repro.graph.models import build_network_graph

        compiled = repro.compile(
            build_network_graph("imagenet"), execution="fast"
        )
        assert len(compiled.segments) > 1
        session = compiled.serve()
        rng = np.random.default_rng(37)
        reqs = [
            {
                name: random_int8(
                    rng, compiled.graph.tensors[name].spec.shape
                )
                for name in compiled.graph.inputs
            }
            for _ in range(3)
        ]
        for feeds, res in zip(reqs, session.run_batch(reqs)):
            fast = compiled.run(feeds=feeds, execution="fast")
            np.testing.assert_array_equal(res.output, fast.output)
            for name, arr in fast.outputs.items():
                np.testing.assert_array_equal(res.outputs[name], arr)
            assert res.stats.report.cycles == fast.report.cycles
            assert res.stats.report.instructions == fast.report.instructions

    def test_array_request_rejected_for_multi_input_model(self):
        from repro.graph.models import build_network_graph

        compiled = repro.compile(
            build_network_graph("imagenet"), execution="fast"
        )
        rng = np.random.default_rng(41)
        with pytest.raises(CompileError, match="feeds"):
            compiled.serve().run(random_int8(rng, (20, 20, 16)))

    def test_feeds_requests(self, compiled, session):
        rng = np.random.default_rng(31)
        x = random_int8(rng, (20, 20, 16))
        name = compiled.graph.inputs[0]
        res = session.run(feeds={name: x})
        np.testing.assert_array_equal(
            res.output, compiled.run(x, execution="fast").output
        )
        assert set(res.outputs) >= set(compiled.graph.outputs)
