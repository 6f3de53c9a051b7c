"""Session misuse paths: actionable errors instead of silent wrong stats.

The satellite contract: serving after the compiled model is structurally
mutated, empty batches, oversized batches and requests that do not match
their graph input's int8 shape must all fail loudly; in place *value*
mutation of weights stays legal (content-digest re-pack); and the
session's accounting survives concurrent workers.
"""

from __future__ import annotations

import re
import threading
from dataclasses import replace

import numpy as np
import pytest

import repro
from repro.errors import CompileError, ServingError, ShapeError
from repro.graph import DenseOp, Graph, TensorSpec
from repro.graph.models import build_classifier_graph
from repro.serving import Dispatcher, Session


def random_int8(rng, shape):
    return rng.integers(-128, 128, size=shape, dtype=np.int8)


def fresh_compiled():
    return repro.compile(
        build_classifier_graph("vww", classes=2), execution="fast"
    )


class TestBatchBounds:
    def test_empty_batch(self):
        session = fresh_compiled().serve()
        with pytest.raises(CompileError, match="at least one"):
            session.run_batch([])

    def test_oversized_batch_names_the_knob(self):
        session = Session(fresh_compiled(), max_batch=4)
        rng = np.random.default_rng(0)
        xs = [random_int8(rng, (20, 20, 16)) for _ in range(5)]
        with pytest.raises(ServingError, match="max_batch=4"):
            session.run_batch(xs)
        # at the bound is fine
        assert len(session.run_batch(xs[:4])) == 4

    def test_bad_max_batch_rejected_at_open(self):
        with pytest.raises(ServingError, match="positive"):
            Session(fresh_compiled(), max_batch=0)


class TestRequestShape:
    """Every entry point checks a request against its graph input's
    declared int8 shape, even where a backend could read it flat."""

    @staticmethod
    def dense_head(execution):
        g = Graph(name="head")
        g.add_input("x", TensorSpec((40,)))
        g.add_op(DenseOp(name="fc", out_features=10), ["x"], "y")
        g.mark_output("y")
        return repro.compile(g, seed=3, execution=execution)

    # both backends could read a dense-led request flat: fast through its
    # dense batch input, turbo through its dense stage table
    @pytest.mark.parametrize("execution", ["fast", "turbo"])
    @pytest.mark.parametrize("shape", [(2, 20), (1, 40)])
    def test_dense_head_rejects_a_reshaped_request(self, shape, execution):
        compiled = self.dense_head(execution)
        x = random_int8(np.random.default_rng(0), shape)
        match = re.escape(f"feed 'x' must be int8[40], got int8{list(shape)}")
        with pytest.raises(ShapeError, match=match):
            compiled.run(x)
        session = compiled.serve(execution=execution)
        with pytest.raises(ShapeError, match=match):
            session.run_batch([x])
        with Dispatcher(compiled, workers=1, execution=execution) as d:
            with pytest.raises(ServingError, match=f"tenant 'default': {match}"):
                d.submit(x)
        ok = x.reshape(40)
        np.testing.assert_array_equal(
            session.run(ok).output, compiled.run(ok).output
        )

    def test_wrong_dtype_is_named(self):
        compiled = fresh_compiled()
        x = np.zeros((20, 20, 16), np.int16)
        match = re.escape("must be int8[20, 20, 16], got int16[20, 20, 16]")
        with pytest.raises(ShapeError, match=match):
            compiled.run(x)
        with pytest.raises(ShapeError, match=match):
            compiled.serve().run_batch([x])


class TestStructuralMutation:
    def test_stage_rebound_to_different_shape(self):
        compiled = fresh_compiled()
        session = compiled.serve()
        rng = np.random.default_rng(1)
        x = random_int8(rng, (20, 20, 16))
        session.run(x)  # healthy first
        pipe = compiled.segments[0].pipeline
        victim = next(
            (i, st) for i, st in enumerate(pipe.stages)
            if hasattr(st, "weights")
        )
        i, stage = victim
        pipe.stages[i] = replace(
            stage,
            weights=random_int8(
                rng, (stage.weights.shape[0], stage.weights.shape[1] * 2)
            ),
        )
        with pytest.raises(ServingError, match="mutated after serve"):
            session.run(x)

    def test_stage_appended(self):
        compiled = fresh_compiled()
        session = compiled.serve()
        pipe = compiled.segments[-1].pipeline
        pipe.stages.append(pipe.stages[-1])
        rng = np.random.default_rng(2)
        with pytest.raises(ServingError, match="new session"):
            session.run(random_int8(rng, (20, 20, 16)))

    def test_stage_swapped_for_restrided_copy(self):
        # same type, name and weight arrays: only the stage object differs
        compiled = fresh_compiled()
        session = compiled.serve()
        rng = np.random.default_rng(5)
        x = random_int8(rng, (20, 20, 16))
        session.run(x)
        pipe = compiled.segments[0].pipeline
        i = next(
            i for i, st in enumerate(pipe.stages) if st.name == "transition3"
        )
        assert pipe.stages[i].stride == 1
        pipe.stages[i] = replace(pipe.stages[i], stride=2)
        with pytest.raises(ServingError, match="mutated after serve"):
            session.run_batch([x])

    def test_pipeline_input_geometry_changed(self):
        compiled = fresh_compiled()
        session = compiled.serve()
        rng = np.random.default_rng(6)
        x = random_int8(rng, (20, 20, 16))
        session.run(x)
        pipe = compiled.segments[0].pipeline
        pipe.input_hw = 2 * pipe.input_hw
        with pytest.raises(ServingError, match="new session"):
            session.run_batch([x])

    def test_plan_validated_once_at_open(self, monkeypatch):
        from repro.runtime.pipeline import Pipeline

        calls = []
        resolve = Pipeline._resolve_plan

        def counted(self, plan):
            calls.append(plan)
            return resolve(self, plan)

        monkeypatch.setattr(Pipeline, "_resolve_plan", counted)
        compiled = fresh_compiled()
        session = compiled.serve()
        assert calls == [seg.plan for seg in compiled.segments]
        rng = np.random.default_rng(7)
        for _ in range(3):
            session.run(random_int8(rng, (20, 20, 16)))
        assert len(calls) == len(compiled.segments)

    def test_in_place_value_mutation_stays_legal_and_bit_exact(self):
        compiled = fresh_compiled()
        session = compiled.serve()
        rng = np.random.default_rng(3)
        x = random_int8(rng, (20, 20, 16))
        before = session.run(x)
        weights = next(
            st.weights
            for st in compiled.segments[0].pipeline.stages
            if hasattr(st, "weights")
        )
        weights[0, 0] = np.int8(~int(weights[0, 0]) & 0x7F)
        after = session.run(x)
        fast = compiled.run(x, execution="fast")
        np.testing.assert_array_equal(after.output, fast.output)
        assert after.stats.report.cycles == fast.report.cycles
        # and the mutation really changed the computation
        assert not np.array_equal(before.output, after.output)


class TestConcurrentAccounting:
    def test_request_ids_and_counters_are_torn_free(self):
        session = fresh_compiled().serve()
        rng = np.random.default_rng(4)
        batches = [
            [random_int8(rng, (20, 20, 16)) for _ in range(2)]
            for _ in range(20)
        ]
        ids = []
        lock = threading.Lock()
        barrier = threading.Barrier(4)
        errors = []

        def worker(k):
            try:
                barrier.wait()
                for b in range(k, len(batches), 4):
                    served = session.run_batch(batches[b])
                    with lock:
                        ids.extend(r.stats.request_id for r in served)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(k,)) for k in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120.0)
        assert not errors, errors
        assert len(ids) == 40
        assert sorted(ids) == list(range(40))
        assert session.stats.requests == 40
        assert session.stats.batches == 20
