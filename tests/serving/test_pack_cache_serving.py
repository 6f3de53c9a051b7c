"""`cached_pack` behavior under the serving workload.

The session promotes every stage weight once (int32 GEMM operands via
``pack_i32``, plus turbo's float64 ones); these tests pin the two safety
properties that make the amortization sound across many requests.  The
pipeline-level cases run ``execution="fast"``, whose GEMMs read the int32
packs:

* **staleness** — mutating a weight array in place between requests must
  re-pack (content digest mismatch) so served outputs track the new bytes;
* **eviction** — dropping the model must let the weakref finalizers evict
  the packed entries instead of leaking them for the process lifetime.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

import repro
from repro.graph.models import build_classifier_graph
from repro.kernels.base import _PACK_CACHE, cached_pack, pack_i32
from repro.quant import quantize_multiplier
from repro.runtime.pipeline import Pipeline, PointwiseStage


def random_int8(rng, shape):
    return rng.integers(-128, 128, size=shape, dtype=np.int8)


def _i32_entries():
    return {k: v for k, v in _PACK_CACHE.items() if k[2] == "pack_i32"}


class TestServingStaleness:
    def test_in_place_weight_mutation_repacks(self):
        """A served batch after mutation must use the new weights."""
        rng = np.random.default_rng(0)
        w = random_int8(rng, (8, 8))
        pipe = Pipeline(5, 8)
        pipe.add(
            PointwiseStage(
                name="pw", weights=w, mult=quantize_multiplier(0.02)
            )
        )
        plan = pipe.plan()
        x = random_int8(rng, (5, 5, 8))
        before = pipe.run_batch([x], plan=plan, execution="fast")[0].output
        stale_pack = cached_pack(w, 0, pack_i32)

        w[0, 0] = np.int8(~int(w[0, 0]) & 0x7F)  # in-place mutation
        after = pipe.run_batch([x], plan=plan, execution="fast")[0].output

        fresh_pack = cached_pack(w, 0, pack_i32)
        assert fresh_pack is not stale_pack
        np.testing.assert_array_equal(fresh_pack, w.astype(np.int32))
        # outputs must follow the mutated weights, bit-exact vs fast
        assert not np.array_equal(before, after)
        np.testing.assert_array_equal(
            after, pipe.run(x, plan=plan, execution="fast").output
        )

    def test_session_tracks_mutated_weights(self):
        compiled = repro.compile(
            build_classifier_graph("vww", classes=2), execution="fast"
        )
        session = compiled.serve()
        rng = np.random.default_rng(1)
        x = random_int8(rng, (20, 20, 16))
        session.run(x)

        # mutate the dense head's weights between requests
        head = compiled.segments[-1].pipeline.stages[-1]
        head.weights[...] = random_int8(rng, head.weights.shape)

        served = session.run(x)
        fast = compiled.run(x, execution="fast")
        np.testing.assert_array_equal(served.output, fast.output)
        np.testing.assert_array_equal(served.output, compiled.reference(x))

    def test_cost_template_survives_weight_mutation(self):
        """Costs are plan-determined: mutation re-packs, never re-plans."""
        compiled = repro.compile(
            build_classifier_graph("vww", classes=2), execution="fast"
        )
        session = compiled.serve()
        rng = np.random.default_rng(2)
        x = random_int8(rng, (20, 20, 16))
        before = session.run(x).stats.report
        head = compiled.segments[-1].pipeline.stages[-1]
        head.weights[...] = random_int8(rng, head.weights.shape)
        after = session.run(x).stats.report
        assert before.cycles == after.cycles
        assert before.instructions == after.instructions


class TestServingEviction:
    def test_packs_amortized_across_batches(self):
        rng = np.random.default_rng(3)
        w = random_int8(rng, (8, 8))
        pipe = Pipeline(5, 8)
        pipe.add(
            PointwiseStage(
                name="pw", weights=w, mult=quantize_multiplier(0.02)
            )
        )
        plan = pipe.plan()
        xs = [random_int8(rng, (5, 5, 8)) for _ in range(3)]
        pipe.run_batch(xs, plan=plan, execution="fast")
        packed = cached_pack(w, 0, pack_i32)
        pipe.run_batch(xs, plan=plan, execution="fast")
        assert cached_pack(w, 0, pack_i32) is packed

    def test_weakref_eviction_fires_when_session_dies(self):
        baseline = set(_i32_entries())
        rng = np.random.default_rng(4)
        weights = random_int8(rng, (8, 8))
        pipe = Pipeline(5, 8)
        pipe.add(
            PointwiseStage(
                name="pw", weights=weights, mult=quantize_multiplier(0.02)
            )
        )
        plan = pipe.plan()
        pipe.run_batch(
            [random_int8(rng, (5, 5, 8))], plan=plan, execution="fast"
        )
        new_keys = set(_i32_entries()) - baseline
        assert new_keys, "serving should have populated the pack cache"

        del pipe, plan, weights
        gc.collect()
        leaked = set(_i32_entries()) & new_keys
        assert not leaked, "dead weights must evict their packed entries"

    def test_session_warmup_packs_every_stage_weight(self):
        compiled = repro.compile(
            build_classifier_graph("vww", classes=2), execution="fast"
        )
        before = len(_i32_entries())
        session = compiled.serve()
        after = len(_i32_entries())
        # 1 pointwise + 3 per bottleneck + dense head all promoted eagerly
        n_expected = 0
        for seg in compiled.segments:
            for stage in seg.pipeline.stages:
                n_expected += {
                    "PointwiseStage": 1,
                    "BottleneckStage": 3,
                    "DenseStage": 1,
                    "GlobalAvgPoolStage": 0,
                }[type(stage).__name__]
        assert after - before >= n_expected
        # the first request performs no additional packing
        rng = np.random.default_rng(5)
        session.run(random_int8(rng, (20, 20, 16)))
        assert len(_i32_entries()) == after


if __name__ == "__main__":
    pytest.main([__file__, "-q"])
