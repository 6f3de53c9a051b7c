"""Turbo's native segment pass under serving.

A turbo :class:`~repro.serving.Session` binds each segment's native stage
table once, at open, and hands it to every stacked pass.  These tests pin
what a warm batch costs and that a bound table is never stale:

* a warm batch is one native segment call per segment, with no per-stage
  leaf and no BLAS GEMM; the per-request path never calls BLAS either;
* a session warms only the pack layouts its path reads: no float64 packs
  where the native leaves run, and float64 packs where they do not;
* in-place weight mutation re-binds (bit-exact against ``"fast"``, the
  old table untouched); a second pipeline served under the same plan
  answers with its own weights; a weight reshaped in place still fails
  the session's snapshot; eight threads on one session at a 1 µs switch
  interval stay bit-exact through a concurrent re-bind; and dropping a
  served model frees its table, weights and packs without a GC pass;
* a segment whose first stage is dense reads each request's elements as
  the stage's rows, as ``"fast"`` does, whatever their shape.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest

import repro
from repro.errors import ServingError
from repro.graph import DenseOp, Graph, TensorSpec
from repro.graph.models import build_classifier_graph, build_network_graph
from repro.kernels import get_execution_backend, native
from repro.kernels.base import _PACK_CACHE
from repro.kernels.turbo import TurboBackend
from repro.mcu.device import STM32F767ZI
from repro.quant import quantize_multiplier
from repro.runtime.pipeline import (
    BottleneckStage,
    DenseStage,
    Pipeline,
    stage_weight_arrays,
)

N_THREADS = 8
JOIN_TIMEOUT_S = 120.0


def random_int8(rng, shape):
    return rng.integers(-128, 128, size=shape, dtype=np.int8)


@pytest.fixture
def leaves():
    found = native.leaves()
    if found is None:
        pytest.skip(native.status())
    return found


def compile_model(name: str, seed: int = 0):
    if name == "vww":
        return repro.compile(build_classifier_graph("vww"), seed=seed)
    return repro.compile(
        build_network_graph(name), device=STM32F767ZI, seed=seed
    )


def random_feeds(compiled, rng) -> dict[str, np.ndarray]:
    graph = compiled.graph
    return {
        name: random_int8(rng, graph.tensors[name].spec.shape)
        for name in graph.inputs
    }


def model_weights(compiled) -> list[np.ndarray]:
    return [
        w
        for seg in compiled.segments
        for stage in seg.pipeline.stages
        for w in stage_weight_arrays(stage)
    ]


def has_pack(w: np.ndarray, packer: str) -> bool:
    hit = _PACK_CACHE.get((id(w), 0, packer))
    return hit is not None and hit[0]() is w


def counted(owner, attr, calls):
    real = getattr(owner, attr)

    def counting(*args, **kwargs):
        calls.append(attr)
        return real(*args, **kwargs)

    return mock.patch.object(owner, attr, counting)


@pytest.mark.parametrize("model,segments", [("vww", 1), ("imagenet", 2)])
def test_warm_batch_is_one_native_call_per_segment(leaves, model, segments):
    compiled = compile_model(model)
    session = compiled.serve()
    rng = np.random.default_rng(1)
    requests = [random_feeds(compiled, rng) for _ in range(2)]
    session.run_batch(requests)
    segment, other = [], []
    with ExitStack() as stack:
        stack.enter_context(counted(native._Leaves, "segment", segment))
        for attr in ("requantize", "depthwise"):
            stack.enter_context(counted(native._Leaves, attr, other))
        stack.enter_context(counted(TurboBackend, "_gemm", other))
        served = session.run_batch(requests)
    assert len(segment) == segments
    assert other == []
    for feeds, res in zip(requests, served):
        np.testing.assert_array_equal(
            res.output, compiled.run(feeds=feeds, execution="fast").output
        )


def test_per_request_turbo_never_calls_blas(leaves):
    compiled = compile_model("vww", seed=2)
    x = random_int8(np.random.default_rng(2), (20, 20, 16))
    gemms = []
    with counted(TurboBackend, "_gemm", gemms):
        got = compiled.run(x, execution="turbo")
    assert gemms == []
    np.testing.assert_array_equal(
        got.output, compiled.run(x, execution="fast").output
    )


def test_session_warms_only_the_packs_its_path_reads(monkeypatch):
    """With the native leaves a turbo session holds no float64 pack of
    its weights, before or after serving; without them it warms one for
    every weight, as its BLAS GEMMs read them."""
    x = random_int8(np.random.default_rng(3), (20, 20, 16))
    if native.leaves() is not None:
        compiled = compile_model("vww", seed=3)
        session = compiled.serve()
        session.run(x)
        compiled.run(x, execution="turbo")
        weights = model_weights(compiled)
        assert not any(has_pack(w, "pack_f64") for w in weights)
        assert all(has_pack(w, "pack_i16_pairs") for w in weights)
        assert all(has_pack(w, "pack_i32") for w in weights)
    monkeypatch.setattr(native, "_loaded", (None, "unavailable (test)"))
    compiled = compile_model("vww", seed=4)
    compiled.serve()
    weights = model_weights(compiled)
    assert all(has_pack(w, "pack_f64") for w in weights)
    assert all(has_pack(w, "pack_i32") for w in weights)


def test_in_place_mutation_rebinds_bit_exact(leaves):
    compiled = compile_model("vww", seed=5)
    session = compiled.serve()
    rng = np.random.default_rng(5)
    x = random_int8(rng, (20, 20, 16))
    before = session.run(x).output
    binding = session._bindings[0]
    table = binding.table
    rows, packs = table.rows.copy(), table.packs

    pipe = compiled.segments[0].pipeline
    block = next(s for s in pipe.stages if isinstance(s, BottleneckStage))
    block.w_expand[...] = random_int8(rng, block.w_expand.shape)
    head = pipe.stages[-1]
    head.weights[...] = random_int8(rng, head.weights.shape)

    after = session.run(x).output
    np.testing.assert_array_equal(
        after, compiled.run(x, execution="fast").output
    )
    np.testing.assert_array_equal(after, compiled.reference(x))
    assert not np.array_equal(before, after)
    # a new table was swapped in; the one that served before is untouched
    rebound = binding.table
    assert rebound is not table
    np.testing.assert_array_equal(table.rows, rows)
    assert all(a is b for a, b in zip(table.packs, packs))
    # and unchanged weights keep the new table
    session.run(x)
    assert binding.table is rebound


def test_same_plan_through_a_second_pipeline(leaves):
    """Two models of one geometry share a plan in the plan cache; each
    pipeline passed in answers with its own weights."""
    a, b = compile_model("vww", seed=11), compile_model("vww", seed=12)
    seg_a, seg_b = a.segments[0], b.segments[0]
    assert seg_a.plan is seg_b.plan
    served_a, served_b = a.serve(), b.serve()
    x = random_int8(np.random.default_rng(11), (20, 20, 16))
    out_a, out_b = served_a.run(x).output, served_b.run(x).output
    np.testing.assert_array_equal(out_a, a.run(x, execution="fast").output)
    np.testing.assert_array_equal(out_b, b.run(x, execution="fast").output)
    assert not np.array_equal(out_a, out_b)
    # b's pipeline under a's plan object, with a's session bound
    res = get_execution_backend("turbo").run_pipeline_batch(
        seg_b.pipeline, seg_a.plan, [x]
    )[0]
    np.testing.assert_array_equal(
        res.output,
        seg_b.pipeline.run(x, plan=seg_a.plan, execution="fast").output,
    )
    np.testing.assert_array_equal(
        seg_b.pipeline.run_batch([x], plan=seg_a.plan)[0].output,
        res.output,
    )


def test_weight_reshaped_in_place_fails_the_snapshot(leaves):
    compiled = compile_model("vww", seed=13)
    session = compiled.serve()
    x = random_int8(np.random.default_rng(13), (20, 20, 16))
    session.run(x)
    head = compiled.segments[0].pipeline.stages[-1]
    k, n = head.weights.shape
    head.weights.shape = (n, k)
    with pytest.raises(ServingError, match="mutated after serve"):
        session.run(x)


def test_threads_on_one_session_stay_bit_exact(leaves):
    """Eight threads at a 1 µs switch interval, starting right after an
    in-place mutation, so their first calls race to re-bind."""
    compiled = compile_model("vww", seed=21)
    session = compiled.serve()
    rng = np.random.default_rng(21)
    xs = [random_int8(rng, (20, 20, 16)) for _ in range(N_THREADS)]
    session.run(xs[0])
    head = compiled.segments[0].pipeline.stages[-1]
    head.weights[...] = random_int8(rng, head.weights.shape)
    expected = [compiled.run(x, execution="fast").output for x in xs]

    barrier = threading.Barrier(N_THREADS)
    errors = []

    def work(i):
        try:
            barrier.wait()
            for j in range(12):
                picks = [(i + j + t) % N_THREADS for t in range(1 + j % 3)]
                served = session.run_batch([xs[p] for p in picks])
                for p, res in zip(picks, served):
                    np.testing.assert_array_equal(res.output, expected[p])
        except BaseException as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(JOIN_TIMEOUT_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads), "threads timed out"
    assert not errors, errors
    assert session.stats.requests == 1 + sum(
        1 + j % 3 for _ in range(N_THREADS) for j in range(12)
    )


def test_dropping_a_served_model_frees_its_table(leaves):
    """Without a GC pass: the table, its packs and the weights die with
    the session and model, and the pack cache evicts their entries."""
    x = random_int8(np.random.default_rng(31), (20, 20, 16))
    gc.disable()
    try:
        compiled = compile_model("vww", seed=31)
        session = compiled.serve()
        session.run(x)
        binding = session._bindings[0]
        rows = weakref.ref(binding.table.rows)
        weights = [weakref.ref(w) for w in binding.weights]
        packs = [weakref.ref(p) for p in binding.table.packs]
        keys = [
            (id(w), 0, packer)
            for w in binding.weights
            for packer in ("pack_i16_pairs", "pack_i32")
        ]
        assert all(key in _PACK_CACHE for key in keys)
        del binding, session, compiled
        assert rows() is None
        assert all(ref() is None for ref in weights + packs)
        assert not any(key in _PACK_CACHE for key in keys)
    finally:
        gc.enable()


def test_dense_first_model_serves_bit_exact():
    """``x:[c] -> DenseOp`` lowers to a segment whose first stage is
    dense; its requests reach the segment as ``[B, c]``."""
    g = Graph(name="head")
    g.add_input("x", TensorSpec((40,)))
    g.add_op(DenseOp(name="fc", out_features=10), ["x"], "y")
    g.mark_output("y")
    compiled = repro.compile(g, seed=3)
    session = compiled.serve()
    rng = np.random.default_rng(3)
    requests = [random_feeds(compiled, rng) for _ in range(3)]
    expected = [
        compiled.run(feeds=feeds, execution="fast").output
        for feeds in requests
    ]
    for res, want in zip(session.run_batch(requests), expected):
        np.testing.assert_array_equal(res.output, want)
    np.testing.assert_array_equal(
        session.run(feeds=requests[0]).output, expected[0]
    )


@pytest.mark.parametrize("shape", [(40,), (1, 40), (1, 1, 40), (2, 20)])
def test_dense_first_pipeline_reads_requests_flat(shape):
    """``Pipeline.run_batch`` on a ``Pipeline(1, c)`` led by a dense
    stage, with and without a binding: any request of ``c`` elements."""
    rng = np.random.default_rng(4)
    pipe = Pipeline(1, 40)
    pipe.add(
        DenseStage(
            "fc", random_int8(rng, (40, 10)), quantize_multiplier(0.01)
        )
    )
    plan = pipe.plan()
    xs = [random_int8(rng, shape) for _ in range(3)]
    fast = pipe.run_batch(xs, plan=plan, execution="fast")
    turbo = get_execution_backend("turbo")
    binding = turbo.bind(pipe, plan)
    for got in (
        pipe.run_batch(xs, plan=plan),
        turbo.run_pipeline_batch(pipe, plan, xs, binding=binding),
    ):
        for a, b in zip(got, fast):
            np.testing.assert_array_equal(a.output, b.output)
