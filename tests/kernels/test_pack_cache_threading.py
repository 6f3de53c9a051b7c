"""Serving-cache thread-safety: sharded workers share the memos.

Complements ``tests/serving/test_pack_cache_serving.py`` (staleness and
eviction, single-threaded) with 8-thread hammers: one array is packed
exactly once no matter how many workers race, per-thread mutation of
private arrays never cross-contaminates, one plan's cost template is
derived exactly once even when ``"fast"`` and ``"turbo"`` workers race
for it, and turbo batches on different inputs stay bit-exact while the
native leaves run them concurrently outside the GIL.
"""

from __future__ import annotations

import sys
import threading

import numpy as np

from repro.kernels import FastBackend, get_execution_backend
from repro.kernels.base import cached_pack, pack_f64, pack_i32
from repro.quant import quantize_multiplier
from repro.runtime.pipeline import BottleneckStage, Pipeline, PointwiseStage

N_THREADS = 8
JOIN_TIMEOUT_S = 60.0


def _hammer(n_threads, fn):
    barrier = threading.Barrier(n_threads)
    errors = []

    def runner(i):
        barrier.wait()
        try:
            fn(i)
        except BaseException as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=runner, args=(i,)) for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(JOIN_TIMEOUT_S)
    assert not any(t.is_alive() for t in threads), "hammer timed out"
    assert not errors, errors


def test_shared_array_packed_exactly_once():
    rng = np.random.default_rng(0)
    w = rng.integers(-128, 128, size=(64, 64), dtype=np.int8)
    seen_ids = set()
    lock = threading.Lock()

    def work(_i):
        for _ in range(200):
            packed = cached_pack(w, 0, pack_i32)
            assert packed.dtype == np.int32
            with lock:
                seen_ids.add(id(packed))

    _hammer(N_THREADS, work)
    # every thread, every iteration, received the one cached object
    assert len(seen_ids) == 1
    np.testing.assert_array_equal(
        cached_pack(w, 0, pack_i32), w.astype(np.int32)
    )


def test_distinct_packers_do_not_collide():
    rng = np.random.default_rng(1)
    w = rng.integers(-128, 128, size=(32, 32), dtype=np.int8)

    def work(_i):
        for _ in range(100):
            assert cached_pack(w, 0, pack_i32).dtype == np.int32
            assert cached_pack(w, 0, pack_f64).dtype == np.float64

    _hammer(N_THREADS, work)


def test_private_mutation_under_contention_stays_fresh():
    rng = np.random.default_rng(2)
    arrays = [
        rng.integers(-128, 128, size=(16, 16), dtype=np.int8)
        for _ in range(N_THREADS)
    ]

    def work(i):
        w = arrays[i]
        for step in range(50):
            w[step % 16, (3 * step) % 16] ^= 0x55
            packed = cached_pack(w, 0, pack_i32)
            # the digest guard must always serve the *current* bytes
            np.testing.assert_array_equal(packed, w.astype(np.int32))

    _hammer(N_THREADS, work)


def test_template_derived_once_across_backends(monkeypatch):
    rng = np.random.default_rng(3)
    # three stages at 16x16 keep the dry run long enough that racing
    # workers overlap it (an unlocked cache then derives several times)
    pipe = Pipeline(16, 8)
    for i, (c, k) in enumerate(((8, 16), (16, 16), (16, 8))):
        pipe.add(
            PointwiseStage(
                name=f"pw{i}",
                weights=rng.integers(-128, 128, size=(c, k), dtype=np.int8),
                mult=quantize_multiplier(0.02),
            )
        )
    plan = pipe.plan()
    backends = [get_execution_backend(n) for n in ("fast", "turbo")]
    derivations = []
    seen_ids = set()
    lock = threading.Lock()
    analytic = FastBackend.run_pipeline

    def counting(self, *args, **kwargs):
        with lock:
            derivations.append(self.name)
        return analytic(self, *args, **kwargs)

    monkeypatch.setattr(FastBackend, "run_pipeline", counting)

    def work(i):
        for _ in range(50):
            template = backends[i % 2].pipeline_template(pipe, plan)
            with lock:
                seen_ids.add(id(template))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _hammer(N_THREADS, work)
    finally:
        sys.setswitchinterval(interval)
    # one dry run on whichever backend won the race; every thread, on
    # either backend, received that one template
    assert len(derivations) == 1
    assert len(seen_ids) == 1


def test_turbo_batches_bit_exact_across_threads():
    """The C leaves keep no static scratch: concurrent calls, which the
    GIL no longer serializes, never see each other's data."""
    rng = np.random.default_rng(4)

    def w(*shape):
        return rng.integers(-128, 128, size=shape, dtype=np.int8)

    mults = tuple(quantize_multiplier(v) for v in (0.02, 0.01, 0.03))
    pipe = Pipeline(16, 8)
    pipe.add(PointwiseStage("pw", w(8, 8), mults[0]))
    pipe.add(
        BottleneckStage(
            "b1", c_mid=48, c_out=8, kernel=5, w_expand=w(8, 48),
            w_dw=w(5, 5, 48), w_project=w(48, 8), mults=mults,
        )
    )
    pipe.add(
        BottleneckStage(
            "b2", c_mid=32, c_out=16, kernel=7, w_expand=w(8, 32),
            w_dw=w(7, 7, 32), w_project=w(32, 16), mults=mults,
            strides=(1, 2, 2),
        )
    )
    plan = pipe.plan()
    inputs = [[w(16, 16, 8) for _ in range(3)] for _ in range(N_THREADS)]
    expected = [
        [pipe.run(x, plan=plan, execution="fast").output for x in xs]
        for xs in inputs
    ]
    turbo = get_execution_backend("turbo")

    def work(i):
        for _ in range(20):
            results = turbo.run_pipeline_batch(pipe, plan, inputs[i])
            for res, exp in zip(results, expected[i]):
                np.testing.assert_array_equal(res.output, exp)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _hammer(N_THREADS, work)
    finally:
        sys.setswitchinterval(interval)
