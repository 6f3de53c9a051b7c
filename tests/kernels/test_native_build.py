"""The native leaves' build cache, fork safety and fallback.

* several processes building at once into an empty cache leave exactly
  one complete, loadable library, and a warm cache loads without running
  the compiler;
* the build lock is a serving lock, so a fork while a build is in flight
  cannot hand the child a lock that no thread will ever release;
* with no compiler on ``PATH``, or a compile that fails, the turbo backend
  keeps serving bit-exact results through ``requantize_fast`` and the
  NumPy tap loop.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.kernels import base, get_execution_backend, native, turbo
from repro.quant import quantize_multiplier
from repro.runtime.pipeline import BottleneckStage, Pipeline, PointwiseStage

SOURCE = "int repro_answer(void) { return 42; }\n"
N_BUILDERS = 3
TIMEOUT_S = 60.0


def _build_at(directory: str, start_at: float) -> str:
    # spawned builders line up on a wall-clock instant so they really race
    time.sleep(max(0.0, start_at - time.time()))
    return str(native.build(SOURCE, directory=Path(directory)))


def test_concurrent_builds_leave_one_loadable_library(tmp_path):
    ctx = multiprocessing.get_context("spawn")
    start_at = time.time() + 5.0
    with ctx.Pool(N_BUILDERS) as pool:
        paths = pool.starmap(
            _build_at, [(str(tmp_path), start_at)] * N_BUILDERS
        )
    assert len(set(paths)) == 1
    # no temporary left behind, no second copy
    assert [p.name for p in tmp_path.iterdir()] == [Path(paths[0]).name]
    assert ctypes.CDLL(paths[0]).repro_answer() == 42


def test_warm_cache_does_not_run_the_compiler(tmp_path, monkeypatch):
    compiles = []
    real = native._compile

    def counting(*args):
        compiles.append(args)
        return real(*args)

    monkeypatch.setattr(native, "_compile", counting)
    first = native.build(SOURCE, directory=tmp_path)
    second = native.build(SOURCE, directory=tmp_path)
    assert first == second
    assert len(compiles) == 1


def test_second_process_load_does_not_run_the_compiler(tmp_path, monkeypatch):
    """leaves() in a fresh process state: built once, then only loaded."""
    compiles = []
    real = native._compile
    monkeypatch.setattr(
        native, "_compile", lambda *a: (compiles.append(a), real(*a))[1]
    )
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(native, "_loaded", None)
    if native.leaves() is None:
        pytest.skip(native.status())
    assert len(compiles) == 1
    monkeypatch.setattr(native, "_loaded", None)  # as a new process sees it
    assert native.leaves() is not None
    assert len(compiles) == 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_fork_during_a_build_leaves_the_child_unlocked():
    assert native._LOCK in base._serving_locks()
    held = threading.Event()

    def build_in_flight():
        with native._LOCK:
            held.set()
            time.sleep(0.3)

    builder = threading.Thread(target=build_in_flight)
    builder.start()
    assert held.wait(TIMEOUT_S)
    pid = os.fork()
    if pid == 0:  # child: the lock must be free, not copied mid-build
        os._exit(0 if native._LOCK.acquire(timeout=5.0) else 1)
    builder.join(TIMEOUT_S)
    assert not builder.is_alive()
    deadline = time.monotonic() + TIMEOUT_S
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("forked child deadlocked on the build lock")
        time.sleep(0.01)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


def _bottleneck_pipeline(rng):
    """pointwise -> residual k=5 bottleneck -> stride-2 k=7 bottleneck."""

    def q(v):
        return quantize_multiplier(v)

    def w(*shape):
        return rng.integers(-128, 128, size=shape, dtype=np.int8)

    pipe = Pipeline(12, 8)
    pipe.add(PointwiseStage("pw", w(8, 8), q(0.02)))
    pipe.add(
        BottleneckStage(
            "b1", c_mid=24, c_out=8, kernel=5, w_expand=w(8, 24),
            w_dw=w(5, 5, 24), w_project=w(24, 8),
            mults=(q(0.02), q(0.01), q(0.03)),
        )
    )
    pipe.add(
        BottleneckStage(
            "b2", c_mid=32, c_out=16, kernel=7, w_expand=w(8, 32),
            w_dw=w(7, 7, 32), w_project=w(32, 16),
            mults=(q(0.02), q(0.01), q(0.03)), strides=(1, 2, 1),
        )
    )
    return pipe


@pytest.mark.parametrize("breakage", ["no_compiler", "compile_error"])
def test_turbo_falls_back_bit_exact(tmp_path, monkeypatch, breakage):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(native, "_loaded", None)
    if breakage == "no_compiler":
        monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    else:
        bad = tmp_path / "bad.c"
        bad.write_text("this is not C;\n")
        monkeypatch.setattr(native, "SOURCE", bad)
    fallback_calls = []
    real = turbo.requantize_fast
    monkeypatch.setattr(
        turbo, "requantize_fast",
        lambda *a, **kw: (fallback_calls.append(1), real(*a, **kw))[1],
    )
    rng = np.random.default_rng(0)
    pipe = _bottleneck_pipeline(rng)
    plan = pipe.plan()
    xs = [
        rng.integers(-128, 128, size=(12, 12, 8), dtype=np.int8)
        for _ in range(3)
    ]
    results = get_execution_backend("turbo").run_pipeline_batch(pipe, plan, xs)
    assert native.leaves() is None
    assert "unavailable" in native.status()
    assert fallback_calls
    for x, res in zip(xs, results):
        np.testing.assert_array_equal(
            res.output, pipe.run(x, plan=plan, execution="fast").output
        )
