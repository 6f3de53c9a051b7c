"""The native leaves' build cache, fork safety and fallback.

* several processes building at once into an empty cache leave exactly
  one complete, loadable library, and a warm cache loads without running
  the compiler;
* the build lock is a serving lock, so a fork while a build is in flight
  cannot hand the child a lock that no thread will ever release;
* with no compiler on ``PATH``, or a compile that fails, the turbo backend
  keeps serving bit-exact results through ``requantize_fast`` and the
  NumPy tap loop;
* every build target has the fused bottleneck leaf and serves bit-exact
  through its segment entry, register-block tails, depthwise kernels,
  strides, pads and ring widths and all: an AVX2 build at 8 int32 lanes,
  a baseline x86-64 (SSE2) build at 4, AVX-512 builds at 16 accumulating
  through ``pmaddwd`` (skylake-avx512) and through ``vpdpwssd``
  (icelake-server), and a build with the intrinsic branches' macros
  undefined, which runs the portable form of ``pmaddwd``; ``status()``
  reports the lanes and the accumulate instruction, and ``nm`` lists the
  library's four exports, ``vmcu_segment`` the one compute entry;
* a build under AddressSanitizer and UBSan serves both models, chains of
  every stage kind and every register-block tail, depthwise kernel,
  stride and ring width bit-exact, in a spawned interpreter with the
  sanitizer runtime preloaded.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.kernels import base, get_execution_backend, native, turbo
from repro.quant import quantize_multiplier
from repro.runtime.pipeline import BottleneckStage, Pipeline, PointwiseStage
from tests.kernels.test_turbo_backend import (
    BLOCK_CHAINS,
    assert_chain_matches_fast,
    fused_calls,
    random_chain,
    random_int8,
    segment_calls,
)

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


#: the library's exports: its one compute entry and what describes the
#: build (``_Leaves`` binds each)
EXPORTS = {"vmcu_accumulate", "vmcu_lanes", "vmcu_segment", "vmcu_stage_fields"}


def assert_exports(path: Path) -> None:
    """``nm -D --defined-only`` lists exactly EXPORTS among the library's
    ``vmcu_*`` symbols; not checked where ``nm`` is missing."""
    nm = shutil.which("nm")
    if nm is None:
        return
    out = subprocess.run(
        [nm, "-D", "--defined-only", str(path)], capture_output=True,
        text=True, check=True,
    ).stdout
    names = {line.split()[-1] for line in out.splitlines() if line.strip()}
    assert {n for n in names if n.startswith("vmcu_")} == EXPORTS


def _serves_bit_exact(path: Path, monkeypatch) -> native._Leaves:
    """Load the library at ``path`` as this process's leaves; turbo must
    serve the bottleneck pipeline and BLOCK_CHAINS (every depthwise
    kernel, stride, pad and ring width among them) through its segment
    entry, bit for bit."""
    found = native._Leaves(ctypes.CDLL(str(path)))
    monkeypatch.setattr(native, "_loaded", (found, f"loaded from {path}"))
    rng = np.random.default_rng(1)
    pipe = _bottleneck_pipeline(rng)
    plan = pipe.plan()
    xs = [
        rng.integers(-128, 128, size=(12, 12, 8), dtype=np.int8)
        for _ in range(3)
    ]
    backend = get_execution_backend("turbo")
    # the cost template's dry run runs the per-stage fused leaf, the
    # stacked pass then one segment call
    with fused_calls() as calls:
        backend.pipeline_template(pipe, plan)
    assert calls
    with segment_calls() as calls:
        results = backend.run_pipeline_batch(pipe, plan, xs)
    assert len(calls) == 1
    for x, res in zip(xs, results):
        np.testing.assert_array_equal(
            res.output, pipe.run(x, plan=plan, execution="fast").output
        )
    for hw, c, body, classes in BLOCK_CHAINS:
        assert_chain_matches_fast(
            random_chain(rng, hw, c, body, classes),
            [random_int8(rng, (hw, hw, c)) for _ in range(2)],
        )
    return found


#: per -march target: int32 lanes, the accumulate instruction, and the
#: /proc/cpuinfo flags of the extensions it relies on (skipped without)
BUILD_TARGETS = {
    "haswell": (8, "pmaddwd", ("avx2",)),
    "x86-64": (4, "pmaddwd", ()),
    # 16 lanes through pmaddwd and an add: on a VNNI host, the one
    # 16-lane path the native build does not run
    "skylake-avx512": (
        16, "pmaddwd", ("avx512f", "avx512bw", "avx512vl", "avx512dq"),
    ),
    "icelake-server": (
        16, "vpdpwssd",
        ("avx512bw", "avx512vl", "avx512_vnni", "avx512vbmi",
         "avx512_vbmi2", "avx512_bitalg", "avx512_vpopcntdq"),
    ),
}


@pytest.mark.skipif(
    platform.machine() not in ("x86_64", "AMD64"),
    reason="builds for x86-64 -march targets",
)
@pytest.mark.parametrize("march", list(BUILD_TARGETS))
def test_build_target_selects_the_fused_bottleneck(
    tmp_path, monkeypatch, march
):
    lanes, accumulate, needs = BUILD_TARGETS[march]
    if shutil.which(native.COMPILER) is None:
        pytest.skip(f"no {native.COMPILER} on PATH")
    missing = set(needs) - set(native._cpu_flags().split())
    if missing:
        pytest.skip(f"this CPU cannot run {march} code: no {sorted(missing)}")
    monkeypatch.setattr(
        native, "CFLAGS", ("-O3", f"-march={march}", "-shared", "-fPIC")
    )
    path = native.build(native.SOURCE.read_text(), directory=tmp_path)
    assert hasattr(ctypes.CDLL(str(path)), "vmcu_segment")
    assert_exports(path)
    found = _serves_bit_exact(path, monkeypatch)
    assert (found.lanes, found.accumulate) == (lanes, accumulate)
    assert f"{lanes} int32 lanes, {accumulate}" in native.status()


def test_portable_pmaddwd_is_bit_exact(tmp_path, monkeypatch):
    """With the macros that select the intrinsics undefined, the source
    compiles its portable form of ``pmaddwd``, still for this CPU."""
    if shutil.which(native.COMPILER) is None:
        pytest.skip(f"no {native.COMPILER} on PATH")
    monkeypatch.setattr(
        native, "CFLAGS",
        (*native.CFLAGS, "-U__SSE2__", "-U__AVX2__", "-U__AVX512BW__",
         "-U__AVX512VNNI__"),
    )
    path = native.build(native.SOURCE.read_text(), directory=tmp_path)
    assert_exports(path)
    found = _serves_bit_exact(path, monkeypatch)
    assert (found.lanes, found.accumulate) == (4, "portable pmaddwd")
    assert "4 int32 lanes, portable pmaddwd" in native.status()


#: served in a spawned interpreter over a sanitized build of the leaves:
#: both models at B=3 through Session.run_batch, a few random chains of
#: every stage kind, and BLOCK_CHAINS (c_out 17 and 33 at 7 pixels, so an
#: int8 store past a pixel's valid channels, or past the output, and a
#: pair write past a ring narrower than its row abort; every depthwise
#: kernel, stride and pad), each bit-exact against "fast"; exits nonzero
#: on a mismatch, and the sanitizers abort on any memory error or
#: undefined behaviour
SANITIZED_SERVING = r"""
import ctypes
import sys

import numpy as np

from repro.kernels import get_execution_backend, native

native._loaded = (native._Leaves(ctypes.CDLL(sys.argv[1])), "sanitized")

import repro
from repro.graph.models import build_classifier_graph, build_network_graph
from repro.mcu.device import STM32F767ZI
from tests.kernels.test_turbo_backend import (
    BLOCK_CHAINS,
    assert_chain_matches_fast,
    random_chain,
    segment_calls,
)

rng = np.random.default_rng(0)


def feeds(compiled):
    return {
        name: rng.integers(
            -128, 128, compiled.graph.tensors[name].spec.shape, np.int8
        )
        for name in compiled.graph.inputs
    }


# opening a session and deriving a template run every stage on its own
# (one-row segments); the stacked passes below are then one call each
models = [
    repro.compile(build_classifier_graph("vww")),
    repro.compile(build_network_graph("imagenet"), device=STM32F767ZI),
]
sessions = [compiled.serve() for compiled in models]
chains = [
    (9, 8, [("pw", 2, 17), ("bn", 3, 40, None, (1, 1, 1)),
            ("bn", 2, 8, 5, (1, 2, 1))], 1000),
    (7, 3, [("bn", 7, 17, 16, (2, 1, 1)), ("pw", 1, 33)], 10),
    (8, 17, [("bn", 5, 3, None, (1, 1, 1)), ("pw", 2, 1)], None),
]
turbo, fast = get_execution_backend("turbo"), get_execution_backend("fast")
pipes = []
for hw, c, body, classes in chains:
    pipe = random_chain(rng, hw, c, body, classes)
    plan = pipe.plan()
    turbo.pipeline_template(pipe, plan)
    pipes.append((pipe, plan, hw, c))
with segment_calls() as calls:
    for compiled, session in zip(models, sessions):
        requests = [feeds(compiled) for _ in range(3)]
        for req, res in zip(requests, session.run_batch(requests)):
            want = compiled.run(feeds=req, execution="fast").output
            assert np.array_equal(res.output, want), compiled.graph.name
    for pipe, plan, hw, c in pipes:
        xs = [rng.integers(-128, 128, (hw, hw, c), np.int8) for _ in range(3)]
        for a, b in zip(turbo.run_pipeline_batch(pipe, plan, xs),
                        fast.run_pipeline_batch(pipe, plan, xs)):
            assert np.array_equal(a.output, b.output), plan
assert len(calls) == 1 + 2 + len(chains), len(calls)
for hw, c, body, classes in BLOCK_CHAINS:
    assert_chain_matches_fast(
        random_chain(rng, hw, c, body, classes),
        [rng.integers(-128, 128, (hw, hw, c), np.int8) for _ in range(3)],
    )
print("sanitized serving bit-exact")
"""


def test_sanitized_build_serves_bit_exact(tmp_path):
    """The leaves built with AddressSanitizer and UBSan serve both models
    and mixed chains without a report."""
    cc = shutil.which(native.COMPILER)
    if cc is None:
        pytest.skip(f"no {native.COMPILER} on PATH")
    runtime = subprocess.run(
        [cc, "-print-file-name=libasan.so"], capture_output=True, text=True,
        check=False,
    ).stdout.strip()
    if not os.path.isabs(runtime) or not os.path.exists(runtime):
        pytest.skip("no libasan for this compiler")
    lib = tmp_path / "native-sanitized.so"
    subprocess.run(
        [cc, *native.CFLAGS, "-fsanitize=address,undefined",
         "-fno-sanitize-recover=all", str(native.SOURCE), "-o", str(lib)],
        check=True, timeout=native.COMPILE_TIMEOUT_S,
    )
    root = Path(__file__).resolve().parents[2]
    env = dict(
        os.environ,
        LD_PRELOAD=runtime,
        ASAN_OPTIONS="detect_leaks=0",
        PYTHONPATH=os.pathsep.join((str(root / "src"), str(root))),
    )
    proc = subprocess.run(
        [sys.executable, "-c", SANITIZED_SERVING, str(lib)],
        cwd=root, env=env, capture_output=True, text=True, timeout=600,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert "sanitized serving bit-exact" in proc.stdout
