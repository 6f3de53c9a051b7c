"""What a lone request pays for on the warm serving path.

The session half: a warm, bound turbo :class:`~repro.serving.Session`
checks its weights with one byte compare against the snapshot its binding
took (no ``cached_pack`` call) and reads only each result's ``output``
(no ``KernelRun`` built); a one-byte edit of any VWW weight still
re-binds and serves bit-exact; and stage runs built on first read equal
eagerly built ones, with one ``PoolStats`` copy per request.

The fleet half: a fixed fleet (``min_workers == max_workers``) makes no
autoscaler observation, while an elastic fleet makes them only on the
supervisor's sweep, never on the submitting or a worker thread, and
plans capacity at most once per sweep; a live ``apply_config`` from
fixed to elastic resumes them there.
"""

from __future__ import annotations

import threading
import time
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest

import repro
from repro.graph.models import build_classifier_graph
from repro.kernels import base, get_execution_backend, native, turbo
from repro.kernels.base import KernelRun
from repro.runtime.pipeline import stage_weight_arrays
from repro.serving import Dispatcher, session as session_mod
from repro.serving import dispatcher as dispatcher_mod
from repro.serving.control import Autoscaler, FleetConfig

#: stage weight arrays of the VWW classifier
VWW_WEIGHTS = 30


def random_int8(rng, shape):
    return rng.integers(-128, 128, size=shape, dtype=np.int8)


@pytest.fixture
def leaves():
    found = native.leaves()
    if found is None:
        pytest.skip(native.status())
    return found


@pytest.fixture(scope="module")
def vww():
    return repro.compile(build_classifier_graph("vww"), seed=7)


def calls_to(stack, owner, attr, calls):
    """Record every call of ``owner.attr`` in ``calls``, then delegate."""
    real = getattr(owner, attr)

    def counting(*args, **kwargs):
        calls.append(threading.current_thread())
        return real(*args, **kwargs)

    stack.enter_context(mock.patch.object(owner, attr, counting))


def model_weights(compiled) -> list[np.ndarray]:
    return [
        w
        for seg in compiled.segments
        for stage in seg.pipeline.stages
        for w in stage_weight_arrays(stage)
    ]


# --------------------------------------------------------------------------- #
# the session path
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("bsz", [1, 3])
def test_warm_bound_batch_packs_nothing_and_builds_no_runs(leaves, vww, bsz):
    session = vww.serve()
    rng = np.random.default_rng(bsz)
    xs = [random_int8(rng, (20, 20, 16)) for _ in range(bsz)]
    session.run_batch(xs)
    packs, runs = [], []
    with ExitStack() as stack:
        for module in (base, turbo, session_mod):
            calls_to(stack, module, "cached_pack", packs)
        calls_to(stack, KernelRun, "__init__", runs)
        served = session.run_batch(xs)
    assert packs == []
    assert runs == []
    for x, res in zip(xs, served):
        np.testing.assert_array_equal(
            res.output, vww.run(x, execution="fast").output
        )


@pytest.mark.parametrize("index", range(VWW_WEIGHTS))
def test_one_byte_edit_of_any_weight_rebinds_bit_exact(leaves, vww, index):
    session = vww.serve()
    weights = model_weights(vww)
    assert len(weights) == VWW_WEIGHTS
    x = random_int8(np.random.default_rng(index), (20, 20, 16))
    session.run(x)
    binding = session._bindings[0]
    table = binding.table
    w = weights[index]
    old = int(w.flat[-1])
    w.flat[-1] = old ^ 0x55
    try:
        served = session.run(x).output
        assert binding.table is not table
        np.testing.assert_array_equal(
            served, vww.run(x, execution="fast").output
        )
    finally:
        w.flat[-1] = old
    # and restoring the byte re-binds once more
    np.testing.assert_array_equal(
        session.run(x).output, vww.run(x, execution="fast").output
    )


@pytest.mark.parametrize("execution", ["fast", "turbo"])
def test_stage_runs_built_on_first_read_match_per_request_runs(
    vww, execution
):
    seg = vww.segments[0]
    pipe, plan = seg.pipeline, seg.plan
    rng = np.random.default_rng(5)
    shape = (pipe.input_hw, pipe.input_hw, pipe.input_c)
    xs = [random_int8(rng, shape) for _ in range(3)]
    batch = pipe.run_batch(xs, plan=plan, execution=execution)
    template = get_execution_backend(execution).pipeline_template(pipe, plan)
    stats = [template.pool_stats]
    for x, got in zip(xs, batch):
        want = pipe.run(x, plan=plan, execution="fast")
        runs = got.stage_runs
        assert got.stage_runs is runs  # built once, on the first read
        assert len(runs) == len(want.stage_runs) == len(plan.stages)
        for a, b, sp in zip(runs, want.stage_runs, plan.stages):
            np.testing.assert_array_equal(a.output, b.output)
            assert a.plan is sp.plan
            assert a.report == b.report
        np.testing.assert_array_equal(got.output, runs[-1].output)
        assert got.report == want.report
        assert got.stage_reports == want.stage_reports
        # one pool-stats copy per request, shared by its stage runs
        assert all(r.pool_stats is runs[0].pool_stats for r in runs)
        assert runs[0].pool_stats == want.stage_runs[-1].pool_stats
        stats.append(runs[0].pool_stats)
    # a copy each, none of them the template's own
    assert len({id(s) for s in stats}) == len(xs) + 1


# --------------------------------------------------------------------------- #
# the fleet path
# --------------------------------------------------------------------------- #
def sweep_observations(stack):
    """Per-thread calls of every autoscaler step, and of the sweep."""
    calls = {
        "decide": [], "decide_target": [], "_plan_workers": [],
        "plan_capacity": [], "_supervise": [],
    }
    calls_to(stack, Autoscaler, "decide", calls["decide"])
    calls_to(stack, Autoscaler, "decide_target", calls["decide_target"])
    calls_to(stack, Dispatcher, "_plan_workers", calls["_plan_workers"])
    calls_to(stack, dispatcher_mod, "plan_capacity", calls["plan_capacity"])
    calls_to(stack, Dispatcher, "_supervise", calls["_supervise"])
    return calls


def observed(stack):
    """Per-thread calls of the two autoscaler entry points."""
    calls = sweep_observations(stack)
    return calls["decide"], calls["_plan_workers"]


def burst(n, seed):
    rng = np.random.default_rng(seed)
    return [random_int8(rng, (20, 20, 16)) for _ in range(n)]


@pytest.mark.parametrize("mode", ["heuristic", "model"])
def test_fixed_fleet_makes_no_autoscaler_call(vww, mode):
    cfg = FleetConfig(
        min_workers=2, max_workers=2, max_batch=2, autoscale_mode=mode
    )
    xs = burst(24, seed=1)
    with ExitStack() as stack:
        decide, plan = observed(stack)
        with Dispatcher(vww, workers=2, config=cfg) as d:
            served = d.run_many(xs, timeout=60.0)
            assert d.stats.completed == len(xs)
    assert decide == [] and plan == []
    for x, res in zip(xs, served):
        np.testing.assert_array_equal(
            res.output, vww.run(x, execution="fast").output
        )


def await_calls(calls, deadline_s=60.0):
    """Wait, up to a deadline, until ``calls`` records one call."""
    deadline = time.monotonic() + deadline_s
    while not calls and time.monotonic() < deadline:
        time.sleep(0.005)


@pytest.mark.parametrize(
    "mode,entry", [("heuristic", "decide"), ("model", "plan_capacity")]
)
def test_elastic_fleet_observes_only_on_the_supervisor_sweep(
    vww, mode, entry
):
    cfg = FleetConfig(
        min_workers=1, max_workers=3, max_batch=1, autoscale_mode=mode
    )
    xs = burst(64, seed=2)
    with ExitStack() as stack:
        calls = sweep_observations(stack)
        with Dispatcher(vww, workers=1, config=cfg) as d:
            d.run_many(xs, timeout=60.0)
            # a calibrated model fleet plans on the next sweep
            await_calls(calls[entry])
            supervisor = d._supervisor
    assert calls[entry]
    for name in ("decide", "decide_target", "_plan_workers", "plan_capacity"):
        assert all(t is supervisor for t in calls[name]), name
    # at most one plan per sweep, whatever the number of requests
    assert len(calls["plan_capacity"]) <= len(calls["_supervise"]) + 1


def test_apply_config_from_fixed_to_elastic_resumes_observing(vww):
    fixed = FleetConfig(min_workers=2, max_workers=2, max_batch=2)
    with ExitStack() as stack:
        calls = sweep_observations(stack)
        with Dispatcher(vww, workers=2, config=fixed) as d:
            d.run_many(burst(8, seed=3), timeout=60.0)
            assert calls["decide"] == []
            d.apply_config(fixed.evolve(min_workers=1, max_workers=3))
            d.run_many(burst(8, seed=4), timeout=60.0)
            await_calls(calls["decide"])
            supervisor = d._supervisor
    assert calls["decide"]
    assert all(t is supervisor for t in calls["decide"])
