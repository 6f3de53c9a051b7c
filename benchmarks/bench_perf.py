"""Tracked performance benchmark: simulate vs fast execution backends.

Times both execution backends on the Table 2 backbones (full-model
inference through ``repro.compile``) and on per-kernel microbenchmarks,
verifies bit-exactness of every pair, and writes ``BENCH_perf.json`` at the
repository root so the speedup trajectory is tracked from commit to commit.
A third ``kind: "batched"`` series tracks the serving layer: one warmed
``execution="fast"`` ``Session`` dispatching batch-8 requests as stacked
int32 GEMMs vs a per-call ``"fast"`` loop on the VWW models (target:
>= 1.10x requests/sec, still bit-exact with bit-identical per-request
cost reports).  A fourth ``kind: "dispatch"`` series tracks the sharded
serving dispatcher: a 4-worker ``Dispatcher`` (deadline-aware
micro-batching, turbo workers) vs a single-worker stacked-int32
``Session.run_batch`` loop at batch 8 (target: >= 1.8x requests/sec,
outputs and cost reports still bit-exact).  A
fifth ``kind: "control"`` series tracks the control plane: under a 4:1
bronze:gold priority mix on one worker, the QoS batch former must land
gold's p95 latency >= 1.3x better than the FIFO order it replaced —
still bit-exact.  A sixth ``kind: "fleet"`` series tracks the fleet
evaluation subsystem: a seeded heterogeneous trace (M4 + M7 tenants,
diurnal + MMPP arrivals) replayed against a real dispatcher under
virtual-time dilation, graded against the M/G/k capacity model.  Its
hard gate is *accuracy*, not wall clock: request-weighted mean p95 and
deadline-hit prediction errors must stay < 20% (enforced in smoke runs
too — the model grades itself against what the same run measured, so
runner speed cancels out), admission accounting must balance, and
sampled replayed outputs must stay bit-exact vs per-call
``execution="fast"``.  Replay throughput (>= 500 req/s) is enforced in
full runs only.  A seventh ``kind: "storm"`` series tracks availability
under fire: the storm trace replayed under a seeded chaos storm against
a resilient fleet (retry budget, circuit breaker, model-driven
autoscaling), with hard deterministic gates — exact failure
containment, admission balance, per-window availability >= 99.5%
outside the storm windows, the retry-budget guardrail, bit-exact
non-poisoned outputs vs a clean baseline, self-healing to the
planner's worker target, and failed-set/digest reproducibility on a
``keep_outputs=False`` rerun.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf.py           # full run
    PYTHONPATH=src python benchmarks/bench_perf.py --smoke   # CI artifact

``--smoke`` drops the ImageNet workload entirely (its simulate pass alone
is tens of seconds of pure Python pool replay) and shrinks the microbench
shapes; the JSON schema is unchanged, but smoke artifacts cover the VWW
models only and their speedup gate is advisory (shared CI runners are too
noisy for a hard wall-clock threshold).  The artifact is byte-stable by
default so reruns diff clean; pass ``--stamp`` to embed the wall-clock
``unix_time`` field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: the one place the schema version lives; bumped to v6 for the storm
#: series (the v5 additions — fleet series — are unchanged)
SCHEMA = "bench_perf/v6"
SPEEDUP_TARGET = 20.0  # PR-2 acceptance: >=20x on full-model inference
BATCHED_TARGET = 1.10  # PR-4 acceptance: >=1.10x req/s at batch >= 8 (vww)
DISPATCH_TARGET = 1.8  # PR-5 acceptance: >=1.8x req/s, 4-worker dispatcher
CONTROL_TARGET = 1.3  # PR-6 acceptance: gold p95 >=1.3x better vs fifo
BATCH_SIZE = 8
DISPATCH_WORKERS = 4
DISPATCH_REQUESTS = 32
CONTROL_REQUESTS = 40
CONTROL_BATCH = 4
#: PR-8 acceptance: M/G/k prediction errors (weighted mean) < 20%
FLEET_ERROR_TARGET = 0.20
#: PR-8 acceptance, full runs only: sustained replay throughput
FLEET_THROUGHPUT_TARGET = 500.0  # completed requests per wall second
#: both fleet modes target the same ~830 req/s mean arrival rate
#: (moderate single-worker utilization, the model's validated regime)
FLEET_REQUESTS = 20_000
FLEET_DILATION = 3_600.0
FLEET_WINDOW_S = 7_200.0
FLEET_SMOKE_REQUESTS = 2_000
FLEET_SMOKE_DILATION = 36_000.0
FLEET_SMOKE_WINDOW_S = 21_600.0
#: PR-9 acceptance: per-window availability outside storm windows
STORM_AVAILABILITY_TARGET = 0.995
STORM_REQUESTS = 3_000
STORM_DILATION = 60.0
STORM_SMOKE_REQUESTS = 900
STORM_SMOKE_DILATION = 180.0
STORM_WINDOW_S = 150.0
MIN_MEASURE_S = 0.05  # minimum total time per measurement window


def _rng(seed=0):
    return np.random.default_rng(seed)


def _int8(rng, shape):
    return rng.integers(-128, 128, size=shape, dtype=np.int8)


def _time(fn, repeats, min_total=MIN_MEASURE_S):
    """Best per-call time with a minimum total measurement window.

    A single ``perf_counter`` span around a microsecond-scale kernel is
    dominated by timer granularity and interpreter jitter (the old
    single-shot measurement reported ``fully_connected_8x64x64`` at
    exactly 1 ms).  timeit-style: one calibration call sizes an inner
    iteration count so every measured window spans at least ``min_total``
    seconds; the reported time is the best window divided by its
    iterations.  Workloads whose single call already exceeds the floor
    (the multi-second simulate passes) make exactly ``repeats`` calls in
    total: the calibration measurement counts as the first window.
    """
    t0 = time.perf_counter()
    out = fn()
    once = time.perf_counter() - t0
    if once >= min_total:
        best = once
        for _ in range(repeats - 1):
            t0 = time.perf_counter()
            out = fn()
            best = min(best, time.perf_counter() - t0)
        return best, out
    inner = max(1, int(-(-min_total // max(once, 1e-9))))
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            out = fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best, out


def _reports_match(a, b) -> bool:
    return (
        a.cycles == b.cycles
        and a.instructions == b.instructions
        and a.macs == b.macs
        and a.sram_bytes == b.sram_bytes
        and a.flash_bytes == b.flash_bytes
        and a.modulo_ops == b.modulo_ops
    )


def _entry(name, kind, sim_s, fast_s, sim_run, fast_run):
    return {
        "name": name,
        "kind": kind,
        "simulate_s": round(sim_s, 6),
        "fast_s": round(fast_s, 6),
        "speedup": round(sim_s / fast_s, 2) if fast_s > 0 else None,
        "bitexact": bool(np.array_equal(sim_run.output, fast_run.output)),
        "report_match": _reports_match(sim_run.report, fast_run.report),
    }


# --------------------------------------------------------------------------- #
# microbenchmarks
# --------------------------------------------------------------------------- #
def kernel_cases(smoke: bool):
    """Representative per-kernel shapes (figure-scale, not toy-scale)."""
    from repro.core.multilayer import BottleneckSpec
    from repro.kernels import (
        Conv2dKernel,
        DepthwiseConvKernel,
        FullyConnectedKernel,
        FusedBottleneckKernel,
        PointwiseConvKernel,
    )
    from repro.kernels.pooling import GlobalAvgPoolKernel
    from repro.quant import quantize_multiplier

    q = quantize_multiplier
    mults = (q(0.02), q(0.015), q(0.03))
    hw = 16 if smoke else 32
    rng = _rng(7)

    cases = []

    k = PointwiseConvKernel(hw, hw, 16, 32)
    cases.append(
        (
            f"pointwise_{hw}x{hw}x16x32",
            lambda ex, k=k, x=_int8(rng, (hw, hw, 16)),
            w=_int8(rng, (16, 32)): k.run(x, w, q(0.02), execution=ex),
        )
    )

    k = Conv2dKernel(hw, hw, 8, 16, kernel=3, stride=1, padding=1)
    cases.append(
        (
            f"conv2d_3x3_{hw}x{hw}x8x16",
            lambda ex, k=k, x=_int8(rng, (hw, hw, 8)),
            w=_int8(rng, (3, 3, 8, 16)): k.run(x, w, q(0.02), execution=ex),
        )
    )

    k = DepthwiseConvKernel(hw, hw, 32, kernel=3, stride=1, padding=1)
    cases.append(
        (
            f"depthwise_3x3_{hw}x{hw}x32",
            lambda ex, k=k, x=_int8(rng, (hw, hw, 32)),
            w=_int8(rng, (3, 3, 32)): k.run(x, w, q(0.02), execution=ex),
        )
    )

    k = FullyConnectedKernel(8, 64, 64)
    cases.append(
        (
            "fully_connected_8x64x64",
            lambda ex, k=k, x=_int8(rng, (8, 64)),
            w=_int8(rng, (64, 64)): k.run(x, w, q(0.02), execution=ex),
        )
    )

    k = GlobalAvgPoolKernel(hw, hw, 32)
    cases.append(
        (
            f"avgpool_{hw}x{hw}x32",
            lambda ex, k=k, x=_int8(rng, (hw, hw, 32)): k.run(
                x, q(0.01), execution=ex
            ),
        )
    )

    spec = BottleneckSpec(
        name="S3", hw=10, c_in=24, c_mid=144, c_out=16, kernel=3
    )
    k = FusedBottleneckKernel(spec)
    cases.append(
        (
            "bottleneck_S3_10x24x144x16",
            lambda ex, k=k, x=_int8(rng, (10, 10, 24)),
            w1=_int8(rng, (24, 144)), wd=_int8(rng, (3, 3, 144)),
            w2=_int8(rng, (144, 16)): k.run(
                x, w1, wd, w2, mults, execution=ex
            ),
        )
    )
    return cases


def bench_kernels(smoke: bool, repeats: int):
    results = []
    for name, runner in kernel_cases(smoke):
        runner("simulate")  # untimed warm-up: weight-pack cache + allocator
        sim_s, sim_run = _time(lambda: runner("simulate"), 1)
        fast_s, fast_run = _time(lambda: runner("fast"), repeats)
        results.append(_entry(name, "kernel", sim_s, fast_s, sim_run, fast_run))
    return results


# --------------------------------------------------------------------------- #
# full models (Table 2 backbones)
# --------------------------------------------------------------------------- #
def model_cases(smoke: bool):
    from repro.graph.models import build_classifier_graph, build_network_graph

    cases = [
        ("mcunet-vww-backbone", build_network_graph("vww")),
        ("mcunet-vww-classifier", build_classifier_graph("vww", classes=2)),
    ]
    if not smoke:
        cases.append(
            ("mcunet-imagenet-backbone", build_network_graph("imagenet"))
        )
    return cases


def bench_models(smoke: bool, repeats: int):
    import repro

    results = []
    for name, graph in model_cases(smoke):
        cm = repro.compile(graph)
        rng = _rng(11)
        feeds = {
            i: _int8(rng, cm.graph.tensors[i].spec.shape)
            for i in cm.graph.inputs
        }
        # single simulate rep: the one-time weight-pack cost it carries is
        # microseconds against a 0.5-27 s pool replay (<0.1% bias), far
        # inside the margin of the 20x gate; fast is best-of-N (warm)
        sim_s, sim_run = _time(lambda: cm.run(feeds=feeds), 1)
        fast_s, fast_run = _time(
            lambda: cm.run(feeds=feeds, execution="fast"), repeats
        )
        results.append(_entry(name, "model", sim_s, fast_s, sim_run, fast_run))
    return results


# --------------------------------------------------------------------------- #
# serving (plan-once/run-many: one session, stacked batches)
# --------------------------------------------------------------------------- #
def bench_batched(smoke: bool, repeats: int):
    """``kind: "batched"`` series: Session.run_batch vs per-call fast.

    Scope matches the acceptance gate: the VWW models at batch >= 8, where
    a stacked ``execution="fast"`` session must deliver >= 1.10x
    requests/sec over a per-request ``execution="fast"`` loop while
    staying bit-exact with bit-identical per-request cost reports.  The
    session is pinned to ``"fast"`` so both sides run the same int32
    arithmetic and the ratio isolates what batching and template replay
    buy.
    """
    import repro

    results = []
    for name, graph in model_cases(smoke=True):  # gate scope: vww models
        cm = repro.compile(graph, execution="fast")
        session = cm.serve(execution="fast")
        rng = _rng(13)
        shape = cm.graph.tensors[cm.graph.inputs[0]].spec.shape
        xs = [_int8(rng, shape) for _ in range(BATCH_SIZE)]
        fast_s, fast_runs = _time(
            lambda: [cm.run(x, execution="fast") for x in xs], repeats
        )
        batched_s, served = _time(lambda: session.run_batch(xs), repeats)
        results.append(
            {
                "name": f"{name}@batch{BATCH_SIZE}",
                "kind": "batched",
                "batch": BATCH_SIZE,
                "fast_s": round(fast_s, 6),
                "batched_s": round(batched_s, 6),
                "speedup": round(fast_s / batched_s, 2),
                "requests_per_s": round(BATCH_SIZE / batched_s, 1),
                "bitexact": all(
                    np.array_equal(s.output, f.output)
                    for s, f in zip(served, fast_runs)
                ),
                "report_match": all(
                    _reports_match(s.stats.report, f.report)
                    for s, f in zip(served, fast_runs)
                ),
            }
        )
    return results


# --------------------------------------------------------------------------- #
# dispatcher (sharded multi-worker serving vs single-worker run_batch)
# --------------------------------------------------------------------------- #
def bench_dispatch(smoke: bool, repeats: int):
    """``kind: "dispatch"`` series: 4-worker Dispatcher vs 1-worker Session.

    The acceptance gate of the sharded serving layer: a closed-loop burst
    of requests through a ``Dispatcher`` (deadline-aware micro-batching,
    ``"turbo"`` workers) must sustain >= 1.8x the requests/sec of a
    single-worker ``Session.run_batch`` loop at batch 8 on the VWW
    models (the PR-4 status quo: stacked int32 GEMMs, pinned with
    ``execution="fast"``) — with outputs bit-exact
    and per-request cost reports bit-identical to per-call
    ``execution="fast"``.

    Each entry also records ``turbo_1worker_s``, a single-worker
    ``"turbo"`` session over the same requests, which separates the two
    ingredients of the gate: ``baseline_s / turbo_1worker_s`` is the
    arithmetic speedup, ``turbo_1worker_s / dispatch_s`` is what
    sharding + micro-batching add on top (≈ 1x on a single-core host,
    where the GIL-released GEMMs have no spare core to land on).
    """
    import repro
    from repro.serving import Dispatcher

    # gate scope is the VWW models in both modes; smoke only shrinks the
    # burst so shared CI runners finish quickly
    n = DISPATCH_REQUESTS // 2 if smoke else DISPATCH_REQUESTS
    results = []
    for name, graph in model_cases(smoke=True):
        cm = repro.compile(graph, execution="fast")
        # the PR-4 status quo: stacked int32 GEMMs, one worker
        session = cm.serve(execution="fast")
        rng = _rng(17)
        shape = cm.graph.tensors[cm.graph.inputs[0]].spec.shape
        xs = [_int8(rng, shape) for _ in range(n)]
        fast_runs = [cm.run(x, execution="fast") for x in xs]

        def baseline():
            out = []
            for i in range(0, n, BATCH_SIZE):
                out.extend(session.run_batch(xs[i : i + BATCH_SIZE]))
            return out

        baseline()  # warm packs/templates
        baseline_s, _ = _time(baseline, repeats)

        turbo_session = cm.serve(execution="turbo")

        def turbo_1worker():
            out = []
            for i in range(0, n, BATCH_SIZE):
                out.extend(turbo_session.run_batch(xs[i : i + BATCH_SIZE]))
            return out

        turbo_1worker()  # warm f64 packs
        turbo_1w_s, _ = _time(turbo_1worker, repeats)

        # warm with a throwaway dispatcher (turbo weight packs and cost
        # templates are process-wide caches), then measure on a fresh one
        # so the recorded p50/p95/deadline stats cover only warm repeats
        with Dispatcher(
            cm, workers=DISPATCH_WORKERS, max_batch=BATCH_SIZE
        ) as warmup:
            warmup.run_many(xs, timeout=120.0)
        with Dispatcher(
            cm, workers=DISPATCH_WORKERS, max_batch=BATCH_SIZE
        ) as dispatcher:
            dispatch_s, served = _time(
                lambda: dispatcher.run_many(xs, timeout=120.0), repeats
            )
            stats = dispatcher.stats
        results.append(
            {
                "name": f"{name}@dispatch{DISPATCH_WORKERS}w",
                "kind": "dispatch",
                "workers": DISPATCH_WORKERS,
                "batch": BATCH_SIZE,
                "requests": n,
                "baseline_s": round(baseline_s, 6),
                "turbo_1worker_s": round(turbo_1w_s, 6),
                "dispatch_s": round(dispatch_s, 6),
                "speedup": round(baseline_s / dispatch_s, 2),
                "sharding_speedup": round(turbo_1w_s / dispatch_s, 2),
                "requests_per_s": round(n / dispatch_s, 1),
                "p50_ms": round(1e3 * stats.p50_latency_s, 2),
                "p95_ms": round(1e3 * stats.p95_latency_s, 2),
                "deadline_hit_rate": round(stats.deadline_hit_rate, 4),
                "bitexact": all(
                    np.array_equal(s.output, f.output)
                    for s, f in zip(served, fast_runs)
                ),
                "report_match": all(
                    _reports_match(s.stats.report, f.report)
                    for s, f in zip(served, fast_runs)
                ),
            }
        )
    return results


# --------------------------------------------------------------------------- #
# control plane (priority QoS batch forming vs the FIFO order it replaced)
# --------------------------------------------------------------------------- #
def bench_control(smoke: bool, repeats: int):
    """``kind: "control"`` series: QoS scheduling vs FIFO on a priority mix.

    The acceptance gate of the control plane: under the 4:1 bronze:gold
    flood of :func:`repro.eval.experiments.priority_mix_trial` (two
    tenants, one worker, micro-batch 4), the priority/weighted batch
    former must land gold's p95 latency at least ``CONTROL_TARGET``x
    better than ``scheduling="fifo"`` — the pre-control-plane head-tenant
    order — with every output still bit-exact vs per-call
    ``execution="fast"``.  Best-of-N on each side so a single slow batch
    (GC, CI noise) cannot fail the ratio.
    """
    import repro
    from repro.eval.experiments import priority_mix_trial
    from repro.graph.models import build_classifier_graph

    n = CONTROL_REQUESTS // 2 if smoke else CONTROL_REQUESTS
    cm = repro.compile(
        build_classifier_graph("vww", classes=2), execution="fast"
    )
    trial = dict(n_requests=n, max_batch=CONTROL_BATCH)
    # warm the turbo packs and cost templates off the clock
    priority_mix_trial(cm, scheduling="weighted", **trial)

    def gold_p95(scheduling):
        best = None
        for _ in range(repeats):
            pool, resolved, stats = priority_mix_trial(
                cm, scheduling=scheduling, **trial
            )
            p95 = stats.per_tenant["gold"].p95_latency_s
            if best is None or p95 < best[0]:
                best = (p95, pool, resolved, stats)
        return best

    fifo_p95, _, _, _ = gold_p95("fifo")
    ctrl_p95, pool, resolved, stats = gold_p95("weighted")
    fast_runs = {
        i: cm.run(x, execution="fast") for i, x in enumerate(pool)
    }
    return [
        {
            "name": f"mcunet-vww-classifier@priority-mix{n}",
            "kind": "control",
            "requests": n,
            "workers": 1,
            "batch": CONTROL_BATCH,
            "gold_requests": stats.per_tenant["gold"].requests,
            "fifo_gold_p95_ms": round(1e3 * fifo_p95, 2),
            "control_gold_p95_ms": round(1e3 * ctrl_p95, 2),
            "speedup": round(fifo_p95 / ctrl_p95, 2) if ctrl_p95 > 0 else None,
            "deadline_hit_rate": round(stats.deadline_hit_rate, 4),
            "config_epoch": stats.config_epoch,
            "bitexact": all(
                np.array_equal(res.output, fast_runs[idx].output)
                for _, idx, res in resolved
            ),
            "report_match": all(
                _reports_match(res.stats.report, fast_runs[idx].report)
                for _, idx, res in resolved
            ),
        }
    ]


# --------------------------------------------------------------------------- #
# fleet (trace replay vs the M/G/k capacity model)
# --------------------------------------------------------------------------- #
def bench_fleet(smoke: bool, repeats: int):
    """``kind: "fleet"`` series: trace replay graded by the M/G/k model.

    One seeded heterogeneous replay (four tenants across the M4 and M7
    device classes, diurnal + MMPP arrivals, Zipf skew) through
    :func:`repro.eval.experiments.fleet_trial`, with three checks:

    * **accuracy** — the model's predicted p95 and deadline-hit rate per
      window must land within ``FLEET_ERROR_TARGET`` of measured
      (request-weighted mean), and admission accounting must balance;
    * **bit-exactness** — a sample of replayed outputs (up to 8 per
      tenant) recomputed with per-call ``execution="fast"`` on the same
      deterministic pool feeds must match bit for bit;
    * **cost parity** — each tenant's model stays ``"fast"`` vs
      ``"simulate"`` parity-locked on a pool input (the fleet library's
      chains are tiny, so the simulate passes cost milliseconds).
    """
    from repro.eval.experiments import fleet_trial
    from repro.fleet.replay import build_fleet, input_pools

    n = FLEET_SMOKE_REQUESTS if smoke else FLEET_REQUESTS
    trace, result, report = fleet_trial(
        n_requests=n,
        dilation=FLEET_SMOKE_DILATION if smoke else FLEET_DILATION,
        window_s=FLEET_SMOKE_WINDOW_S if smoke else FLEET_WINDOW_S,
    )
    compiled = build_fleet(trace)
    pools = input_pools(trace, compiled)
    pool_sizes = {t.name: t.pool_size for t in trace.spec.tenants}

    bitexact = True
    checked = {t.name: 0 for t in trace.spec.tenants}
    refs = {}
    for rec in result.records:
        if rec.outcome != "completed" or checked[rec.tenant] >= 8:
            continue
        checked[rec.tenant] += 1
        draw = int(trace.input_draw[rec.index]) % pool_sizes[rec.tenant]
        key = (rec.tenant, draw)
        if key not in refs:
            refs[key] = compiled[rec.tenant].run(
                feeds=pools[rec.tenant][draw], execution="fast"
            )
        bitexact = bitexact and np.array_equal(
            rec.output, refs[key].output
        )

    report_match = True
    for tenant, pool in pools.items():
        fast = compiled[tenant].run(feeds=pool[0], execution="fast")
        sim = compiled[tenant].run(feeds=pool[0])
        bitexact = bitexact and np.array_equal(fast.output, sim.output)
        report_match = report_match and _reports_match(
            fast.report, sim.report
        )

    counts = result.outcome_counts()
    return [
        {
            "name": f"fleet-heterogeneous@{n}req",
            "kind": "fleet",
            "requests": n,
            "workers": result.config.workers,
            "dilation": result.config.dilation,
            "device_classes": sorted(set(result.device_classes.values())),
            "trace_digest": trace.digest(),
            "outputs_digest": result.outputs_digest(),
            "completed": counts["completed"],
            "failed": counts["failed"],
            "shed": counts["shed"],
            "rejected": counts["rejected"],
            "balanced": result.balanced,
            "replay_wall_s": round(result.wall_s, 3),
            "replay_requests_per_s": round(result.requests_per_s, 1),
            "windows_graded": len(report.rows),
            "windows_skipped": report.windows_skipped,
            "overhead_ms": round(1e3 * report.overhead_s, 3),
            "mean_p95_error": round(report.mean_p95_error, 4),
            "max_p95_error": round(report.max_p95_error, 4),
            "mean_hit_error": round(report.mean_hit_error, 4),
            "max_hit_error": round(report.max_hit_error, 4),
            "model_validated": report.passed(FLEET_ERROR_TARGET),
            "bitexact": bitexact,
            "report_match": report_match,
        }
    ]


def bench_storm(smoke: bool, repeats: int):
    """``kind: "storm"`` series: availability under a seeded chaos storm.

    Three replays of the 4-tenant storm trace through
    :func:`repro.eval.experiments.storm_trial` — a clean baseline, the
    ``"mixed"`` storm (tenant-scoped poison + pool-child kill +
    brownout) against a resilient fleet (bounded retries under a
    fleet-wide retry budget, hair-trigger breaker, model-driven
    autoscaling), and a ``keep_outputs=False`` determinism rerun.  All
    gates are deterministic — a chaos replay is a pure function of
    ``(trace_seed, storm_seed)`` — so they are hard in smoke too:

    * **containment** — the failed set equals the storm plan's preview;
    * **balance** — ``admitted == completed + failed + shed``;
    * **availability** — admitted-weighted success ratio >= the SLO in
      every window outside the storm phases;
    * **retry guardrail** — granted retries <= ``burst + ratio * admitted``;
    * **bit-exactness** — every non-poisoned output digest matches the
      clean baseline (and cost parity holds per tenant);
    * **determinism** — the rerun reproduces the failed set and the
      outputs digest without keeping a single output tensor.
    """
    from repro.compiler import PlanCache
    from repro.eval.experiments import (
        storm_suite,
        storm_trace_spec,
        storm_trial,
    )
    from repro.fleet import generate_trace
    from repro.fleet.replay import build_fleet, input_pools
    from repro.serving import ErrorBudget, availability_report

    n = STORM_SMOKE_REQUESTS if smoke else STORM_REQUESTS
    trace = generate_trace(storm_trace_spec(n))
    plan_cache = PlanCache()
    compiled = build_fleet(trace, plan_cache=plan_cache)
    common = dict(
        dilation=STORM_SMOKE_DILATION if smoke else STORM_DILATION,
        window_s=STORM_WINDOW_S,
        trace=trace,
        compiled=compiled,
        plan_cache=plan_cache,
    )
    storm = storm_suite(trace.spec.horizon_s)["mixed"]
    _, _, baseline = storm_trial(storm=None, **common)
    _, plan, result = storm_trial(storm=storm, **common)
    _, _, rerun = storm_trial(storm=storm, keep_outputs=False, **common)

    report = availability_report(
        result.telemetry,
        budget=ErrorBudget(slo=STORM_AVAILABILITY_TARGET),
        storm_windows=plan.storm_window_ids(STORM_WINDOW_S),
        audit=result.stats.audit,
        horizon_s=result.wall_s,
    )
    base_digests = {r.index: r.output_digest for r in baseline.records}
    bitexact = all(
        r.output_digest == base_digests[r.index]
        for r in result.records
        if r.outcome == "completed"
    )
    report_match = True
    pools = input_pools(trace, compiled)
    for tenant, pool in pools.items():
        fast = compiled[tenant].run(feeds=pool[0], execution="fast")
        sim = compiled[tenant].run(feeds=pool[0])
        bitexact = bitexact and np.array_equal(fast.output, sim.output)
        report_match = report_match and _reports_match(
            fast.report, sim.report
        )

    stats = result.stats
    snap = stats.retry_budget
    steady = (
        report.steady_availability
        if report.steady_availability is not None else 1.0
    )
    deterministic = (
        rerun.failed_indices() == result.failed_indices()
        and rerun.outputs_digest() == result.outputs_digest()
    )
    counts = result.outcome_counts()
    return [
        {
            "name": f"storm-mixed@{n}req",
            "kind": "storm",
            "requests": n,
            "storm_seed": storm.storm_seed,
            "trace_digest": trace.digest(),
            "outputs_digest": result.outputs_digest(),
            "completed": counts["completed"],
            "failed": counts["failed"],
            "shed": counts["shed"],
            "rejected": counts["rejected"],
            "expected_failed": len(plan.expected_failed),
            "contained": result.failed_indices() == plan.expected_failed,
            "balanced": result.balanced,
            "steady_availability": round(steady, 6),
            "storm_availability": (
                round(report.storm_availability, 6)
                if report.storm_availability is not None else None
            ),
            "availability_met": steady >= STORM_AVAILABILITY_TARGET,
            "retries": stats.retries,
            "retry_denied": stats.retry_denied,
            "retry_ratio": round(stats.retry_ratio, 4),
            "retry_budget_met": stats.retries
            <= snap["burst"] + snap["ratio"] * stats.submitted,
            "planned_workers": stats.planned_workers,
            "workers": stats.workers,
            "healed": stats.planned_workers is None
            or abs(stats.workers - stats.planned_workers) <= 1,
            "deterministic": deterministic,
            "replay_wall_s": round(result.wall_s, 3),
            "bitexact": bitexact,
            "report_match": report_match,
        }
    ]


# --------------------------------------------------------------------------- #
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--smoke", action="store_true",
        help="CI mode: skip the slowest simulate passes",
    )
    ap.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_perf.json",
        help="where to write the JSON results",
    )
    ap.add_argument(
        "--repeats", type=int, default=3,
        help="fast-backend timing repeats (best of N)",
    )
    ap.add_argument(
        "--stamp", action="store_true",
        help="embed unix_time in the JSON (omitted by default so "
        "byte-identical reruns diff clean)",
    )
    args = ap.parse_args(argv)

    results = bench_kernels(args.smoke, args.repeats)
    results += bench_models(args.smoke, args.repeats)
    results += bench_batched(args.smoke, args.repeats)
    results += bench_dispatch(args.smoke, args.repeats)
    results += bench_control(args.smoke, args.repeats)
    results += bench_fleet(args.smoke, args.repeats)
    results += bench_storm(args.smoke, args.repeats)

    model_speedups = [
        r["speedup"] for r in results if r["kind"] == "model" and r["speedup"]
    ]
    batched_speedups = [
        r["speedup"] for r in results if r["kind"] == "batched" and r["speedup"]
    ]
    dispatch_speedups = [
        r["speedup"] for r in results if r["kind"] == "dispatch" and r["speedup"]
    ]
    control_speedups = [
        r["speedup"] for r in results if r["kind"] == "control" and r["speedup"]
    ]
    fleet_entries = [r for r in results if r["kind"] == "fleet"]
    storm_entries = [r for r in results if r["kind"] == "storm"]
    payload = {
        "schema": SCHEMA,
        "mode": "smoke" if args.smoke else "full",
        "speedup_target": SPEEDUP_TARGET,
        "batched_target": BATCHED_TARGET,
        "dispatch_target": DISPATCH_TARGET,
        "control_target": CONTROL_TARGET,
        "fleet_error_target": FLEET_ERROR_TARGET,
        "fleet_throughput_target": FLEET_THROUGHPUT_TARGET,
        "storm_availability_target": STORM_AVAILABILITY_TARGET,
        "results": results,
        "summary": {
            "all_bitexact": all(r["bitexact"] for r in results),
            "all_reports_match": all(r["report_match"] for r in results),
            "min_model_speedup": min(model_speedups),
            "max_model_speedup": max(model_speedups),
            "target_met": min(model_speedups) >= SPEEDUP_TARGET,
            "min_batched_speedup": min(batched_speedups),
            "max_batched_speedup": max(batched_speedups),
            "batched_target_met": min(batched_speedups) >= BATCHED_TARGET,
            "min_dispatch_speedup": min(dispatch_speedups),
            "max_dispatch_speedup": max(dispatch_speedups),
            "dispatch_target_met": min(dispatch_speedups) >= DISPATCH_TARGET,
            "min_control_speedup": min(control_speedups),
            "max_control_speedup": max(control_speedups),
            "control_target_met": min(control_speedups) >= CONTROL_TARGET,
            "fleet_mean_p95_error": max(
                r["mean_p95_error"] for r in fleet_entries
            ),
            "fleet_mean_hit_error": max(
                r["mean_hit_error"] for r in fleet_entries
            ),
            "fleet_model_validated": all(
                r["model_validated"] and r["balanced"]
                for r in fleet_entries
            ),
            "fleet_requests_per_s": min(
                r["replay_requests_per_s"] for r in fleet_entries
            ),
            "fleet_throughput_met": min(
                r["replay_requests_per_s"] for r in fleet_entries
            )
            >= FLEET_THROUGHPUT_TARGET,
            "storm_availability": min(
                r["steady_availability"] for r in storm_entries
            ),
            "storm_gates_met": all(
                r["contained"]
                and r["balanced"]
                and r["availability_met"]
                and r["retry_budget_met"]
                and r["healed"]
                and r["deterministic"]
                for r in storm_entries
            ),
        },
    }
    if args.stamp:
        payload["unix_time"] = int(time.time())
    args.output.write_text(json.dumps(payload, indent=2) + "\n")

    paired = [r for r in results if r["kind"] in ("kernel", "model")]
    w = max(len(r["name"]) for r in results)
    print(f"{'workload':<{w}}  {'simulate':>10}  {'fast':>10}  {'speedup':>8}  exact")
    for r in paired:
        print(
            f"{r['name']:<{w}}  {r['simulate_s']:>9.3f}s  {r['fast_s']:>9.4f}s"
            f"  {r['speedup']:>7.1f}x  {r['bitexact'] and r['report_match']}"
        )
    print(f"\n{'serving':<{w}}  {'fast':>10}  {'batched':>10}  {'speedup':>8}  exact")
    for r in results:
        if r["kind"] != "batched":
            continue
        print(
            f"{r['name']:<{w}}  {r['fast_s']:>9.4f}s  {r['batched_s']:>9.4f}s"
            f"  {r['speedup']:>7.2f}x  {r['bitexact'] and r['report_match']}"
        )
    print(
        f"\n{'dispatcher':<{w}}  {'1-worker':>10}  {'4-worker':>10}  "
        f"{'speedup':>8}  exact"
    )
    for r in results:
        if r["kind"] != "dispatch":
            continue
        print(
            f"{r['name']:<{w}}  {r['baseline_s']:>9.4f}s  "
            f"{r['dispatch_s']:>9.4f}s  {r['speedup']:>7.2f}x  "
            f"{r['bitexact'] and r['report_match']}"
            f"  (p95 {r['p95_ms']:.1f} ms, "
            f"deadline hit {100 * r['deadline_hit_rate']:.0f}%)"
        )
    print(
        f"\n{'control plane':<{w}}  {'fifo p95':>10}  {'ctrl p95':>10}  "
        f"{'speedup':>8}  exact"
    )
    for r in results:
        if r["kind"] != "control":
            continue
        print(
            f"{r['name']:<{w}}  {r['fifo_gold_p95_ms']:>8.1f}ms  "
            f"{r['control_gold_p95_ms']:>8.1f}ms  {r['speedup']:>7.2f}x  "
            f"{r['bitexact'] and r['report_match']}"
            f"  (gold {r['gold_requests']}/{r['requests']} reqs)"
        )
    print(
        f"\n{'fleet':<{w}}  {'replay':>10}  {'p95 err':>10}  "
        f"{'hit err':>8}  valid"
    )
    for r in results:
        if r["kind"] != "fleet":
            continue
        print(
            f"{r['name']:<{w}}  {r['replay_wall_s']:>9.1f}s  "
            f"{100 * r['mean_p95_error']:>9.1f}%  "
            f"{100 * r['mean_hit_error']:>7.1f}%  "
            f"{r['model_validated'] and r['balanced']}"
            f"  ({r['replay_requests_per_s']:.0f} req/s, "
            f"{r['windows_graded']} windows, "
            f"overhead {r['overhead_ms']:.2f} ms)"
        )
    print(
        f"\n{'storm':<{w}}  {'replay':>10}  {'steady':>10}  "
        f"{'in-storm':>8}  gates"
    )
    for r in results:
        if r["kind"] != "storm":
            continue
        in_storm = (
            f"{100 * r['storm_availability']:.1f}%"
            if r["storm_availability"] is not None else "-"
        )
        gates = (
            r["contained"] and r["balanced"] and r["availability_met"]
            and r["retry_budget_met"] and r["healed"]
            and r["deterministic"]
        )
        print(
            f"{r['name']:<{w}}  {r['replay_wall_s']:>9.1f}s  "
            f"{100 * r['steady_availability']:>9.2f}%  {in_storm:>8}  "
            f"{gates}"
            f"  ({r['failed']}/{r['expected_failed']} failed/expected, "
            f"retries {r['retries']} granted / {r['retry_denied']} denied)"
        )
    s = payload["summary"]
    print(
        f"\nmodel speedups {s['min_model_speedup']:.1f}x.."
        f"{s['max_model_speedup']:.1f}x (target >= {SPEEDUP_TARGET:.0f}x: "
        f"{'MET' if s['target_met'] else 'MISSED'}); "
        f"batched {s['min_batched_speedup']:.2f}x..{s['max_batched_speedup']:.2f}x "
        f"(target >= {BATCHED_TARGET:.2f}x: "
        f"{'MET' if s['batched_target_met'] else 'MISSED'}); "
        f"dispatch {s['min_dispatch_speedup']:.2f}x.."
        f"{s['max_dispatch_speedup']:.2f}x "
        f"(target >= {DISPATCH_TARGET:.1f}x: "
        f"{'MET' if s['dispatch_target_met'] else 'MISSED'}); "
        f"control {s['min_control_speedup']:.2f}x.."
        f"{s['max_control_speedup']:.2f}x "
        f"(target >= {CONTROL_TARGET:.1f}x: "
        f"{'MET' if s['control_target_met'] else 'MISSED'}); "
        f"fleet model error p95 {100 * s['fleet_mean_p95_error']:.1f}% / "
        f"hit {100 * s['fleet_mean_hit_error']:.1f}% "
        f"(target < {100 * FLEET_ERROR_TARGET:.0f}%: "
        f"{'MET' if s['fleet_model_validated'] else 'MISSED'}); "
        f"storm steady availability "
        f"{100 * s['storm_availability']:.2f}% "
        f"(target >= {100 * STORM_AVAILABILITY_TARGET:.1f}%, all gates: "
        f"{'MET' if s['storm_gates_met'] else 'MISSED'}); "
        f"bit-exact: {s['all_bitexact']}; cost parity: {s['all_reports_match']}"
    )
    print(f"wrote {args.output}")
    # parity is deterministic — always a hard gate.  So is the fleet
    # model-validation gate: it compares predictions against what the
    # same run measured, so runner speed cancels out.  The wall-clock
    # targets are only enforced in full runs: smoke mode runs on shared
    # CI workers where the timings are too noisy to fail a build.
    if not (s["all_bitexact"] and s["all_reports_match"]):
        return 1
    if not s["fleet_model_validated"]:
        return 1
    # the storm gates (containment / balance / availability SLO / retry
    # budget / self-healing / determinism) are pure functions of the
    # seeds — hard in smoke too
    if not s["storm_gates_met"]:
        return 1
    if not args.smoke and not (
        s["target_met"]
        and s["batched_target_met"]
        and s["dispatch_target_met"]
        and s["control_target_met"]
        and s["fleet_throughput_met"]
    ):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
