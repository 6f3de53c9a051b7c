"""Experiment drivers: one function per paper table/figure.

Every function returns ``(headers, rows, notes)`` where rows are plain
tuples ready for :func:`repro.eval.reporting.format_table`.  The benchmark
files call these and print the result, so running

    pytest benchmarks/ --benchmark-only

regenerates the paper's entire evaluation section against the simulator.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.analysis.bottleneck import compare_network, deployable_on
from repro.analysis.nas import channel_headroom, image_headroom
from repro.baselines.tinyengine import TinyEnginePlanner
from repro.compiler import PlanCache, compile_model
from repro.core.multilayer import InvertedBottleneckPlanner
from repro.eval.workloads import FIG7_CASES
from repro.graph.models import (
    MCUNET_VWW_BLOCKS,
    build_classifier_graph,
    build_network_graph,
    table2_specs,
)
from repro.kernels.bottleneck import FusedBottleneckKernel
from repro.kernels.pointwise import PointwiseConvKernel
from repro.mcu.device import STM32F411RE, STM32F767ZI, DeviceProfile

__all__ = [
    "table1", "table2", "table3",
    "figure7", "figure8", "figure9", "figure10", "figure11", "figure12",
    "compiled_networks",
    "execution_backend_speedup",
    "serving_throughput",
    "dispatch_serving",
    "control_serving",
    "priority_mix_trial",
    "chaos_serving",
    "fleet_trace_spec",
    "fleet_trial",
    "fleet_eval",
    "storm_trace_spec",
    "storm_suite",
    "storm_fleet_config",
    "storm_trial",
    "storm_eval",
    "ALL_EXPERIMENTS",
]

KB = 1024.0

Experiment = tuple[list[str], list[tuple], list[str]]


# --------------------------------------------------------------------------- #
def table1() -> Experiment:
    """Table 1: memory/storage/software across hardware classes."""
    headers = ["Hardware", "Memory", "Storage", "SW Support"]
    rows = [
        ("A100", "40GB", "TB-PB", "CUDA runtime"),
        ("Kirin-990", "8GB", "256GB", "OS (Linux)"),
        (
            STM32F411RE.chip.replace("STM32", ""),
            f"{STM32F411RE.sram_kb:.0f}KB",
            f"{STM32F411RE.flash_kb:.0f}KB",
            "None",
        ),
    ]
    notes = ["MCU row derived from the simulator's device profile."]
    return headers, rows, notes


def table2() -> Experiment:
    """Table 2: inverted-bottleneck configurations of both networks."""
    headers = ["Name", "H/W", "C_in", "C_mid", "C_out", "R/S", "strides"]
    rows = []
    for network in ("vww", "imagenet"):
        for s in table2_specs(network):
            rows.append(
                (s.name, s.hw, s.c_in, s.c_mid, s.c_out, s.kernel,
                 ",".join(map(str, s.strides)))
            )
    return headers, rows, []


# --------------------------------------------------------------------------- #
def figure7(device: DeviceProfile = STM32F411RE) -> Experiment:
    """Figure 7: single-layer RAM usage, TinyEngine vs vMCU, 128 KB limit."""
    te = TinyEnginePlanner()
    headers = ["Case", "TinyEngine KB", "vMCU KB", "Reduction", "TinyEngine", "vMCU"]
    rows = []
    for case in FIG7_CASES:
        te_ram = te.pointwise_ram(case.hw, case.hw, case.c, case.k)
        kern = PointwiseConvKernel(case.hw, case.hw, case.c, case.k)
        vm_ram = kern.plan().footprint_bytes + te.runtime_overhead_bytes
        rows.append(
            (
                case.name,
                f"{te_ram / KB:.1f}",
                f"{vm_ram / KB:.1f}",
                f"-{100 * (1 - vm_ram / te_ram):.2f}%",
                "OK" if te_ram <= device.sram_bytes else "OOM",
                "OK" if vm_ram <= device.sram_bytes else "OOM",
            )
        )
    notes = [
        f"device RAM limit: {device.sram_kb:.0f}KB ({device.name})",
        "paper: reductions -12.01%..-49.45%; TinyEngine OOM on cases 1, 2, 4",
    ]
    return headers, rows, notes


def figure8(device: DeviceProfile = STM32F767ZI) -> Experiment:
    """Figure 8: single-layer energy and latency, TinyEngine vs vMCU."""
    te = TinyEnginePlanner()
    headers = [
        "Case", "TE mJ", "vMCU mJ", "E red.", "TE ms", "vMCU ms", "L red.",
    ]
    rows = []
    for case in FIG7_CASES:
        te_cost = te.pointwise_cost(case.hw, case.hw, case.c, case.k, device=device)
        vm_cost = PointwiseConvKernel(case.hw, case.hw, case.c, case.k).cost(device)
        rows.append(
            (
                case.name,
                f"{te_cost.energy_mj:.3f}",
                f"{vm_cost.energy_mj:.3f}",
                f"-{100 * (1 - vm_cost.energy_mj / te_cost.energy_mj):.1f}%",
                f"{te_cost.latency_ms:.2f}",
                f"{vm_cost.latency_ms:.2f}",
                f"-{100 * (1 - vm_cost.latency_ms / te_cost.latency_ms):.1f}%",
            )
        )
    notes = [
        f"simulated on {device.name}",
        "paper: energy -20.6%..-53.0%, latency -18.5%..-40.0%",
    ]
    return headers, rows, notes


# --------------------------------------------------------------------------- #
def _network_figure(network: str, paper_note: str) -> Experiment:
    cmp_ = compare_network(network)
    headers = ["Block", "TinyEngine KB", "HMCOS KB", "vMCU KB", "vs TE", "vs HMCOS"]
    rows = [
        (
            r.name,
            f"{r.tinyengine / KB:.1f}",
            f"{r.hmcos / KB:.1f}",
            f"{r.vmcu / KB:.1f}",
            f"{-100 * r.vmcu_vs_tinyengine:+.1f}%",
            f"{-100 * r.vmcu_vs_hmcos:+.1f}%",
        )
        for r in cmp_.rows
    ]
    te_b = cmp_.bottleneck("tinyengine")
    hm_b = cmp_.bottleneck("hmcos")
    vm_b = cmp_.bottleneck("vmcu")
    notes = [
        f"bottleneck TinyEngine: {te_b[0]} ({te_b[1] / KB:.1f}KB); "
        f"HMCOS: {hm_b[0]} ({hm_b[1] / KB:.1f}KB); "
        f"vMCU: {vm_b[0]} ({vm_b[1] / KB:.1f}KB)",
        f"bottleneck reduction vs TinyEngine: "
        f"{100 * cmp_.bottleneck_reduction_vs_tinyengine:.1f}%",
        paper_note,
    ]
    fits = deployable_on(cmp_, STM32F411RE)
    notes.append(
        "deployable on STM32-F411RE (128KB): "
        + ", ".join(f"{k}={'yes' if v else 'no'}" for k, v in fits.items())
    )
    return headers, rows, notes


def figure9() -> Experiment:
    """Figure 9: per-block RAM for MCUNet-5fps-VWW."""
    return _network_figure(
        "vww",
        "paper: bottlenecks TE=36.0KB, HMCOS=48.8KB, vMCU=13.9KB (-61.5%)",
    )


def figure10() -> Experiment:
    """Figure 10: per-block RAM for MCUNet-320KB-ImageNet."""
    return _network_figure(
        "imagenet",
        "paper: bottlenecks TE=247.8KB (B2), HMCOS=464.6KB (B3), "
        "vMCU=102.7KB (B1), reduction 58.6%",
    )


# --------------------------------------------------------------------------- #
def table3(device: DeviceProfile = STM32F411RE) -> Experiment:
    """Table 3: fused-block latency vs TinyEngine for MCUNet-5fps-VWW."""
    te = TinyEnginePlanner()
    headers = [
        "Block", "vMCU ms", "Throughput (img/s)", "TinyEngine ms", "ratio",
    ]
    rows = []
    ratios = []
    for spec in MCUNET_VWW_BLOCKS:
        vm = FusedBottleneckKernel(spec).cost(device)
        tec = te.block_cost(spec, device=device)
        ratio = vm.latency_ms / tec.latency_ms
        ratios.append(ratio)
        rows.append(
            (
                spec.name,
                f"{vm.latency_ms:.1f}",
                f"{vm.throughput_inferences_per_s:.0f}",
                f"{tec.latency_ms:.1f}",
                f"{ratio:.2f}x",
            )
        )
    notes = [
        f"mean latency ratio vMCU/TinyEngine: "
        f"{sum(ratios) / len(ratios):.2f}x (paper: ~1.03x)",
    ]
    return headers, rows, notes


# --------------------------------------------------------------------------- #
def figure11() -> Experiment:
    """Figure 11: image-size increase ratio at equal RAM (VWW blocks)."""
    planner = InvertedBottleneckPlanner()
    headers = ["Block", "budget KB", "base H/W", "max H/W", "ratio"]
    rows = []
    for spec in MCUNET_VWW_BLOCKS:
        r = image_headroom(spec, planner=planner)
        rows.append(
            (
                r.block,
                f"{r.budget_bytes / KB:.1f}",
                r.base_value,
                r.best_value,
                f"{r.ratio:.2f}x",
            )
        )
    notes = ["paper: ratios 1.29x..2.58x (absolute ratios depend on the "
             "runtime-overhead calibration; ordering is the reproducible part)"]
    return headers, rows, notes


def figure12() -> Experiment:
    """Figure 12: channel increase ratio at equal RAM (VWW blocks)."""
    planner = InvertedBottleneckPlanner()
    headers = ["Block", "budget KB", "base C", "max C", "ratio"]
    rows = []
    for spec in MCUNET_VWW_BLOCKS:
        r = channel_headroom(spec, planner=planner)
        rows.append(
            (
                r.block,
                f"{r.budget_bytes / KB:.1f}",
                r.base_value,
                r.best_value,
                f"{r.ratio:.2f}x",
            )
        )
    notes = ["paper: ratios 1.26x..3.17x"]
    return headers, rows, notes


# --------------------------------------------------------------------------- #
def compiled_networks(device: DeviceProfile = STM32F411RE) -> Experiment:
    """Compiler path: whole models lowered and planned via ``repro.compile``.

    For each model the driver compiles twice against one fresh plan cache
    and reports the cold/warm *compile* time (the warm pass still lowers,
    legalizes and re-binds weights — only the constraint solving is
    cached, which is what dominates the cold pass), plus the planned
    footprint and whether it fits the 128 KB part (the paper's
    deployability argument, now produced end-to-end from the graph
    instead of hand-wired stage lists).
    """
    headers = [
        "Model", "Segments", "Stages", "Pool KB", "Footprint KB",
        f"Fits {device.sram_kb:.0f}KB", "Compile cold ms", "Compile warm ms",
    ]
    models = [
        build_network_graph("vww"),
        build_classifier_graph("vww", classes=2),
        build_network_graph("imagenet"),
    ]
    cache = PlanCache()
    rows = []
    for model in models:
        t0 = time.perf_counter()
        cm = compile_model(model, device=device, cache=cache)
        cold_ms = 1e3 * (time.perf_counter() - t0)
        t0 = time.perf_counter()
        compile_model(model, device=device, cache=cache)
        warm_ms = 1e3 * (time.perf_counter() - t0)
        pool_kb = max(s.plan.pool_bytes for s in cm.segments) / KB
        rows.append(
            (
                model.name,
                len(cm.segments),
                cm.n_stages,
                f"{pool_kb:.1f}",
                f"{cm.footprint_bytes / KB:.1f}",
                "yes" if cm.fits() else "no",
                f"{cold_ms:.1f}",
                f"{warm_ms:.1f}",
            )
        )
    notes = [
        f"plan cache: {cache.stats.hits} hits / {cache.stats.misses} misses "
        "across the cold+warm compiles",
        "paper: MCUNet-320KB-ImageNet deploys on the 128KB part only under "
        "vMCU — here derived from the graph by the compiler",
    ]
    return headers, rows, notes


# --------------------------------------------------------------------------- #
def execution_backend_speedup(
    device: DeviceProfile = STM32F411RE,
) -> Experiment:
    """Extension: simulate-vs-fast backend parity and wall-clock speedup.

    Runs the compiled VWW models through both execution backends on the
    same input and reports wall-clock per backend, the speedup, and the
    two parity properties the fast path guarantees: bit-exact outputs and
    an identical modeled cost report.  (``benchmarks/bench_perf.py``
    tracks the same numbers, plus ImageNet, as ``BENCH_perf.json``.)
    """
    import numpy as np

    headers = [
        "Model", "Simulate s", "Fast s", "Speedup",
        "Bit-exact", "Cost parity",
    ]
    models = [
        build_network_graph("vww"),
        build_classifier_graph("vww", classes=2),
    ]
    rng = np.random.default_rng(0)
    rows = []
    for model in models:
        cm = compile_model(model, device=device)
        feeds = {
            name: rng.integers(
                -128, 128, size=cm.graph.tensors[name].spec.shape,
                dtype=np.int8,
            )
            for name in cm.graph.inputs
        }
        t0 = time.perf_counter()
        sim = cm.run(feeds=feeds)
        sim_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        fast = cm.run(feeds=feeds, execution="fast")
        fast_s = time.perf_counter() - t0
        parity = (
            sim.report.cycles == fast.report.cycles
            and sim.report.instructions == fast.report.instructions
        )
        rows.append(
            (
                model.name,
                f"{sim_s:.3f}",
                f"{fast_s:.4f}",
                f"{sim_s / fast_s:.0f}x",
                "yes" if np.array_equal(sim.output, fast.output) else "NO",
                "yes" if parity else "NO",
            )
        )
    notes = [
        "fast backend: im2col + int32 GEMM, pool events derived "
        "analytically from the plans (see kernels/fastpath.py)",
        "tracked trajectory: BENCH_perf.json via benchmarks/bench_perf.py",
    ]
    return headers, rows, notes


# --------------------------------------------------------------------------- #
def serving_throughput(
    device: DeviceProfile = STM32F411RE,
    batch_sizes: tuple[int, ...] = (1, 4, 8),
    repeats: int = 3,
) -> Experiment:
    """Extension: plan-once/run-many serving vs per-call fast execution.

    Opens one ``execution="fast"`` :class:`~repro.serving.Session` per
    compiled VWW model (plans, int32-packed weights and the per-stage
    cost template are warmed once) and compares requests/sec of its
    stacked ``Session.run_batch`` against a per-request
    ``execution="fast"`` loop — same arithmetic, so the ratio isolates
    what batching and template replay buy — asserting the serving
    guarantee: batching changes wall clock, never bits.
    (``benchmarks/bench_serving.py`` regenerates ``results/serving.txt``
    from the same measurement.)
    """
    import numpy as np

    headers = [
        "Model", "Batch", "Fast req/s", "Batched req/s", "Speedup",
        "Bit-exact",
    ]
    models = [
        build_network_graph("vww"),
        build_classifier_graph("vww", classes=2),
    ]
    rng = np.random.default_rng(0)
    rows = []
    for model in models:
        cm = compile_model(model, device=device, execution="fast")
        session = cm.serve(execution="fast")
        shape = cm.graph.tensors[cm.graph.inputs[0]].spec.shape
        for batch in batch_sizes:
            xs = [
                rng.integers(-128, 128, size=shape, dtype=np.int8)
                for _ in range(batch)
            ]
            session.run_batch(xs)  # warm
            [cm.run(x, execution="fast") for x in xs]
            fast_s = batched_s = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                fast_runs = [cm.run(x, execution="fast") for x in xs]
                fast_s = min(fast_s, time.perf_counter() - t0)
                t0 = time.perf_counter()
                served = session.run_batch(xs)
                batched_s = min(batched_s, time.perf_counter() - t0)
            exact = all(
                np.array_equal(s.output, f.output)
                and s.stats.report.cycles == f.report.cycles
                for s, f in zip(served, fast_runs)
            )
            rows.append(
                (
                    model.name,
                    batch,
                    f"{batch / fast_s:.0f}",
                    f"{batch / batched_s:.0f}",
                    f"{fast_s / batched_s:.2f}x",
                    "yes" if exact else "NO",
                )
            )
    notes = [
        "one Session per model: plans, packed weights and the cost "
        "template are warmed once, then amortized over every batch",
        "tracked trajectory: the batched series in BENCH_perf.json "
        "(benchmarks/bench_perf.py)",
    ]
    return headers, rows, notes


# --------------------------------------------------------------------------- #
def dispatch_serving(
    device: DeviceProfile = STM32F411RE,
    *,
    workers: int = 4,
    max_batch: int = 8,
    n_requests: int = 48,
    arrival_rps: float = 600.0,
    deadline_s: float = 0.25,
    seed: int = 0,
) -> Experiment:
    """Extension: the sharded dispatcher under an open-loop arrival process.

    Three tenants (the VWW backbone plus two classifier tenants sharing
    one architecture) sit behind one :class:`~repro.serving.Dispatcher`.
    Requests arrive open-loop — seeded exponential inter-arrival times at
    ``arrival_rps``, tenant drawn per request — with a per-request
    deadline; the table reports per-tenant p50/p95 latency, the
    deadline-hit rate and throughput, and every row asserts the serving
    guarantee (outputs and cost reports bit-identical to per-request
    ``execution="fast"``, itself parity-locked to ``"simulate"``).

    The notes carry the two infrastructure numbers the ISSUE tracks: the
    shared multi-tenant ``PlanCache`` hit rate and the closed-loop
    speedup of the ``workers``-worker dispatcher over a single-worker
    ``Session.run_batch`` loop on the same request mix.
    """
    import numpy as np

    from repro.serving import Dispatcher, Session

    cache = PlanCache()
    graphs = {
        "vww-backbone": build_network_graph("vww"),
        "vww-classifier-a": build_classifier_graph("vww", classes=2),
        "vww-classifier-b": build_classifier_graph("vww", classes=2),
    }
    compiled = {
        t: compile_model(g, device=device, cache=cache)
        for t, g in graphs.items()
    }
    rng = np.random.default_rng(seed)
    tenants = list(compiled)
    requests = []
    for _ in range(n_requests):
        tenant = tenants[int(rng.integers(len(tenants)))]
        shape = compiled[tenant].graph.tensors[
            compiled[tenant].graph.inputs[0]
        ].spec.shape
        requests.append(
            (tenant, rng.integers(-128, 128, size=shape, dtype=np.int8))
        )
    gaps = rng.exponential(1.0 / arrival_rps, size=n_requests)

    # closed-loop single-worker baseline: one stacked int32 ("fast")
    # Session per tenant, sequential run_batch chunks of max_batch over
    # the same request mix
    per_tenant_inputs: dict[str, list] = {t: [] for t in tenants}
    for tenant, x in requests:
        per_tenant_inputs[tenant].append(x)
    baseline_sessions = {
        t: Session(compiled[t], execution="fast") for t in tenants
    }
    for t, xs in per_tenant_inputs.items():
        if xs:
            baseline_sessions[t].run_batch(xs[:max_batch])  # warm
    t0 = time.perf_counter()
    for t, xs in per_tenant_inputs.items():
        for i in range(0, len(xs), max_batch):
            baseline_sessions[t].run_batch(xs[i : i + max_batch])
    baseline_s = time.perf_counter() - t0

    with Dispatcher(
        compiled,
        workers=workers,
        max_batch=max_batch,
        default_deadline_s=deadline_s,
        plan_cache=cache,
    ) as dispatcher:
        # closed-loop burst for the speedup note (and as warm-up)
        t0 = time.perf_counter()
        dispatcher.run_many(requests, timeout=120.0)
        closed_loop_s = time.perf_counter() - t0

        # the open-loop measurement the table reports
        with Dispatcher(
            compiled,
            workers=workers,
            max_batch=max_batch,
            default_deadline_s=deadline_s,
            plan_cache=cache,
        ) as open_loop:
            tickets = []
            for (tenant, x), gap in zip(requests, gaps):
                time.sleep(float(gap))
                tickets.append(open_loop.submit(x, tenant=tenant))
            results = [t.result(120.0) for t in tickets]
            stats = open_loop.stats

    exact_by_tenant = {t: True for t in tenants}
    for (tenant, x), res in zip(requests, results):
        fast = compiled[tenant].run(x, execution="fast")
        rep, ref = res.stats.report, fast.report
        ok = (
            np.array_equal(res.output, fast.output)
            and rep.cycles == ref.cycles
            and rep.instructions == ref.instructions
            and rep.macs == ref.macs
            and rep.sram_bytes == ref.sram_bytes
            and rep.flash_bytes == ref.flash_bytes
            and rep.modulo_ops == ref.modulo_ops
        )
        exact_by_tenant[tenant] = exact_by_tenant[tenant] and ok

    headers = [
        "Tenant", "Requests", "Batches", "p50 ms", "p95 ms",
        "Deadline hit", "Bit-exact",
    ]
    rows = []
    for tenant in tenants:
        ts = stats.per_tenant[tenant]
        rows.append(
            (
                tenant,
                ts.requests,
                ts.batches,
                f"{1e3 * ts.p50_latency_s:.1f}",
                f"{1e3 * ts.p95_latency_s:.1f}",
                f"{100 * ts.deadline_hit_rate:.0f}%",
                "yes" if exact_by_tenant[tenant] else "NO",
            )
        )
    rows.append(
        (
            "TOTAL",
            stats.completed,
            stats.batches,
            f"{1e3 * stats.p50_latency_s:.1f}",
            f"{1e3 * stats.p95_latency_s:.1f}",
            f"{100 * stats.deadline_hit_rate:.0f}%",
            "yes" if all(exact_by_tenant.values()) else "NO",
        )
    )
    notes = [
        f"open loop: ~{arrival_rps:.0f} req/s Poisson arrivals, "
        f"deadline {1e3 * deadline_s:.0f} ms, {workers} workers, "
        f"micro-batch <= {max_batch}; served {stats.requests_per_s:.0f} "
        "req/s",
        f"closed-loop speedup vs single-worker Session.run_batch: "
        f"{baseline_s / closed_loop_s:.2f}x "
        f"({n_requests / baseline_s:.0f} -> "
        f"{n_requests / closed_loop_s:.0f} req/s)",
        f"shared multi-tenant PlanCache: {cache.stats.hits} hits / "
        f"{cache.stats.misses} misses "
        f"(hit rate {100 * cache.stats.hit_rate:.0f}% — classifier "
        "tenants a/b share one architecture's plans)",
        "tracked gate: kind 'dispatch' in BENCH_perf.json "
        "(benchmarks/bench_perf.py, >= 1.8x at 4 workers)",
    ]
    return headers, rows, notes


# --------------------------------------------------------------------------- #
def priority_mix_trial(
    compiled,
    *,
    n_requests: int = 40,
    max_batch: int = 4,
    scheduling: str = "weighted",
    workers: int = 1,
    gold_every: int = 5,
    gold_deadline_s: float = 0.5,
    seed: int = 0,
):
    """One 4:1 bronze:gold priority flood through a single dispatcher.

    The measured protocol shared by the ``control`` experiment and the
    gated ``kind: "control"`` series in ``benchmarks/bench_perf.py``:
    two tenants serve the same compiled model — ``gold`` (priority 2,
    weight 2, a tight deadline) and ``bronze`` (priority 0, the flood) —
    behind one worker, and every fifth submission is gold.  Under
    ``scheduling="fifo"`` the gold tail waits for the whole bronze
    backlog; under ``"weighted"`` the priority class drains first.

    Returns ``(pool, resolved, stats)``: the input pool, a list of
    ``(tenant, pool_index, DispatchResult)`` in submission order, and
    the final :class:`~repro.serving.DispatchStats` snapshot.
    """
    import numpy as np

    from repro.serving import Dispatcher, FleetConfig, TenantPolicy

    rng = np.random.default_rng(seed)
    shape = compiled.graph.tensors[compiled.graph.inputs[0]].spec.shape
    pool = [
        rng.integers(-128, 128, size=shape, dtype=np.int8) for _ in range(4)
    ]
    cfg = FleetConfig(
        tenants={
            "gold": TenantPolicy(
                weight=2.0, priority=2, deadline_s=gold_deadline_s
            ),
            "bronze": TenantPolicy(weight=1.0, priority=0),
        },
        min_workers=workers,
        max_workers=workers,
        max_batch=max_batch,
        max_queue_depth=4 * n_requests,
        default_deadline_s=60.0,
        batch_timeout_s=0.0,
        scheduling=scheduling,
    )
    with Dispatcher(
        {"gold": compiled, "bronze": compiled}, workers=workers, config=cfg
    ) as dispatcher:
        tickets = []
        for i in range(n_requests):
            tenant = "gold" if i % gold_every == gold_every - 1 else "bronze"
            idx = int(rng.integers(len(pool)))
            tickets.append(
                (tenant, idx, dispatcher.submit(pool[idx], tenant=tenant))
            )
        resolved = [(t, i, tk.result(300.0)) for t, i, tk in tickets]
        stats = dispatcher.stats
    return pool, resolved, stats


def control_serving(
    device: DeviceProfile = STM32F411RE,
    *,
    n_requests: int = 40,
    max_batch: int = 4,
    seed: int = 0,
) -> Experiment:
    """Extension: the dispatcher control plane under a priority mix.

    Three phases over the VWW classifier, all bit-exact:

    1. **fifo** — the 4:1 bronze:gold flood of
       :func:`priority_mix_trial` under ``scheduling="fifo"`` (the
       pre-control-plane head-tenant order): gold waits out the bronze
       backlog;
    2. **control** — the same flood under the declarative QoS config
       (gold priority 2, weight 2): the batch former drains the gold
       class first, collapsing its p95.  The gold-p95 ratio between the
       phases is the tracked ``kind: "control"`` gate (>= 1.3x);
    3. **reconfig** — a live fleet (1..3 workers, autoscaling on) takes
       a mid-flood ``apply_config`` that flips bronze to the top
       priority class and re-weights gold; the audit trail records the
       config epoch and every autoscaler resize.

    Every request in every phase is checked bit-identical to per-call
    ``execution="fast"`` (parity-locked to ``"simulate"``) — the
    control plane reorders and rescales, it never touches bits.
    """
    import numpy as np

    from repro.serving import Dispatcher, FleetConfig, TenantPolicy

    cm = compile_model(
        build_classifier_graph("vww", classes=2), device=device
    )
    expected_pool: dict[int, np.ndarray] = {}

    def check_exact(pool, resolved) -> dict[str, bool]:
        ok = {}
        for tenant, idx, res in resolved:
            key = id(pool[idx])
            if key not in expected_pool:
                expected_pool[key] = cm.run(
                    pool[idx], execution="fast"
                ).output
            exact = np.array_equal(res.output, expected_pool[key])
            ok[tenant] = ok.get(tenant, True) and exact
        return ok

    def class_rows(phase, stats, exact):
        rows = []
        for tenant in ("gold", "bronze"):
            ts = stats.per_tenant[tenant]
            rows.append(
                (
                    phase,
                    tenant,
                    ts.requests,
                    f"{1e3 * ts.p50_latency_s:.1f}",
                    f"{1e3 * ts.p95_latency_s:.1f}",
                    f"{100 * ts.deadline_hit_rate:.0f}%",
                    "yes" if exact.get(tenant, True) else "NO",
                )
            )
        return rows

    trial = dict(n_requests=n_requests, max_batch=max_batch, seed=seed)
    pool_f, res_f, stats_fifo = priority_mix_trial(
        cm, scheduling="fifo", **trial
    )
    exact_fifo = check_exact(pool_f, res_f)
    pool_c, res_c, stats_ctrl = priority_mix_trial(
        cm, scheduling="weighted", **trial
    )
    exact_ctrl = check_exact(pool_c, res_c)

    # phase 3: live reconfiguration + autoscaling under the same flood
    rng = np.random.default_rng(seed + 1)
    shape = cm.graph.tensors[cm.graph.inputs[0]].spec.shape
    pool = [
        rng.integers(-128, 128, size=shape, dtype=np.int8) for _ in range(4)
    ]
    cfg = FleetConfig(
        tenants={
            "gold": TenantPolicy(weight=2.0, priority=2),
            "bronze": TenantPolicy(weight=1.0, priority=0),
        },
        min_workers=1,
        max_workers=3,
        max_batch=max_batch,
        max_queue_depth=4 * n_requests,
        default_deadline_s=60.0,
        batch_timeout_s=0.0,
        scale_cooldown_s=0.0,
    )
    with Dispatcher(
        {"gold": cm, "bronze": cm}, workers=1, config=cfg
    ) as dispatcher:
        tickets = []
        half = n_requests // 2
        for i in range(n_requests):
            if i == half:
                # mid-flood: flip the priority order and re-weight, on
                # the live fleet, while workers are mid-batch
                dispatcher.apply_config(
                    dispatcher.config.with_tenant(
                        "bronze", priority=3, weight=4.0
                    ).with_tenant("gold", weight=1.0)
                )
            tenant = "gold" if i % 5 == 4 else "bronze"
            idx = int(rng.integers(len(pool)))
            tickets.append(
                (tenant, idx, dispatcher.submit(pool[idx], tenant=tenant))
            )
        res_r = [(t, i, tk.result(300.0)) for t, i, tk in tickets]
        stats_reconf = dispatcher.stats
    exact_reconf = check_exact(pool, res_r)
    scale_events = [c for c in stats_reconf.audit if c.kind == "scale"]

    gold_fifo_p95 = stats_fifo.per_tenant["gold"].p95_latency_s
    gold_ctrl_p95 = stats_ctrl.per_tenant["gold"].p95_latency_s
    speedup = gold_fifo_p95 / gold_ctrl_p95 if gold_ctrl_p95 > 0 else 0.0

    headers = [
        "Phase", "Class", "Requests", "p50 ms", "p95 ms",
        "Deadline hit", "Bit-exact",
    ]
    rows = (
        class_rows("fifo", stats_fifo, exact_fifo)
        + class_rows("control", stats_ctrl, exact_ctrl)
        + class_rows("reconfig", stats_reconf, exact_reconf)
    )
    notes = [
        f"priority mix 4:1 bronze:gold, 1 worker, micro-batch <= "
        f"{max_batch}; gold p95 {1e3 * gold_fifo_p95:.0f} ms (fifo) -> "
        f"{1e3 * gold_ctrl_p95:.0f} ms (control): {speedup:.2f}x",
        "tracked gate: kind 'control' in BENCH_perf.json "
        "(benchmarks/bench_perf.py, gold p95 >= 1.3x better than fifo)",
        f"reconfig phase: config epoch {stats_reconf.config_epoch}, "
        f"{len(scale_events)} autoscaler resize(s), workers ended at "
        f"{stats_reconf.workers} "
        f"(audit: {'; '.join(s for c in scale_events for s in c.summary)})",
        "every phase bit-exact vs per-call execution='fast' — the "
        "control plane changes scheduling and fleet size, never bits",
    ]
    return headers, rows, notes


# --------------------------------------------------------------------------- #
def chaos_serving(
    device: DeviceProfile = STM32F411RE,
    *,
    n_requests: int = 48,
    fault_rate: float = 0.05,
    seed: int = 0,
    max_batch: int = 4,
    workers: int = 2,
) -> Experiment:
    """Extension: fault-tolerant serving under a seeded fault storm.

    Two phases over the VWW classifier, driven by a deterministic
    :class:`~repro.serving.FaultPlan` (every poisoned-or-not decision is
    a pure hash of ``(seed, site, key)``, so the same requests are
    poisoned on every run):

    1. **storm** — ``fault_rate`` of requests are poisoned at the
       ``"dispatch.request"`` injection point (they fail on every
       attempt) and one worker thread is crashed mid-flood
       (``"worker.loop"``).  The acceptance bar: *only* the poisoned
       requests fail (quarantine shields their co-batched neighbours),
       ``admitted == completed + failed + shed`` balances, and the
       crash/quarantine events all land in the control plane's audit
       trail;
    2. **degrade** — a finite budget of ``"backend.turbo"`` faults
       trips the per-tenant circuit breaker (threshold 2): batches
       degrade to the ``"fast"`` backend, cooldown probes re-try
       turbo until the fault budget exhausts, and the breaker closes
       again — ``degrade`` then ``restore`` in the audit trail, zero
       failed requests.

    Every successful output in both phases is checked bit-identical to
    per-call ``execution="fast"`` (parity-locked to ``"simulate"``) —
    quarantine re-runs and backend degradation change wall clock and
    routing, never bits.
    """
    import time

    import numpy as np

    from repro.errors import RequestFailedError, ServingError
    from repro.serving import (
        Dispatcher,
        FaultInjector,
        FaultPlan,
        FaultSpec,
        FleetConfig,
        RetryPolicy,
        TenantPolicy,
    )

    cm = compile_model(
        build_classifier_graph("vww", classes=2), device=device
    )
    shape = cm.graph.tensors[cm.graph.inputs[0]].spec.shape
    rng = np.random.default_rng(seed)
    pool = [
        rng.integers(-128, 128, size=shape, dtype=np.int8) for _ in range(4)
    ]
    refs = [cm.run(x, execution="fast").output for x in pool]

    # ---- phase 1: the storm ----------------------------------------- #
    specs = [FaultSpec(site="dispatch.request", rate=fault_rate)]
    poisoned = set(
        FaultInjector(FaultPlan(seed=seed, specs=tuple(specs))).preview(
            "dispatch.request", range(n_requests)
        )
    )
    if not poisoned:
        # the rate draw can miss every key at small n; poison one
        # request explicitly so the containment check keeps its teeth
        specs.append(
            FaultSpec(site="dispatch.request", keys=(n_requests // 2,))
        )
        poisoned = {n_requests // 2}
    specs.append(
        FaultSpec(site="worker.loop", kind="crash", keys=(0,), max_fires=1)
    )
    plan = FaultPlan(seed=seed, specs=tuple(specs))

    tenants = ("acme", "globex")
    cfg = FleetConfig(
        tenants={t: TenantPolicy() for t in tenants},
        min_workers=workers,
        max_workers=workers,
        max_batch=max_batch,
        max_queue_depth=4 * n_requests,
        default_deadline_s=60.0,
        batch_timeout_s=0.0,
        retry=RetryPolicy(max_attempts=3),
        supervise_interval_s=0.01,
    )
    submitted = {t: 0 for t in tenants}
    ok = {t: 0 for t in tenants}
    fail_seqs = {t: set() for t in tenants}
    exact = {t: True for t in tenants}
    with Dispatcher(
        {t: cm for t in tenants},
        workers=workers,
        config=cfg,
        faults=plan,
    ) as dispatcher:
        tickets = []
        for i in range(n_requests):
            tenant = tenants[i % 2]
            idx = int(rng.integers(len(pool)))
            submitted[tenant] += 1
            tickets.append(
                (tenant, idx, dispatcher.submit(pool[idx], tenant=tenant))
            )
        for tenant, idx, ticket in tickets:
            try:
                res = ticket.result(300.0)
            except RequestFailedError:
                fail_seqs[tenant].add(ticket.request_seq)
            else:
                ok[tenant] += 1
                if not np.array_equal(res.output, refs[idx]):
                    exact[tenant] = False
        storm = dispatcher.stats
    kinds = [c.kind for c in storm.audit]
    # submission is single-threaded, so request_seq == submit index and
    # the poisoned seqs split across tenants by the same i % 2 rule
    expect = {
        t: {s for s in poisoned if tenants[s % 2] == t} for t in tenants
    }
    contained = all(fail_seqs[t] == expect[t] for t in tenants)
    balanced = (
        storm.submitted == storm.completed + storm.failed + storm.shed
    )
    crash_audited = "crash" in kinds and storm.worker_crashes >= 1

    def storm_row(tenant):
        ts = storm.per_tenant[tenant]
        row_ok = exact[tenant] and fail_seqs[tenant] == expect[tenant]
        return (
            "storm",
            tenant,
            submitted[tenant],
            ok[tenant],
            len(fail_seqs[tenant]),
            ts.quarantined,
            f"{1e3 * ts.p95_latency_s:.1f}",
            "yes" if row_ok else "NO",
        )

    storm_ok = (
        all(exact.values())
        and contained
        and balanced
        and crash_audited
    )
    rows = [storm_row(t) for t in tenants]
    rows.append(
        (
            "storm",
            "TOTAL",
            storm.submitted,
            storm.completed,
            storm.failed,
            storm.quarantined,
            f"{1e3 * storm.p95_latency_s:.1f}",
            "yes" if storm_ok else "NO",
        )
    )

    # ---- phase 2: breaker degrade + restore ------------------------- #
    plan2 = FaultPlan(
        seed=seed,
        specs=(FaultSpec(site="backend.turbo", max_fires=6),),
    )
    cfg2 = FleetConfig(
        tenants={"canary": TenantPolicy()},
        min_workers=1,
        max_workers=1,
        max_batch=1,
        max_queue_depth=4 * n_requests,
        default_deadline_s=60.0,
        batch_timeout_s=0.0,
        retry=RetryPolicy(max_attempts=3),
        breaker_threshold=2,
        breaker_cooldown_s=0.05,
    )
    degr_served = degr_ok = degr_failed = 0
    degr_exact = True
    with Dispatcher(
        {"canary": cm}, workers=1, config=cfg2, faults=plan2
    ) as d2:

        def serve_one():
            nonlocal degr_served, degr_ok, degr_failed, degr_exact
            idx = int(rng.integers(len(pool)))
            degr_served += 1
            try:
                res = d2.submit(pool[idx], tenant="canary").result(60.0)
            except ServingError:
                degr_failed += 1
            else:
                degr_ok += 1
                if not np.array_equal(res.output, refs[idx]):
                    degr_exact = False

        for _ in range(30):
            serve_one()
            time.sleep(0.005)
        # the fault budget is finite, so a cooldown probe eventually
        # succeeds and closes the breaker; keep probing until it does
        for _ in range(40):
            if not d2.stats.degraded:
                break
            time.sleep(0.06)
            serve_one()
        degr = d2.stats
    degr_kinds = [c.kind for c in degr.audit]
    degr_row_ok = (
        degr_exact
        and degr_failed == 0
        and "degrade" in degr_kinds
        and "restore" in degr_kinds
        and not degr.degraded
    )
    rows.append(
        (
            "degrade",
            "canary",
            degr_served,
            degr_ok,
            degr_failed,
            degr.quarantined,
            f"{1e3 * degr.per_tenant['canary'].p95_latency_s:.1f}",
            "yes" if degr_row_ok else "NO",
        )
    )

    headers = [
        "Phase", "Tenant", "Req", "OK", "Failed", "Quar", "p95 ms", "Exact",
    ]
    notes = [
        f"storm: {workers} workers, seed {seed}, "
        f"{100 * fault_rate:.0f}% request poison (seqs "
        f"{sorted(poisoned)}), 1 worker crash",
        f"containment: failed seqs {sorted(s for f in fail_seqs.values() for s in f)} "
        f"== poisoned seqs ({'yes' if contained else 'NO'}); balance: "
        f"{storm.submitted} submitted == {storm.completed} completed + "
        f"{storm.failed} failed + {storm.shed} shed "
        f"({'yes' if balanced else 'NO'})",
        f"storm audit: {kinds.count('crash')} crash, "
        f"{kinds.count('quarantine')} quarantine event(s); "
        f"{storm.quarantined} request(s) quarantined, "
        f"{storm.retries} backoff retries",
        f"degrade: breaker threshold 2, cooldown 50 ms, 6-fault budget "
        f"on 'backend.turbo' -> {degr_kinds.count('degrade')} degrade / "
        f"{degr_kinds.count('restore')} restore event(s), "
        f"{degr_failed} failed request(s), breaker "
        f"{'closed' if not degr.degraded else 'OPEN'} at exit",
        "every successful output bit-exact vs per-call execution='fast' "
        "— quarantine and degradation never touch bits",
    ]
    return headers, rows, notes


# --------------------------------------------------------------------------- #
def fleet_trace_spec(n_requests: int = 100_000, seed: int = 42):
    """The heterogeneous fleet workload every fleet artifact replays.

    Four tenants spanning both device classes (two compiled on the
    Cortex-M4 part, two on the Cortex-M7 part), Zipf-skewed so ``alpha``
    dominates, with distinct priorities and deadlines — behind one
    dispatcher.  Arrivals follow a 24 h diurnal curve (peak at 20:00
    virtual) modulated by a calm/burst MMPP, sized so a single worker
    runs at moderate utilization: the regime where the M/G/k model is
    supposed to be accurate and the validation gate is meaningful.
    """
    from repro.fleet import TenantSpec, TraceSpec

    return TraceSpec(
        seed=seed,
        n_requests=n_requests,
        horizon_s=86_400.0,
        tenants=(
            TenantSpec(
                name="alpha", model="tiny-chain-4", device="F411RE",
                priority=2, weight=2.0, deadline_s=0.25,
            ),
            TenantSpec(
                name="beta", model="tiny-chain-6", device="F767ZI",
                priority=1, deadline_s=0.25,
            ),
            TenantSpec(
                name="gamma", model="tiny-chain-2", device="F411RE",
                priority=1, deadline_s=0.10,
            ),
            TenantSpec(
                name="delta", model="wide-chain-4", device="F767ZI",
                priority=0, deadline_s=0.50,
            ),
        ),
        zipf_s=1.1,
        diurnal_amplitude=0.5,
        peak_hour=20.0,
        burst_multiplier=1.6,
        burst_dwell_s=1200.0,
        calm_dwell_s=4800.0,
    )


def fleet_trial(
    *,
    n_requests: int = 100_000,
    dilation: float = 720.0,
    window_s: float = 7200.0,
    workers: int = 1,
    seed: int = 42,
    min_window_requests: int = 150,
):
    """Generate → replay → validate: the measured fleet protocol.

    The shared core of the ``fleet`` experiment below and the gated
    ``kind: "fleet"`` series in ``benchmarks/bench_perf.py``: generate
    the seeded heterogeneous trace, replay it open-loop against a real
    dispatcher under virtual-time dilation, then grade the M/G/k model
    window by window against what was measured.  The queue-depth bound
    is set far above anything the sized load can reach, so nothing is
    shed and the outcome counts (and the outputs digest) are a pure
    function of the trace.

    Returns ``(trace, result, report)``.
    """
    from repro.fleet import ReplayConfig, generate_trace, validate_model
    from repro.fleet.replay import replay

    trace = generate_trace(fleet_trace_spec(n_requests, seed))
    result = replay(
        trace,
        config=ReplayConfig(
            dilation=dilation,
            workers=workers,
            window_s=window_s,
            max_queue_depth=65_536,
        ),
    )
    report = validate_model(result, min_requests=min_window_requests)
    return trace, result, report


#: the fleet replay at smoke size: the ~830 req/s mean arrival rate of
#: the full run, over a 50x shorter trace (CI's fleet smoke and tier-1)
FLEET_SMOKE = dict(n_requests=2_000, dilation=36_000.0, window_s=21_600.0)


def fleet_eval(
    *,
    n_requests: int = 100_000,
    dilation: float = 720.0,
    window_s: float = 7200.0,
    workers: int = 1,
    seed: int = 42,
    min_window_requests: int = 150,
) -> Experiment:
    """Extension: fleet-scale trace replay vs the M/G/k capacity model.

    Replays a seeded 100k-request, 24 h-virtual trace — four tenants,
    M4 + M7 device classes, diurnal + MMPP arrivals, Zipf skew — against
    a real :class:`~repro.serving.Dispatcher` under virtual-time
    dilation, then grades the analytical M/G/k model window by window:
    predicted p95 latency and deadline-hit rate vs measured, with a
    <20 % request-weighted mean error gate on both.  The notes close the
    loop with the planner: the minimal worker count the validated model
    says would hold the SLO at twice the peak window's arrival rate.

    Determinism anchors carried in the notes: the trace digest (bit
    identical per spec in any process) and the outputs digest (a pure
    function of the trace — dilation, worker count and scheduling must
    not change it while nothing is shed).
    """
    from repro.fleet import ServiceProfile, SLOTarget, plan_capacity

    trace, result, report = fleet_trial(
        n_requests=n_requests,
        dilation=dilation,
        window_s=window_s,
        workers=workers,
        seed=seed,
        min_window_requests=min_window_requests,
    )
    headers = [
        "Window", "Req", "rho", "Meas p95 ms", "Pred p95 ms", "p95 err",
        "Meas hit", "Pred hit", "hit err",
    ]
    rows = [
        (
            r.window,
            r.requests,
            f"{r.utilization:.2f}",
            f"{1e3 * r.measured_p95_s:.1f}",
            f"{1e3 * r.predicted_p95_s:.1f}",
            f"{100 * r.p95_error:.1f}%",
            f"{100 * r.measured_hit_rate:.1f}%",
            f"{100 * r.predicted_hit_rate:.1f}%",
            f"{100 * r.hit_error:.1f}%",
        )
        for r in report.rows
    ]

    # close the loop: plan capacity for 2x the peak graded window's rate
    # from that window's own measured service profile
    merged = result.telemetry.merged("tenant")
    peak_w = max(
        (r.window for r in report.rows),
        key=lambda w: merged[w].completed,
    )
    peak_rate = merged[peak_w].completed / (window_s / dilation)
    profile = ServiceProfile.from_window(
        merged[peak_w], overhead_s=report.overhead_s
    )
    slo = SLOTarget(
        p95_latency_s=0.025, deadline_hit_rate=0.99, deadline_s=0.25
    )
    plan = plan_capacity(
        arrival_rate_rps=2.0 * peak_rate,
        profile=profile,
        slo=slo,
        ca2=float(trace.window_ca2(window_s)[peak_w]),
    )

    counts = result.outcome_counts()
    tenant_counts = trace.tenant_counts()
    mix = ", ".join(
        f"{t.name}({result.device_classes[t.name]} {t.model}) "
        f"{tenant_counts[t.name]}"
        for t in trace.spec.tenants
    )
    notes = [
        f"trace: digest {trace.digest()}, {len(trace)} requests over "
        f"{trace.spec.horizon_s / 3600:.0f}h virtual; tenants: {mix}",
        f"replay: dilation {dilation:g}x, {workers} worker(s), "
        f"{result.wall_s:.1f}s wall ({result.requests_per_s:.0f} req/s "
        f"served), max submit lag {1e3 * result.max_submit_lag_s:.1f} ms",
        f"outcomes: {counts['completed']} completed, "
        f"{counts['failed']} failed, {counts['shed']} shed, "
        f"{counts['rejected']} rejected; admitted == completed + failed "
        f"+ shed: {'yes' if result.balanced else 'NO'}; outputs digest "
        f"{result.outputs_digest()} (dilation-invariant)",
        f"validation: weighted mean p95 error "
        f"{100 * report.mean_p95_error:.1f}% "
        f"(max {100 * report.max_p95_error:.1f}%), hit-rate error "
        f"{100 * report.mean_hit_error:.1f}% "
        f"(max {100 * report.max_hit_error:.1f}%), overhead "
        f"{1e3 * report.overhead_s:.2f} ms, {len(report.rows)} window(s) "
        f"graded / {report.windows_skipped} skipped; gate (<20% weighted "
        f"mean): {'PASS' if report.passed(0.20) else 'FAIL'}",
        f"capacity plan: {plan.workers} worker(s) "
        f"{'meet' if plan.feasible else 'CANNOT meet'} p95 <= "
        f"{1e3 * slo.p95_latency_s:.0f} ms and hit >= "
        f"{100 * slo.deadline_hit_rate:.0f}% at 2x peak "
        f"({2 * peak_rate:.0f} req/s) — {len(plan.evaluated)} model "
        f"evaluations instead of a replay sweep",
        "tracked gate: kind 'fleet' in BENCH_perf.json "
        "(benchmarks/bench_perf.py, weighted mean errors < 20%)",
    ]
    return headers, rows, notes


# --------------------------------------------------------------------------- #
def storm_trace_spec(n_requests: int = 3000, seed: int = 77):
    """The 4-tenant workload every chaos-storm drill replays.

    Same tenant mix as :func:`fleet_trace_spec` (both device classes,
    Zipf skew, distinct priorities/deadlines) over a short 30-minute
    virtual horizon, so seeded storm phases — declared in absolute
    virtual time — cover a meaningful fraction of the trace without a
    long replay.
    """
    from repro.fleet import TenantSpec, TraceSpec

    return TraceSpec(
        seed=seed,
        n_requests=n_requests,
        horizon_s=1800.0,
        tenants=(
            TenantSpec(
                name="alpha", model="tiny-chain-4", device="F411RE",
                priority=2, weight=2.0, deadline_s=0.25,
            ),
            TenantSpec(
                name="beta", model="tiny-chain-6", device="F767ZI",
                priority=1, deadline_s=0.25,
            ),
            TenantSpec(
                name="gamma", model="tiny-chain-2", device="F411RE",
                priority=1, deadline_s=0.10,
            ),
            TenantSpec(
                name="delta", model="wide-chain-4", device="F767ZI",
                priority=0, deadline_s=0.50,
            ),
        ),
        zipf_s=1.1,
        diurnal_amplitude=0.3,
        peak_hour=12.0,
        burst_multiplier=1.4,
        burst_dwell_s=120.0,
        calm_dwell_s=240.0,
    )


def storm_suite(horizon_s: float = 1800.0):
    """The three seeded storms the ``storm`` eval replays (name -> spec).

    Each exercises a different failure surface: pure request poison
    (containment + availability), brownout + worker crashes (breaker
    degradation + supervisor + fault-headroom autoscaling, zero
    failures), and a mixed storm layering tenant-scoped poison and a
    brownout.
    """
    from repro.fleet import StormPhase, StormSpec

    h = horizon_s
    return {
        "poison-burst": StormSpec(
            storm_seed=101,
            phases=(
                StormPhase(
                    kind="poison",
                    onset_s=0.30 * h,
                    duration_s=0.15 * h,
                    rate=0.15,
                ),
            ),
        ),
        "brownout-crash": StormSpec(
            storm_seed=202,
            phases=(
                StormPhase(
                    kind="brownout",
                    onset_s=0.40 * h,
                    duration_s=0.20 * h,
                    budget=6,
                ),
                StormPhase(
                    kind="crash",
                    onset_s=0.40 * h,
                    duration_s=0.20 * h,
                    workers=(0,),
                    budget=2,
                ),
            ),
        ),
        "mixed": StormSpec(
            storm_seed=303,
            phases=(
                StormPhase(
                    kind="poison",
                    onset_s=0.20 * h,
                    duration_s=0.10 * h,
                    rate=0.08,
                    tenants=("alpha", "beta"),
                ),
                StormPhase(
                    kind="brownout",
                    onset_s=0.70 * h,
                    duration_s=0.10 * h,
                    budget=4,
                ),
            ),
        ),
    }


def storm_fleet_config(trace, config):
    """The resilient fleet a storm drill runs: retries + budget + healing.

    :func:`repro.fleet.replay.fleet_config` plus the availability
    machinery under test: a bounded retry policy, the fleet-wide retry
    budget, a hair-trigger breaker so brown-outs degrade fast, and
    **model-driven** autoscaling inside ``1..max(4, workers)`` with
    fault headroom while breakers are open.
    """
    from dataclasses import replace

    from repro.fleet.replay import fleet_config
    from repro.serving import RetryPolicy

    return replace(
        fleet_config(trace, config),
        min_workers=1,
        max_workers=max(4, config.workers),
        retry=RetryPolicy(max_attempts=3, backoff_s=0.001, jitter=0.0),
        retry_budget_ratio=0.10,
        retry_budget_burst=8,
        breaker_threshold=2,
        breaker_cooldown_s=0.05,
        autoscale_mode="model",
        fault_headroom=1.25,
        scale_cooldown_s=0.05,
    )


def storm_trial(
    *,
    storm=None,
    n_requests: int = 3000,
    dilation: float = 60.0,
    window_s: float = 150.0,
    workers: int = 2,
    trace_seed: int = 77,
    keep_outputs: bool = True,
    trace=None,
    compiled=None,
    plan_cache=None,
):
    """Compile a storm against the trace and replay under it.

    The shared core of the ``storm`` experiment and the gated
    ``kind: "storm"`` series in ``benchmarks/bench_perf.py``.  Pass
    ``storm=None`` for the clean baseline replay (same trace, same
    resilient fleet config, no faults) whose per-request output digests
    anchor the bit-exactness gate.  ``trace``/``compiled``/``plan_cache``
    let a caller amortize trace generation and fleet compilation across
    the suite.  Returns ``(trace, plan, result)`` with ``plan=None``
    for the baseline.
    """
    from repro.fleet import build_storm_plan, generate_trace
    from repro.fleet.replay import ReplayConfig, replay

    if trace is None:
        trace = generate_trace(storm_trace_spec(n_requests, trace_seed))
    plan = None if storm is None else build_storm_plan(trace, storm)
    cfg = ReplayConfig(
        dilation=dilation,
        workers=workers,
        window_s=window_s,
        max_queue_depth=65_536,
        keep_outputs=keep_outputs,
    )
    result = replay(
        trace,
        config=cfg,
        compiled=compiled,
        plan_cache=plan_cache,
        faults=None if plan is None else plan.faults,
        fleet=storm_fleet_config(trace, cfg),
    )
    return trace, plan, result


#: the storm replays at smoke size: 900 requests at dilation 180, every
#: gate kept (CI's storm smoke and tier-1)
STORM_SMOKE = dict(n_requests=900, dilation=180.0, window_s=150.0)


def storm_eval(
    *,
    n_requests: int = 3000,
    dilation: float = 60.0,
    window_s: float = 150.0,
    workers: int = 2,
    trace_seed: int = 77,
    availability_slo: float = 0.995,
) -> Experiment:
    """Extension: availability under fire — seeded chaos-storm replays.

    Replays the 4-tenant storm trace under the three
    :func:`storm_suite` storms and grades, per storm:

    * **containment** — the failed set equals the storm plan's exact
      preview (``expected_failed``), nothing else;
    * **balance** — ``admitted == completed + failed + shed``;
    * **availability** — admitted-weighted success ratio >= the SLO in
      every window *outside* the storm, bounded error-budget burn
      inside;
    * **retry guardrail** — granted retries never exceed
      ``burst + ratio * admitted``;
    * **bit-exactness** — every non-poisoned request's output digest
      matches the clean baseline replay;
    * **self-healing** — the live worker count ends within +/-1 of the
      capacity planner's target.

    The notes add the determinism anchor: an identical failed set and
    outputs digest on a rerun with ``keep_outputs=False`` (histogram
    telemetry, no stored tensors), and each replay's wall time and worst
    submit lag behind the dilated schedule.
    """
    from repro.compiler import PlanCache
    from repro.fleet import generate_trace
    from repro.serving import ErrorBudget, availability_report

    trace = generate_trace(storm_trace_spec(n_requests, trace_seed))
    plan_cache = PlanCache()
    budget = ErrorBudget(slo=availability_slo)
    common = dict(
        dilation=dilation,
        window_s=window_s,
        workers=workers,
        trace=trace,
        plan_cache=plan_cache,
    )

    _, _, baseline = storm_trial(storm=None, **common)
    replays = [("baseline", baseline)]
    base_digests = {
        r.index: r.output_digest for r in baseline.records
    }

    headers = [
        "Storm", "Req", "Failed/Exp", "Steady avail", "Storm avail",
        "Burn", "Retry ratio", "Workers plan/got", "gates",
    ]
    rows = []
    notes = []
    storms = storm_suite(trace.spec.horizon_s)
    results = {}
    for name, storm in storms.items():
        _, plan, res = storm_trial(storm=storm, **common)
        results[name] = (plan, res)
        replays.append((name, res))
        storm_ids = plan.storm_window_ids(window_s)
        report = availability_report(
            res.telemetry,
            budget=budget,
            storm_windows=storm_ids,
            audit=res.stats.audit,
            horizon_s=res.wall_s,
        )
        failed = res.failed_indices()
        contained = failed == plan.expected_failed
        steady = (
            report.steady_availability
            if report.steady_availability is not None else 1.0
        )
        in_storm = (
            report.storm_availability
            if report.storm_availability is not None else 1.0
        )
        worst = report.worst_window
        stats = res.stats
        snap = stats.retry_budget
        retry_ok = stats.retries <= (
            snap["burst"] + snap["ratio"] * stats.submitted
        )
        exact = all(
            r.output_digest == base_digests[r.index]
            for r in res.records
            if r.outcome == "completed"
        )
        planned = stats.planned_workers
        healed = planned is None or abs(stats.workers - planned) <= 1
        gates = (
            contained
            and res.balanced
            and steady >= availability_slo
            and retry_ok
            and exact
            and healed
        )
        rows.append((
            name,
            len(res.records),
            f"{len(failed)}/{len(plan.expected_failed)}",
            f"{100 * steady:.2f}%",
            f"{100 * in_storm:.2f}%",
            f"{worst.burn_rate:.0f}x" if worst is not None else "-",
            f"{100 * stats.retry_ratio:.1f}%",
            f"{planned if planned is not None else '-'}/{stats.workers}",
            "yes" if gates else "NO",
        ))
        mttr = (
            f"{1e3 * report.mttr_s:.0f} ms" if report.mttr_s is not None
            else "n/a"
        )
        mtbf = (
            f"{1e3 * report.mtbf_s:.0f} ms" if report.mtbf_s is not None
            else "n/a"
        )
        notes.append(
            f"{name}: {len(plan.faults.specs)} fault spec(s), "
            f"{len(storm_ids)} storm window(s); "
            f"retries {stats.retries} granted / {stats.retry_denied} "
            f"denied (budget {snap['burst']:.0f} + "
            f"{100 * snap['ratio']:.0f}% of {stats.submitted}); "
            f"MTTR {mttr}, MTBF {mtbf}; {report.summary()}"
        )

    # determinism anchor: rerun the poison storm without stored outputs
    # (histogram telemetry); the failed set and the digest fold must not
    # move
    name0 = "poison-burst"
    plan0, res0 = results[name0]
    _, _, rerun = storm_trial(
        storm=storms[name0], keep_outputs=False, **common
    )
    replays.append(("rerun", rerun))
    rerun_ok = (
        rerun.failed_indices() == res0.failed_indices()
        and rerun.outputs_digest() == res0.outputs_digest()
    )
    notes.append(
        f"determinism: rerun of '{name0}' with keep_outputs=False "
        f"(histogram windows, no tensors kept) — failed set and outputs "
        f"digest {res0.outputs_digest()} identical: "
        f"{'PASS' if rerun_ok else 'FAIL'}"
    )
    # a submit that falls behind the dilated schedule shows as wall time
    # past the schedule and as submit lag
    notes.append(
        f"replays (wall s / max submit lag ms), schedule "
        f"{trace.spec.horizon_s / dilation:.1f} s: "
        + ", ".join(
            f"{name} {res.wall_s:.1f} / {1e3 * res.max_submit_lag_s:.1f}"
            for name, res in replays
        )
    )
    notes.extend([
        f"trace: digest {trace.digest()}, {len(trace)} requests over "
        f"{trace.spec.horizon_s / 60:.0f} min virtual, dilation "
        f"{dilation:g}x; fleet: workers 1..{max(4, workers)} "
        f"(model-driven autoscale, fault headroom 1.25), retry "
        f"max_attempts 3, budget 10% + 8 burst, breaker threshold 2",
        f"error budget: SLO {100 * availability_slo:.1f}% per window "
        f"outside storm phases; storm windows graded on burn only — a "
        f"chaos replay is a pure function of (trace_seed, storm_seed)",
        "tracked gate: kind 'storm' in BENCH_perf.json "
        "(benchmarks/bench_perf.py) and the storm-smoke CI job",
    ])
    return headers, rows, notes


#: name -> driver, used by benches, examples and EXPERIMENTS.md generation.
ALL_EXPERIMENTS: dict[str, Callable[[], Experiment]] = {
    "table1": table1,
    "table2": table2,
    "figure7": figure7,
    "figure8": figure8,
    "figure9": figure9,
    "table3": table3,
    "figure10": figure10,
    "figure11": figure11,
    "figure12": figure12,
    "compiled": compiled_networks,
    "backends": execution_backend_speedup,
    "serving": serving_throughput,
    "dispatch": dispatch_serving,
    "control": control_serving,
    "chaos": chaos_serving,
    "fleet": fleet_eval,
    "storm": storm_eval,
}
