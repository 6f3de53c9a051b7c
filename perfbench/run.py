#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload tiny-fleet --seed 3 --seconds 30 \\
        --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` splits ``--seconds`` between an untraced run and a traced
run of the same load, with spans recorded around the program's public
entry points; it prints the per-layer metrics (with the tracing overhead
against the untraced half) and writes the spans to ``perfbench/out/``.
The exit status is 0 only if every response passed the correctness gate.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402  (no NumPy import yet)

#: Dispatcher worker threads: this image's core count.  Every other
#: Dispatcher knob stays at its default, so a change to a default is measured.
WORKERS = 2
#: cold set-ups per run; setup_s is their median
SETUPS = 9
#: extra set-ups under tracing; compile/plan metrics are their medians
TRACED_SETUPS = 3
WARM_TIMEOUT_S = 60.0

#: layers whose self times partition Session.run_batch
RUN_BATCH_LAYERS = (
    "session.run_batch", "runtime.run_batch", "kernels.run_pipeline_batch",
    "quant.requantize",
)


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _ms(seconds: float) -> float:
    return seconds * 1e3


class Bench:
    def __init__(self, workload, seed: int, seconds: float):
        from perfbench import workloads as wl

        self.workload = workload
        self.seconds = seconds
        self.graphs = {t.name: t.build() for t in workload.tenants}
        self.pools = {
            t.name: wl.input_pool(workload, seed, i, self.graphs[t.name])
            for i, t in enumerate(workload.tenants)
        }
        self.schedule = wl.schedule(workload, seed, seconds)
        self.mix = wl.mix(workload)

    def setup(self):
        """Cold PlanCache compile + Dispatcher + one warm request per tenant."""
        import repro
        from repro.compiler.cache import PlanCache
        from repro.serving import Dispatcher

        start = time.perf_counter()
        cache = PlanCache()
        compiled = {
            t.name: repro.compile(
                self.graphs[t.name], device=t.device, cache=cache
            )
            for t in self.workload.tenants
        }
        dispatcher = Dispatcher(compiled, workers=WORKERS, plan_cache=cache)
        for t in self.workload.tenants:
            dispatcher.submit(
                feeds=dict(self.pools[t.name][0]), tenant=t.name
            ).result(WARM_TIMEOUT_S)
        return time.perf_counter() - start, cache, compiled, dispatcher

    def setups(self, count: int):
        """``count`` set-ups; returns their times and the last one's parts."""
        times, last = [], None
        for _ in range(count):
            if last is not None:
                last[2].close()
            elapsed, *last = self.setup()
            times.append(elapsed)
        return times, last

    def measure(self, dispatcher, reference):
        from perfbench import loadgen

        run = loadgen.run_open if self.workload.open_loop else loadgen.run_closed
        before = dispatcher.stats
        out = run(
            dispatcher, self.workload, self.schedule, self.pools, reference,
            self.seconds,
        )
        return out, before, dispatcher.stats


def balance_errors(out, before, after) -> list[str]:
    """Admission must balance, and agree with what the generator saw."""
    errors = []
    if after.submitted != after.completed + after.failed + after.shed:
        errors.append(
            f"unbalanced: submitted={after.submitted} != completed="
            f"{after.completed} + failed={after.failed} + shed={after.shed}"
        )
    admitted = after.submitted - before.submitted
    if admitted != out.sent - out.rejected:
        errors.append(
            f"dispatcher admitted {admitted}, generator sent "
            f"{out.sent} with {out.rejected} refused"
        )
    if out.completed + out.errored + out.mismatched != admitted:
        errors.append(
            f"{admitted} admitted but {out.completed} completed + "
            f"{out.errored} errored + {out.mismatched} mismatched"
        )
    return errors


def end_to_end(bench, out, setup_times, compiled, reference) -> dict:
    lat = out.latencies_by_due()
    first = {t: runs[0] for t, runs in reference.runs.items()}
    names = [t.name for t in bench.workload.tenants]
    return {
        "throughput_rps": out.completed_in_window / bench.seconds,
        "latency_p50_ms": _ms(stats.sliced_percentile(lat, 50)[0]),
        "latency_p95_ms": _ms(stats.sliced_percentile(lat, 95)[0]),
        "slo_attainment": out.within_limit / out.sent,
        "success_rate": out.completed / out.sent,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "sram_peak_bytes": max(cm.footprint_bytes for cm in compiled.values()),
        # modeled per-inference cost, weighted by the workload's mix
        "mcu_cycles": float(
            sum(w * first[n].report.cycles for w, n in zip(bench.mix, names))
        ),
        "mcu_energy_mj": float(
            sum(w * first[n].report.energy_mj for w, n in zip(bench.mix, names))
        ),
    }


class FeedSeqs:
    """Maps each submitted feeds mapping to its request seq.

    The dispatcher hands the very mapping a caller submitted to
    ``Session.run_batch``, so a batch span can name its requests.  The
    mappings are kept alive for the traced run, so ids are never reused.
    """

    def __init__(self):
        self.seq_of: dict[int, int] = {}
        self._alive: list = []

    def on_submit(self, args, kwargs, ticket):
        if ticket is None:
            return None
        feeds = kwargs.get("feeds")
        self._alive.append(feeds)
        self.seq_of[id(feeds)] = ticket.request_seq
        return ticket.request_seq

    def resolve(self, spans):
        return [
            s._replace(seq=tuple(self.seq_of.get(i) for i in s.seq))
            if s.name == "session.run_batch" else s
            for s in spans
        ]


def install_tracer(tracer, feed_seqs: FeedSeqs) -> None:
    import repro
    import repro.kernels.turbo as turbo
    from repro.kernels.base import execution_backends, get_execution_backend
    from repro.runtime.pipeline import Pipeline
    from repro.serving import Dispatcher, Session

    tracer.patch(repro, "compile", "compiler.compile")
    tracer.patch(Pipeline, "plan", "core.plan")
    tracer.patch(
        Dispatcher, "submit", "dispatcher.submit", seq=feed_seqs.on_submit
    )
    tracer.patch(
        Session, "run_batch", "session.run_batch",
        seq=lambda a, kw, out: tuple(id(r) for r in a[1]),
        amount=lambda a, kw: len(a[1]),
    )
    tracer.patch(
        Pipeline, "run_batch", "runtime.run_batch",
        amount=lambda a, kw: len(a[1]),
    )
    for name in execution_backends():
        tracer.patch(
            get_execution_backend(name), "run_pipeline_batch",
            "kernels.run_pipeline_batch", amount=lambda a, kw: len(a[2]),
        )
    tracer.patch(
        turbo, "requantize_fast", "quant.requantize",
        amount=lambda a, kw: int(a[0].size),
    )


def per_layer(spans, setup_spans, cache, out, before, after, untraced) -> tuple:
    """Per-layer metrics of the traced run, plus the self-time check."""
    from perfbench.tracing import self_times

    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)
    selfs = self_times(spans)

    def total(name, of=lambda s: s.duration):
        return sum(of(s) for s in by[name])

    def self_total(name):
        return sum(selfs[s.sid] for s in by[name])

    batches = by["session.run_batch"]
    n_batches = len(batches)
    n_req = sum(s.amount for s in batches)
    run_batch_s = total("session.run_batch")
    kernels_s = total("kernels.run_pipeline_batch")
    quant_s = total("quant.requantize")
    layer_sum = sum(self_total(n) for n in RUN_BATCH_LAYERS)
    identity_ok = abs(layer_sum - run_batch_s) <= 1e-9 + 1e-6 * run_batch_s

    def per_setup(name):
        return statistics.median(
            sum(s.duration for s in group if s.name == name)
            for group in setup_spans
        )

    batch_ms = [_ms(s.duration) for s in batches]
    wall = max(out.last_complete_t - out.start_t, 1e-9)
    untraced_p50 = stats.sliced_percentile(untraced.latencies_by_due(), 50)[0]
    metrics = {
        "compiler.compile_ms": _ms(per_setup("compiler.compile")),
        "compiler.plan_cache_hit_rate": cache.stats.hit_rate,
        "core.plan_ms": _ms(per_setup("core.plan")),
        "dispatcher.submit_us_p50": 1e6 * stats.percentile(
            [s.duration for s in by["dispatcher.submit"]], 50
        ),
        "dispatcher.queue_wait_ms_p50": _ms(
            stats.percentile(out.queue_waits_s, 50)
        ),
        "dispatcher.queue_wait_ms_p95": _ms(
            stats.percentile(out.queue_waits_s, 95)
        ),
        "dispatcher.batch_size_mean": stats.mean(
            after.completed - before.completed, after.batches - before.batches
        ),
        "dispatcher.peak_queue_depth": after.peak_queue_depth,
        "dispatcher.failed": after.failed - before.failed,
        "dispatcher.shed": after.shed - before.shed,
        "dispatcher.rejected": after.rejected - before.rejected,
        "session.run_batch_ms_p50": stats.percentile(batch_ms, 50),
        "session.run_batch_ms_p95": stats.percentile(batch_ms, 95),
        "session.busy_share": run_batch_s / (wall * WORKERS),
        "session.self_ms_per_batch": _ms(
            stats.mean(self_total("session.run_batch"), n_batches)
        ),
        "runtime.self_ms_per_batch": _ms(
            stats.mean(self_total("runtime.run_batch"), n_batches)
        ),
        "kernels.ms_per_request": _ms(stats.mean(kernels_s, n_req)),
        "kernels.self_ms_per_request": _ms(
            stats.mean(self_total("kernels.run_pipeline_batch"), n_req)
        ),
        "quant.requantize_ms_per_request": _ms(stats.mean(quant_s, n_req)),
        "quant.elements_per_request": stats.mean(
            total("quant.requantize", lambda s: s.amount), n_req
        ),
        "quant.requantize_share": stats.mean(quant_s, kernels_s),
        "loadgen.max_lag_ms": _ms(out.max_lag_s),
        "loadgen.sent": out.sent,
        "tracing.overhead": stats.mean(
            stats.sliced_percentile(out.latencies_by_due(), 50)[0],
            untraced_p50,
        ) - 1.0,
    }
    check = (
        f"self times: session+runtime+kernels+quant = {_ms(layer_sum):.3f} ms"
        f" vs Session.run_batch {_ms(run_batch_s):.3f} ms over "
        f"{n_batches} batches ({'ok' if identity_ok else 'MISMATCH'})"
    )
    return metrics, identity_ok, check


def report_outcome(label, workload, out) -> list[str]:
    """Human-readable lines on one phase; returns its problems."""
    lat = out.latencies_by_due()
    n = len(lat)
    slices = stats.sliced_percentile(lat, 95)[1]
    tail = (
        f"p99 over the run = {_ms(stats.percentile(lat, 99)):.3f} ms"
        if stats.supported(n, 99) else "p99 unsupported (< 1000 samples)"
    )
    print(
        f"{label}: sent={out.sent} completed={out.completed} "
        f"rejected={out.rejected} errored={out.errored} "
        f"mismatched={out.mismatched}; latency samples n={n} in {slices} "
        f"slice(s), p95 per slice "
        f"{'supported' if stats.supported(n // slices, 95) else 'UNSUPPORTED'}"
        f"; {tail}"
    )
    behind = workload.open_loop and out.max_lag_s > workload.latency_limit_s
    print(
        f"{label}: loadgen max_lag_ms={_ms(out.max_lag_s):.3f}"
        + (" FLAG: generator fell behind the schedule" if behind else "")
    )
    if out.mismatched:
        return [f"{label}: {out.mismatched} response(s) differ from the reference"]
    return []


def print_metrics(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name:34s} {value!r} {units[name]}")


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return _fail(f"the program's sources are missing: no {src}/repro")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        return _fail(f"imported repro from {repro.__file__}, not {src}")
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        units = {
            kind: {m["name"]: m["unit"] for m in declared[kind]}
            for kind in ("end_to_end", "per_layer")
        }
    except (OSError, ValueError, KeyError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")

    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    from perfbench.loadgen import Reference
    from perfbench.tracing import Tracer, write_spans

    workload = WORKLOADS[args.workload]
    host = stats.host_fingerprint()
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"workload: {workload.describe()}")
    print("host " + json.dumps(host))

    # a traced run splits its time between the untraced and traced phases
    bench = Bench(workload, args.seed, args.seconds / (1 + args.trace))
    setup_times, (cache, compiled, dispatcher) = bench.setups(SETUPS)
    reference = Reference(compiled, bench.pools)
    problems: list[str] = []
    with dispatcher:
        out, before, after = bench.measure(dispatcher, reference)
    problems += report_outcome("run", workload, out)
    problems += balance_errors(out, before, after)
    metrics = end_to_end(bench, out, setup_times, compiled, reference)
    kind = "end_to_end"
    attempted, failed = out.sent, out.failed

    if args.trace:
        tracer, feed_seqs = Tracer(), FeedSeqs()
        install_tracer(tracer, feed_seqs)
        try:
            setup_spans = []
            for _ in range(TRACED_SETUPS):
                _, cache, compiled, dispatcher = bench.setup()
                setup_spans.append(tracer.take())
                if len(setup_spans) < TRACED_SETUPS:
                    dispatcher.close()
            with dispatcher:
                traced, t_before, t_after = bench.measure(dispatcher, reference)
        finally:
            tracer.restore()
        spans = feed_seqs.resolve(tracer.take())
        problems += report_outcome("traced run", workload, traced)
        problems += balance_errors(traced, t_before, t_after)
        print("untraced end-to-end (reference for tracing.overhead):")
        print_metrics(metrics, units[kind])
        kind = "per_layer"
        metrics, identity_ok, check = per_layer(
            spans, setup_spans, cache, traced, t_before, t_after, out
        )
        print(check)
        if not identity_ok:
            problems.append(check)
        attempted += traced.sent
        failed += traced.failed
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl"
        write_spans(
            path, [s for group in setup_spans for s in group] + spans,
            {"workload": workload.name, "seed": args.seed, "host": host,
             "fields": ["sid", "name", "start", "end", "parent", "thread",
                        "seq", "amount"]},
        )
        print(f"spans: {path.relative_to(ROOT)}")

    units = units[kind]
    if set(metrics) != set(units):
        return _fail(
            f"metrics {sorted(metrics)} do not match BENCHMARK.json "
            f"{kind} {sorted(units)}"
        )
    print_metrics(metrics, units)
    correct = not problems
    print("correctness: " + ("PASS" if correct else "FAIL: " + "; ".join(problems)))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    for var in stats.BLAS_THREAD_VARS:
        os.environ[var] = str(stats.BLAS_THREADS)
    sys.exit(main())
