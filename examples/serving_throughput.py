"""Plan-once/run-many serving: compile one model, serve many requests.

The compiler already amortizes planning (PlanCache) and the fast backend
already amortizes simulation away — but a per-request ``run`` loop still
re-derives the analytic cost events on every call.  A
:class:`repro.serving.Session` freezes all of that at construction:

* plans        — solved once at compile time,
* weights      — promoted to GEMM operands once (``cached_pack``),
* cost model   — a per-stage template derived once from the plan and
                 replayed for every request (bit-identical to simulate).

What remains per request is one stacked GEMM per stage across the whole
batch, on the default ``"turbo"`` backend an exact float64 BLAS GEMM.
The comparison below is that session against a per-call
``execution="fast"`` loop.  Outputs and per-request cost reports are
bit-identical to serving each request alone — batching and BLAS change
wall clock, never bits.

Run:  python examples/serving_throughput.py
"""

import time

import numpy as np

import repro
from repro.graph.models import build_classifier_graph


def main() -> None:
    model = build_classifier_graph("vww", classes=4)
    compiled = repro.compile(model, execution="fast")
    session = compiled.serve()  # warms plans + packed weights + template

    rng = np.random.default_rng(0)
    batches = [
        [
            rng.integers(-128, 128, (20, 20, 16), dtype=np.int8)
            for _ in range(8)
        ]
        for _ in range(6)
    ]

    # -- serve a stream of batches through one warmed session
    t0 = time.perf_counter()
    served = [session.run_batch(batch) for batch in batches]
    batched_s = time.perf_counter() - t0

    # -- the same traffic as a per-call fast loop
    t0 = time.perf_counter()
    per_call = [
        [compiled.run(x) for x in batch] for batch in batches
    ]
    fast_s = time.perf_counter() - t0

    # -- bit-exact, with bit-identical modeled costs
    for batch_served, batch_runs in zip(served, per_call):
        for s, f in zip(batch_served, batch_runs):
            np.testing.assert_array_equal(s.output, f.output)
            assert s.stats.report.cycles == f.report.cycles

    stats = session.stats
    first = served[0][0].stats
    print(f"model: {model.name} ({compiled.n_stages} stages)")
    print(
        f"served {stats.requests} requests in {stats.batches} batches "
        f"(peak queue depth {stats.peak_queue_depth})"
    )
    print(
        f"throughput: session {stats.requests / batched_s:.0f} req/s vs "
        f"per-call fast {stats.requests / fast_s:.0f} req/s "
        f"({fast_s / batched_s:.2f}x)"
    )
    print(
        f"per-request accounting: id={first.request_id} "
        f"queue_depth={first.queue_depth} host={first.latency_s * 1e3:.1f}ms "
        f"modeled on-device={first.report.latency_ms:.1f}ms"
    )
    print(
        "modeled stage costs (template, bit-identical to simulate):",
        {
            name: f"{rep.latency_ms:.2f}ms"
            for name, rep in list(first.stage_reports.items())[:3]
        },
        "...",
    )


if __name__ == "__main__":
    main()
