"""Serving benchmarks: session batching, the dispatcher, the control plane.

Three series, three artifacts:

* ``results/serving.txt`` — the PR-4 table
  (:func:`repro.eval.experiments.serving_throughput`): one warmed
  ``execution="fast"`` :class:`~repro.serving.Session` per compiled VWW
  model, requests/sec of stacked batches vs a per-request
  ``execution="fast"`` loop;
* ``results/dispatch.txt`` — the PR-5 table
  (:func:`repro.eval.experiments.dispatch_serving`): three tenants
  behind a 4-worker :class:`~repro.serving.Dispatcher` under an
  open-loop arrival process, with p50/p95 latency, deadline-hit rate,
  shared-``PlanCache`` hit rate and the closed-loop speedup over a
  single-worker session loop;
* ``results/control.txt`` — the PR-6 table
  (:func:`repro.eval.experiments.control_serving`): a 4:1 priority mix
  under FIFO vs the QoS batch former, a mid-flood live
  ``apply_config`` and the autoscaler's resize events, with per-class
  p50/p95/deadline-hit rows;
* ``results/chaos.txt`` — the PR-7 table
  (:func:`repro.eval.experiments.chaos_serving`): a seeded
  ``FaultPlan`` storm (5% request poison + one worker crash + one
  pool-child kill) followed by a circuit-breaker degrade/restore
  cycle; the gate asserts that only the poisoned requests fail, that
  ``admitted == completed + failed + shed`` balances, that every
  crash/rebuild/degradation lands in the audit trail, and that all
  surviving outputs stay bit-exact;
* ``results/fleet.txt`` — the PR-8 table
  (:func:`repro.eval.experiments.fleet_eval`): a seeded 100k-request,
  24 h-virtual heterogeneous trace (M4 + M7 tenants, diurnal + MMPP
  arrivals, Zipf skew) replayed open-loop against a real dispatcher
  under virtual-time dilation, graded window by window against the
  M/G/k capacity model; the gate asserts request-weighted mean p95 and
  deadline-hit prediction errors < 20% and that the admission
  accounting balances.  The trace digest and the outputs digest in the
  notes are deterministic anchors: bit-identical across reruns,
  processes and dilation factors (measured wall-clock lines vary, as
  in every other table);
* ``results/storm.txt`` — the PR-9 table
  (:func:`repro.eval.experiments.storm_eval`): the 4-tenant storm
  trace replayed under three seeded chaos storms (request poison,
  brown-out + worker crashes, and a mixed storm with a pool-child
  kill) against a resilient fleet — bounded retries under a fleet-wide
  retry budget, hair-trigger circuit breaker, model-driven autoscaling
  with fault headroom; the gates assert exact failure containment,
  admission balance, steady-state availability >= the SLO outside the
  storm windows, the retry-budget guardrail, bit-exact non-poisoned
  outputs vs a clean baseline, self-healing to the planner's worker
  target, and failed-set/digest determinism across reruns
  (``keep_outputs=False``) and thread vs process worker modes.

Bit-exactness is asserted on every row of every table.  Two entry
points:

* ``pytest benchmarks/bench_serving.py`` — the pytest-benchmark flow
  every other bench uses (writes the artifacts via ``emit``);
* ``python benchmarks/bench_serving.py [--smoke] [--only SERIES]`` —
  the CI-friendly CLI; ``--smoke`` shrinks the grids for shared
  runners, where the speedup columns are advisory (bit-exactness is
  always a hard gate — the wall-clock gates live in full runs of
  ``benchmarks/bench_perf.py``), and ``--only`` (repeatable) selects a
  subset of the three series.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

TITLE = "Serving — session run_batch vs per-call fast execution"
DISPATCH_TITLE = "Dispatch — sharded multi-worker serving (open loop)"
CONTROL_TITLE = "Control plane — priority QoS, live reconfig, autoscaling"
CHAOS_TITLE = "Chaos — fault storm, quarantine, breaker degradation"
FLEET_TITLE = "Fleet — trace replay vs the M/G/k capacity model"
STORM_TITLE = "Storm — availability under seeded chaos-storm replays"
FULL_BATCHES = (1, 2, 4, 8, 16)
SMOKE_BATCHES = (1, 8)
FULL_REQUESTS = 48
SMOKE_REQUESTS = 16
FULL_CONTROL_REQUESTS = 40
SMOKE_CONTROL_REQUESTS = 20
FULL_CHAOS_REQUESTS = 48
SMOKE_CHAOS_REQUESTS = 24
CHAOS_SEED = 0  # fixed: the storm must poison the same requests every run
# fleet sizing: both modes target the same ~830 req/s mean arrival rate
# (moderate single-worker utilization — the regime the M/G/k model is
# validated in); smoke just replays a 50x shorter trace
FULL_FLEET = dict(n_requests=100_000, dilation=720.0, window_s=7200.0)
SMOKE_FLEET = dict(n_requests=2_000, dilation=36_000.0, window_s=21_600.0)
# storm sizing: six replays per run (clean baseline, three storms, one
# keep_outputs=False determinism rerun, one process-mode rerun), so both
# modes keep the per-replay wall short; the gates are deterministic — a
# chaos replay is a pure function of (trace_seed, storm_seed) — so they
# stay hard in smoke
FULL_STORM = dict(n_requests=3_000, dilation=60.0, window_s=150.0)
SMOKE_STORM = dict(n_requests=900, dilation=180.0, window_s=150.0)


def test_serving_throughput(benchmark, emit):
    from repro.eval.experiments import serving_throughput
    from repro.eval.reporting import render_experiment

    result = benchmark.pedantic(
        lambda: serving_throughput(batch_sizes=FULL_BATCHES),
        rounds=1,
        iterations=1,
    )
    headers, rows, notes = result
    assert len(rows) == 2 * len(FULL_BATCHES)
    assert all(row[5] == "yes" for row in rows)  # bit-exact everywhere
    emit("serving", render_experiment(TITLE, result))


def test_dispatch_serving(benchmark, emit):
    from repro.eval.experiments import dispatch_serving
    from repro.eval.reporting import render_experiment

    result = benchmark.pedantic(
        lambda: dispatch_serving(n_requests=FULL_REQUESTS),
        rounds=1,
        iterations=1,
    )
    headers, rows, notes = result
    assert rows[-1][0] == "TOTAL"
    assert all(row[-1] == "yes" for row in rows)  # bit-exact everywhere
    emit("dispatch", render_experiment(DISPATCH_TITLE, result))


def test_control_serving(benchmark, emit):
    from repro.eval.experiments import control_serving
    from repro.eval.reporting import render_experiment

    result = benchmark.pedantic(
        lambda: control_serving(n_requests=FULL_CONTROL_REQUESTS),
        rounds=1,
        iterations=1,
    )
    headers, rows, notes = result
    assert {row[0] for row in rows} == {"fifo", "control", "reconfig"}
    assert all(row[-1] == "yes" for row in rows)  # bit-exact everywhere
    emit("control", render_experiment(CONTROL_TITLE, result))


def test_chaos_serving(benchmark, emit):
    from repro.eval.experiments import chaos_serving
    from repro.eval.reporting import render_experiment

    result = benchmark.pedantic(
        lambda: chaos_serving(n_requests=FULL_CHAOS_REQUESTS, seed=CHAOS_SEED),
        rounds=1,
        iterations=1,
    )
    headers, rows, notes = result
    assert {row[0] for row in rows} == {"storm", "degrade"}
    # "yes" on the storm TOTAL row certifies containment (only poisoned
    # requests failed), the admitted == completed + failed + shed
    # balance, and the crash/pool events in the audit trail; "yes" on
    # the degrade row certifies a full degrade -> restore cycle with
    # zero failures.  Every row also certifies bit-exactness.
    assert all(row[-1] == "yes" for row in rows)
    emit("chaos", render_experiment(CHAOS_TITLE, result))


def test_fleet_eval(benchmark, emit):
    from repro.eval.experiments import fleet_eval
    from repro.eval.reporting import render_experiment

    result = benchmark.pedantic(
        lambda: fleet_eval(**FULL_FLEET), rounds=1, iterations=1
    )
    headers, rows, notes = result
    assert rows, "no window had enough completions to grade the model"
    # the two fleet invariants: the M/G/k model tracks the measured
    # system inside the 20% gate, and every admitted request resolved
    # exactly one way
    assert any("gate (<20% weighted mean): PASS" in n for n in notes)
    assert any("+ shed: yes" in n for n in notes)
    emit("fleet", render_experiment(FLEET_TITLE, result))


def test_storm_eval(benchmark, emit):
    from repro.eval.experiments import storm_eval
    from repro.eval.reporting import render_experiment

    result = benchmark.pedantic(
        lambda: storm_eval(**FULL_STORM), rounds=1, iterations=1
    )
    headers, rows, notes = result
    assert {row[0] for row in rows} == {
        "poison-burst", "brownout-crash", "mixed",
    }
    # "yes" per storm certifies containment (failed set == the storm
    # plan's preview), admission balance, steady-state availability >=
    # SLO outside the storm windows, the retry-budget guardrail, bit-
    # exact non-poisoned outputs vs the clean baseline, and the worker
    # count healing to the planner's target
    assert all(row[-1] == "yes" for row in rows)
    assert any("determinism:" in n and "PASS" in n for n in notes)
    assert any("worker modes:" in n and "PASS" in n for n in notes)
    emit("storm", render_experiment(STORM_TITLE, result))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--smoke", action="store_true",
        help="CI mode: fewer batch sizes/requests; speedups are advisory",
    )
    ap.add_argument(
        "--only", action="append",
        choices=("serving", "dispatch", "control", "chaos", "fleet", "storm"),
        help="run only the named series (repeatable; default: all six)",
    )
    ap.add_argument(
        "--output", type=Path, default=REPO_ROOT / "results" / "serving.txt",
        help="where to write the session-serving table",
    )
    ap.add_argument(
        "--dispatch-output", type=Path,
        default=REPO_ROOT / "results" / "dispatch.txt",
        help="where to write the dispatcher table",
    )
    ap.add_argument(
        "--control-output", type=Path,
        default=REPO_ROOT / "results" / "control.txt",
        help="where to write the control-plane table",
    )
    ap.add_argument(
        "--chaos-output", type=Path,
        default=REPO_ROOT / "results" / "chaos.txt",
        help="where to write the chaos (fault-tolerance) table",
    )
    ap.add_argument(
        "--fleet-output", type=Path,
        default=REPO_ROOT / "results" / "fleet.txt",
        help="where to write the fleet replay + model-validation table",
    )
    ap.add_argument(
        "--storm-output", type=Path,
        default=REPO_ROOT / "results" / "storm.txt",
        help="where to write the chaos-storm availability table",
    )
    args = ap.parse_args(argv)
    series = (
        tuple(args.only) if args.only
        else ("serving", "dispatch", "control", "chaos", "fleet", "storm")
    )

    from repro.eval.experiments import (
        chaos_serving,
        control_serving,
        dispatch_serving,
        fleet_eval,
        serving_throughput,
        storm_eval,
    )
    from repro.eval.reporting import render_experiment

    if "serving" in series:
        result = serving_throughput(
            batch_sizes=SMOKE_BATCHES if args.smoke else FULL_BATCHES,
            repeats=1 if args.smoke else 5,
        )
        text = render_experiment(TITLE, result)
        args.output.parent.mkdir(exist_ok=True)
        args.output.write_text(text)
        print(text)
        print(f"wrote {args.output}\n")
        _, rows, _ = result
        if not all(row[5] == "yes" for row in rows):
            print("FAIL: batched serving diverged from per-request execution")
            return 1
        speedups = [float(row[4].rstrip("x")) for row in rows if row[1] >= 8]
        if not args.smoke and speedups and min(speedups) < 1.10:
            print(f"FAIL: batch>=8 speedup {min(speedups):.2f}x < 1.10x target")
            return 1

    if "dispatch" in series:
        dispatch_result = dispatch_serving(
            n_requests=SMOKE_REQUESTS if args.smoke else FULL_REQUESTS,
        )
        dispatch_text = render_experiment(DISPATCH_TITLE, dispatch_result)
        args.dispatch_output.parent.mkdir(exist_ok=True)
        args.dispatch_output.write_text(dispatch_text)
        print(dispatch_text)
        print(f"wrote {args.dispatch_output}\n")
        _, dispatch_rows, _ = dispatch_result
        if not all(row[-1] == "yes" for row in dispatch_rows):
            print("FAIL: dispatcher serving diverged from per-request execution")
            return 1

    if "control" in series:
        control_result = control_serving(
            n_requests=(
                SMOKE_CONTROL_REQUESTS if args.smoke
                else FULL_CONTROL_REQUESTS
            ),
        )
        control_text = render_experiment(CONTROL_TITLE, control_result)
        args.control_output.parent.mkdir(exist_ok=True)
        args.control_output.write_text(control_text)
        print(control_text)
        print(f"wrote {args.control_output}")
        _, control_rows, _ = control_result
        if not all(row[-1] == "yes" for row in control_rows):
            print("FAIL: control-plane serving diverged from per-request "
                  "execution")
            return 1

    if "chaos" in series:
        chaos_result = chaos_serving(
            n_requests=(
                SMOKE_CHAOS_REQUESTS if args.smoke else FULL_CHAOS_REQUESTS
            ),
            seed=CHAOS_SEED,
        )
        chaos_text = render_experiment(CHAOS_TITLE, chaos_result)
        args.chaos_output.parent.mkdir(exist_ok=True)
        args.chaos_output.write_text(chaos_text)
        print(chaos_text)
        print(f"wrote {args.chaos_output}")
        _, chaos_rows, _ = chaos_result
        # a "NO" here means poison escaped quarantine, the admission
        # accounting failed to balance, a crash/rebuild went unaudited,
        # or a surviving output diverged from execution='fast'
        if not all(row[-1] == "yes" for row in chaos_rows):
            print("FAIL: fault storm broke a chaos invariant "
                  "(containment / balance / audit / bit-exactness)")
            return 1

    if "fleet" in series:
        fleet_result = fleet_eval(
            **(SMOKE_FLEET if args.smoke else FULL_FLEET)
        )
        fleet_text = render_experiment(FLEET_TITLE, fleet_result)
        args.fleet_output.parent.mkdir(exist_ok=True)
        args.fleet_output.write_text(fleet_text)
        print(fleet_text)
        print(f"wrote {args.fleet_output}")
        _, fleet_rows, fleet_notes = fleet_result
        # both gates are hard in smoke too: the model grades itself
        # against what THIS run measured, so runner speed cancels out
        if not fleet_rows:
            print("FAIL: no fleet window had enough completions to grade")
            return 1
        if not any(
            "gate (<20% weighted mean): PASS" in n for n in fleet_notes
        ):
            print("FAIL: M/G/k model validation error exceeded the 20% gate")
            return 1
        if not any("+ shed: yes" in n for n in fleet_notes):
            print("FAIL: fleet replay admission accounting did not balance")
            return 1

    if "storm" in series:
        storm_result = storm_eval(
            **(SMOKE_STORM if args.smoke else FULL_STORM)
        )
        storm_text = render_experiment(STORM_TITLE, storm_result)
        args.storm_output.parent.mkdir(exist_ok=True)
        args.storm_output.write_text(storm_text)
        print(storm_text)
        print(f"wrote {args.storm_output}")
        _, storm_rows, storm_notes = storm_result
        # a "NO" means a storm broke an availability invariant:
        # containment (failed set != the plan's preview), admission
        # balance, steady-state availability below the SLO outside the
        # storm windows, a retry past the fleet-wide budget, a
        # non-poisoned output diverging from the clean baseline, or the
        # worker count not healing to the planner's target
        if not all(row[-1] == "yes" for row in storm_rows):
            print("FAIL: a chaos storm broke an availability invariant "
                  "(containment / balance / SLO / retry budget / "
                  "bit-exactness / self-healing)")
            return 1
        if not any(
            "determinism:" in n and "PASS" in n for n in storm_notes
        ):
            print("FAIL: storm replay not deterministic across reruns "
                  "(keep_outputs=False)")
            return 1
        if not any(
            "worker modes:" in n and "PASS" in n for n in storm_notes
        ):
            print("FAIL: storm replay diverged between thread and "
                  "process worker modes")
            return 1

    return 0


if __name__ == "__main__":
    sys.exit(main())
