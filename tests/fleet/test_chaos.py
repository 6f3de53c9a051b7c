"""Storm compilation and chaos replay: determinism, containment, modes.

Two layers:

* pure units on :func:`build_storm_plan` — validation, purity (same
  ``(trace, storm)`` in, same plan out; a hypothesis property), window
  arithmetic, poison/tenant scoping, crash/brownout compilation;
* chaos replays on a small heterogeneous trace — the failed set equals
  the plan's preview exactly, survives dilation and worker-count
  changes and the ``keep_outputs=False`` streaming-histogram mode,
  with the outputs digest bit-identical throughout.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.fleet import (
    StormPhase,
    StormSpec,
    TenantSpec,
    TraceSpec,
    build_storm_plan,
    generate_trace,
)
from repro.fleet.replay import ReplayConfig, build_fleet, replay


@pytest.fixture(scope="module")
def trace():
    spec = TraceSpec(
        seed=11,
        n_requests=300,
        horizon_s=600.0,
        tenants=(
            TenantSpec(
                name="m4", model="tiny-chain-2", device="F411RE", pool_size=4
            ),
            TenantSpec(
                name="m7", model="tiny-chain-4", device="F767ZI", pool_size=4
            ),
        ),
        burst_dwell_s=60.0,
        calm_dwell_s=120.0,
    )
    return generate_trace(spec)


@pytest.fixture(scope="module")
def fleet(trace):
    return build_fleet(trace)


def poison_storm(seed=5, rate=0.2, onset=120.0, duration=180.0, tenants=None):
    return StormSpec(
        storm_seed=seed,
        phases=(
            StormPhase(
                kind="poison",
                onset_s=onset,
                duration_s=duration,
                rate=rate,
                tenants=tenants,
            ),
        ),
    )


def run(trace, fleet, plan=None, dilation=2000.0, workers=2, **kw):
    config = ReplayConfig(
        dilation=dilation,
        workers=workers,
        window_s=150.0,
        max_queue_depth=100_000,
        **kw,
    )
    return replay(
        trace,
        config=config,
        compiled=fleet,
        faults=None if plan is None else plan.faults,
    )


# --------------------------------------------------------------------------- #
# storm spec validation
# --------------------------------------------------------------------------- #
class TestValidation:
    def test_unknown_kind(self, trace):
        with pytest.raises(ConfigError, match="unknown storm phase kind"):
            build_storm_plan(
                trace, StormSpec(phases=(StormPhase(kind="meteor"),))
            )

    def test_bad_numbers(self, trace):
        for phase in (
            StormPhase(kind="poison", onset_s=-1.0),
            StormPhase(kind="poison", duration_s=0.0),
            StormPhase(kind="poison", rate=1.5),
            StormPhase(kind="brownout", budget=0),
            StormPhase(kind="crash", workers=()),
        ):
            with pytest.raises(ConfigError):
                build_storm_plan(trace, StormSpec(phases=(phase,)))

    def test_empty_storm(self, trace):
        with pytest.raises(ConfigError, match="at least one phase"):
            build_storm_plan(trace, StormSpec(phases=()))

    def test_unknown_tenant(self, trace):
        with pytest.raises(ConfigError, match="unknown tenants"):
            build_storm_plan(trace, poison_storm(tenants=("nope",)))

    def test_bad_window_size(self, trace):
        plan = build_storm_plan(trace, poison_storm())
        with pytest.raises(ConfigError, match="window_s"):
            plan.storm_window_ids(0.0)


# --------------------------------------------------------------------------- #
# plan compilation (pure units)
# --------------------------------------------------------------------------- #
class TestPlanCompilation:
    def test_poison_selection_inside_window(self, trace):
        plan = build_storm_plan(trace, poison_storm())
        assert plan.expected_failed
        assert plan.trace_digest == trace.digest()
        for seq in plan.expected_failed:
            assert 120.0 <= trace.arrival_s[seq] < 300.0

    def test_tenant_scoping(self, trace):
        plan = build_storm_plan(
            trace, poison_storm(rate=1.0, tenants=("m4",))
        )
        m4 = trace.tenant_names().index("m4")
        assert plan.expected_failed
        assert all(
            trace.tenant_id[seq] == m4 for seq in plan.expected_failed
        )

    def test_rate_one_poisons_the_whole_window(self, trace):
        plan = build_storm_plan(trace, poison_storm(rate=1.0))
        in_window = [
            i
            for i in range(len(trace))
            if 120.0 <= trace.arrival_s[i] < 300.0
        ]
        assert list(plan.expected_failed) == in_window

    def test_window_arithmetic(self, trace):
        plan = build_storm_plan(trace, poison_storm())
        assert plan.phase_windows() == ((120.0, 300.0),)
        # [120, 300) over 150 s windows touches ids 0 and 1 only
        assert plan.storm_window_ids(150.0) == frozenset({0, 1})
        assert plan.in_storm(120.0)
        assert plan.in_storm(299.0)
        assert not plan.in_storm(300.0)
        assert not plan.in_storm(0.0)

    def test_brownout_is_transient_and_budgeted(self, trace):
        storm = StormSpec(
            phases=(
                StormPhase(
                    kind="brownout", onset_s=0.0, duration_s=600.0, budget=3
                ),
            ),
        )
        plan = build_storm_plan(trace, storm)
        assert plan.expected_failed == ()  # brown-outs never lose requests
        (spec,) = plan.faults.specs
        assert spec.site == "backend.turbo"
        assert spec.fail_attempts == 1
        assert spec.max_fires == 3

    def test_crash_phase_targets_workers_and_leaves_poison_alone(
        self, trace
    ):
        poison = poison_storm().phases
        crash = StormPhase(kind="crash", workers=(0, 1), budget=2)
        alone = build_storm_plan(trace, poison_storm())
        plan = build_storm_plan(
            trace, StormSpec(storm_seed=5, phases=(*poison, crash))
        )
        # a crash loses no request: the poison set is the poison
        # phase's alone
        assert plan.expected_failed == alone.expected_failed
        (spec,) = [s for s in plan.faults.specs if s.site == "worker.loop"]
        assert spec.kind == "crash"
        assert spec.keys == (0, 1)
        assert spec.max_fires == 2

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        onset=st.floats(0.0, 590.0, allow_nan=False),
        duration=st.floats(1.0, 600.0, allow_nan=False),
        rate=st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_plan_is_pure_and_contained(self, seed, onset, duration, rate):
        """Property: compiling a storm is deterministic, and every
        expected failure is a request arriving inside the window."""
        spec = TraceSpec(
            seed=3,
            n_requests=120,
            horizon_s=600.0,
            tenants=(TenantSpec(name="m4", model="tiny-chain-2"),),
        )
        tr = generate_trace(spec)
        storm = poison_storm(
            seed=seed, rate=rate, onset=onset, duration=duration
        )
        a = build_storm_plan(tr, storm)
        b = build_storm_plan(tr, storm)
        assert a.expected_failed == b.expected_failed
        assert a.faults.specs == b.faults.specs
        assert list(a.expected_failed) == sorted(set(a.expected_failed))
        for seq in a.expected_failed:
            assert onset <= tr.arrival_s[seq] < onset + duration
        if rate == 1.0:
            in_window = sum(
                1
                for i in range(len(tr))
                if onset <= tr.arrival_s[i] < onset + duration
            )
            assert len(a.expected_failed) == in_window


# --------------------------------------------------------------------------- #
# chaos replays
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def plan(trace):
    return build_storm_plan(trace, poison_storm())


@pytest.fixture(scope="module")
def stormy(trace, fleet, plan):
    return run(trace, fleet, plan)


@pytest.fixture(scope="module")
def baseline(trace, fleet):
    return run(trace, fleet)


class TestChaosReplay:
    def test_failed_set_matches_the_preview_exactly(self, plan, stormy):
        assert stormy.failed_indices() == plan.expected_failed
        assert stormy.balanced
        counts = stormy.outcome_counts()
        assert counts["failed"] == len(plan.expected_failed)
        assert counts["shed"] == counts["rejected"] == 0

    def test_nonpoisoned_outputs_bit_exact_vs_baseline(
        self, baseline, stormy
    ):
        base = {r.index: r.output_digest for r in baseline.records}
        checked = 0
        for rec in stormy.records:
            if rec.outcome == "completed":
                assert rec.output_digest == base[rec.index]
                checked += 1
        assert checked == stormy.completed

    def test_failed_set_invariant_under_dilation(
        self, trace, fleet, plan, stormy
    ):
        faster = run(trace, fleet, plan, dilation=6000.0)
        assert faster.failed_indices() == stormy.failed_indices()
        assert faster.outputs_digest() == stormy.outputs_digest()

    @pytest.mark.parametrize("workers", [1, 3])
    def test_failed_set_invariant_across_worker_counts(
        self, trace, fleet, plan, stormy, workers
    ):
        other = run(trace, fleet, plan, workers=workers)
        assert other.failed_indices() == stormy.failed_indices()
        assert other.outputs_digest() == stormy.outputs_digest()

    def test_keep_outputs_false_streams_histograms(
        self, trace, fleet, plan, stormy
    ):
        lean = run(trace, fleet, plan, keep_outputs=False)
        # million-request mode: no tensors kept, digest fold unchanged
        assert all(r.output is None for r in lean.records)
        assert lean.outputs_digest() == stormy.outputs_digest()
        assert lean.failed_indices() == stormy.failed_indices()
        windows = lean.telemetry.merged("tenant")
        assert windows
        for w in windows.values():
            assert w.latency_hist is not None
            # quantiles come off the histogram, not raw samples
            assert w.latency_quantile(0.95) >= 0.0

    @settings(max_examples=4, deadline=None)
    @given(storm_seed=st.integers(min_value=0, max_value=2**16))
    def test_replay_determinism_property(
        self, trace, fleet, storm_seed
    ):
        """Satellite property: the failed set is a pure function of
        ``(trace_seed, storm_seed)`` — identical across dilations."""
        p = build_storm_plan(trace, poison_storm(seed=storm_seed, rate=0.1))
        slow = run(trace, fleet, p, dilation=2000.0)
        fast = run(trace, fleet, p, dilation=8000.0)
        assert slow.failed_indices() == p.expected_failed
        assert fast.failed_indices() == p.expected_failed
        assert slow.outputs_digest() == fast.outputs_digest()
