"""Budget-layer units: retry budget, error budget, MTTR/MTBF, reports.

All pure units — no dispatcher, no threads.  The budget semantics that
matter for storm determinism are pinned here: the retry bucket fills
with *admissions* (work), never time; reconfiguration swaps knobs but
preserves history (a mid-storm config push must not mint a fresh burst
allowance); and the availability report splits steady-state windows
from storm windows so chaos evals can gate them separately.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.fleet.telemetry import WindowedTelemetry
from repro.serving import (
    ErrorBudget,
    RetryBudget,
    availability_report,
    repair_metrics,
)
from repro.serving.control import ConfigChange


# --------------------------------------------------------------------------- #
# retry budget
# --------------------------------------------------------------------------- #
class TestRetryBudget:
    def test_validation(self):
        with pytest.raises(ConfigError, match="ratio"):
            RetryBudget(ratio=1.5)
        with pytest.raises(ConfigError, match="ratio"):
            RetryBudget(ratio=-0.1)
        with pytest.raises(ConfigError, match="burst"):
            RetryBudget(burst=-1)
        with pytest.raises(ConfigError, match="ratio"):
            RetryBudget().reconfigure(2.0, 4)

    def test_burst_only_before_any_admission(self):
        budget = RetryBudget(ratio=0.5, burst=3)
        assert [budget.allow() for _ in range(5)] == [
            True, True, True, False, False,
        ]
        snap = budget.snapshot
        assert snap["granted"] == 3
        assert snap["denied"] == 2

    def test_admissions_fill_the_bucket(self):
        budget = RetryBudget(ratio=0.1, burst=0)
        assert not budget.allow()
        budget.note_admitted(10)  # deposits 1.0 token
        assert budget.allow()
        assert not budget.allow()
        budget.note_admitted(25)  # capacity 3.5 total, 1 granted so far
        assert budget.allow()
        assert budget.allow()
        assert budget.allow()  # granted 3 < 3.5 still grants
        assert not budget.allow()

    def test_grant_sequence_is_a_pure_function_of_history(self):
        # the storm-determinism property: same admission/grant order in,
        # same grant/deny sequence out — no clock anywhere
        def drive(budget):
            out = []
            for i in range(30):
                budget.note_admitted(2)
                if i % 3 == 0:
                    out.append(budget.allow())
            return out

        assert drive(RetryBudget(0.1, 2)) == drive(RetryBudget(0.1, 2))

    def test_reconfigure_preserves_counters(self):
        budget = RetryBudget(ratio=0.0, burst=2)
        assert budget.allow() and budget.allow()
        assert not budget.allow()
        # a mid-storm config push must not refill the spent burst
        budget.reconfigure(0.0, 2)
        assert not budget.allow()
        # raising the knobs extends the same history, not a fresh bucket
        budget.reconfigure(0.0, 3)
        assert budget.allow()
        assert not budget.allow()
        snap = budget.snapshot
        assert snap["granted"] == 3
        assert snap["denied"] == 3

    def test_zero_ratio_zero_burst_denies_everything(self):
        budget = RetryBudget(ratio=0.0, burst=0)
        budget.note_admitted(1000)
        assert not budget.allow()


# --------------------------------------------------------------------------- #
# error budget
# --------------------------------------------------------------------------- #
class TestErrorBudget:
    def test_validation(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ConfigError, match="SLO"):
                ErrorBudget(slo=bad).validate()
        ErrorBudget(slo=0.995).validate()

    def test_budget_and_burn(self):
        budget = ErrorBudget(slo=0.995)
        assert budget.budget == pytest.approx(0.005)
        assert budget.burn_rate(1.0) == pytest.approx(0.0)
        # exactly consuming the budget burns at 1.0
        assert budget.burn_rate(0.995) == pytest.approx(1.0)
        assert budget.burn_rate(0.95) == pytest.approx(10.0)


# --------------------------------------------------------------------------- #
# availability report
# --------------------------------------------------------------------------- #
def _telemetry():
    """Window 0 clean, window 1 burning, window 2 shed-only."""
    t = WindowedTelemetry(10.0)
    for i in range(8):
        t.observe_completed(
            arrival_virtual_s=float(i),
            tenant="a",
            device_class="M4",
            latency_s=0.01,
            queue_wait_s=0.0,
            deadline_met=True,
            batch_id=(0, i, i),
            batch_service_s=0.01,
            batch_size=1,
        )
    for i in range(6):
        t.observe_completed(
            arrival_virtual_s=12.0 + i,
            tenant="a",
            device_class="M4",
            latency_s=0.01,
            queue_wait_s=0.0,
            deadline_met=True,
            batch_id=(0, 100 + i, 100 + i),
            batch_service_s=0.01,
            batch_size=1,
        )
    t.observe_failed(arrival_virtual_s=13.0, tenant="a", device_class="M4")
    t.observe_failed(arrival_virtual_s=14.0, tenant="a", device_class="M4")
    t.observe_shed(arrival_virtual_s=25.0, tenant="a", device_class="M4")
    return t


class TestAvailabilityReport:
    def test_per_window_math(self):
        report = availability_report(_telemetry())
        by_window = {w.window: w for w in report.windows}
        assert by_window[0].availability == pytest.approx(1.0)
        assert not by_window[0].alert
        w1 = by_window[1]
        assert w1.admitted == 8
        assert w1.availability == pytest.approx(6 / 8)
        assert w1.burn_rate == pytest.approx((2 / 8) / 0.005)
        assert w1.alert
        # shed counts against availability: turned-away work is not served
        assert by_window[2].availability == pytest.approx(0.0)

    def test_storm_split(self):
        report = availability_report(_telemetry(), storm_windows={1, 2})
        assert report.steady_availability == pytest.approx(1.0)
        assert report.storm_availability == pytest.approx(6 / 9)
        assert report.overall_availability == pytest.approx(14 / 17)
        assert report.worst_window.window == 2
        assert [w.window for w in report.alerts] == [2, 1]
        assert all(w.in_storm for w in report.alerts)

    def test_device_view_and_summary(self):
        report = availability_report(_telemetry(), view="device")
        assert {w.group for w in report.windows} == {"M4"}
        assert "slo 99.50%" in report.summary()

    def test_empty_telemetry(self):
        report = availability_report(WindowedTelemetry(10.0))
        assert report.windows == ()
        assert report.overall_availability is None
        assert report.worst_window is None


# --------------------------------------------------------------------------- #
# MTTR / MTBF from the audit trail
# --------------------------------------------------------------------------- #
def change(kind, at_s, *summary, tenant=None):
    return ConfigChange(
        epoch=0, at_s=at_s, kind=kind, summary=summary, tenant=tenant
    )


class TestRepairMetrics:
    def test_empty_audit(self):
        m = repair_metrics(())
        assert m.failures == 0
        assert m.mttr_s is None and m.mtbf_s is None

    def test_degrade_restore_pairing(self):
        m = repair_metrics((
            change("degrade", 1.0, "degraded turbo -> fast", tenant="a"),
            change("restore", 3.0, "restored to turbo", tenant="a"),
            change("degrade", 10.0, "degraded turbo -> fast", tenant="b"),
            change("restore", 14.0, "restored to turbo", tenant="b"),
        ))
        assert m.failures == 2
        assert m.repairs == 2
        assert m.mttr_s == pytest.approx((2.0 + 4.0) / 2)
        assert m.mtbf_s == pytest.approx(9.0)

    def test_pairing_is_per_tenant_fifo(self):
        m = repair_metrics((
            change("degrade", 0.0, "degraded", tenant="a"),
            change("degrade", 1.0, "degraded", tenant="b"),
            change("restore", 5.0, "restored", tenant="b"),
            change("restore", 6.0, "restored", tenant="a"),
        ))
        assert m.mttr_s == pytest.approx((4.0 + 6.0) / 2)

    def test_restore_pairs_only_its_own_tenant(self):
        """The tenant comes from the record's field, never its text."""
        m = repair_metrics((
            change("degrade", 0.0, "tenant 'b' degraded", tenant="a"),
            change("degrade", 5.0, "tenant 'a' degraded", tenant="b"),
            change("restore", 6.0, "tenant 'a' restored", tenant="b"),
        ))
        assert (m.failures, m.repairs) == (2, 1)
        assert m.mttr_s == pytest.approx(1.0)

    def test_unmatched_restore_ignored(self):
        m = repair_metrics((
            change("restore", 5.0, "restored", tenant="a"),
        ))
        assert m.failures == 0 and m.repairs == 0
        assert m.mttr_s is None

    def test_crashes_are_instant_repairs(self):
        m = repair_metrics((
            change("crash", 2.0, "worker 0 crashed; respawned"),
            change("crash", 6.0, "worker 1 crashed; respawned"),
        ))
        assert m.failures == 2
        assert m.repairs == 2
        assert m.mttr_s is None  # no separately-audited repair spans
        assert m.mtbf_s == pytest.approx(4.0)

    def test_single_failure_falls_back_to_horizon(self):
        m = repair_metrics(
            (change("crash", 2.0, "worker 0 crashed"),), horizon_s=30.0
        )
        assert m.mtbf_s == pytest.approx(30.0)
        assert repair_metrics(
            (change("crash", 2.0, "worker 0 crashed"),)
        ).mtbf_s is None
