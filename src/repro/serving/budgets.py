"""Error budgets and retry budgets: availability as a first-class gate.

Two complementary budgets close the availability loop the chaos-storm
replays open:

* :class:`RetryBudget` — an admission-filled token bucket capping the
  *fleet-wide* retry ratio.  Every admitted request deposits
  ``ratio`` tokens; every retry beyond the mandatory quarantine
  isolation run withdraws one.  Under a storm this is the difference
  between a bounded availability dip and retry amplification collapse:
  no matter how many requests are poisoned, retries can never exceed
  ``burst + ratio x admitted``.  Deliberately clock-free — the bucket
  fills with *work*, not time — so a dilated replay budgets identically
  at any speed and the grant/deny sequence is deterministic.
* :class:`ErrorBudget` + :func:`availability_report` — per-window
  availability (success ratio vs admitted) graded against an SLO
  target, expressed as a *burn rate* (1.0 = exactly consuming the
  budget; >1 = alert), with storm windows separable so a chaos eval
  can demand steady-state availability outside the storm and bounded
  burn inside it.
* :func:`repair_metrics` — MTTR/MTBF derived from the dispatcher's
  audit trail (crash / degrade / restore events), the
  classic reliability pair production reviews ask for.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.fleet.telemetry import WindowedTelemetry
    from repro.serving.control import ConfigChange

__all__ = [
    "RetryBudget",
    "ErrorBudget",
    "WindowAvailability",
    "AvailabilityReport",
    "RepairMetrics",
    "availability_report",
    "repair_metrics",
]


class RetryBudget:
    """Admission-filled token bucket bounding fleet-wide retries.

    ``allow()`` grants iff ``granted < burst + ratio x admitted`` —
    a pure function of the admission/grant history, so a seeded replay
    reproduces the exact same grant/deny sequence at any dilation or
    worker count.  Thread-safe; counters survive reconfiguration
    (:meth:`reconfigure` swaps the knobs, never the history).
    """

    def __init__(self, ratio: float = 0.1, burst: int = 8):
        self._validate(ratio, burst)
        self._lock = threading.Lock()
        self._ratio = float(ratio)
        self._burst = int(burst)
        self._admitted = 0
        self._granted = 0
        self._denied = 0

    @staticmethod
    def _validate(ratio: float, burst: int) -> None:
        if not (0.0 <= ratio <= 1.0):
            raise ConfigError(
                f"retry budget ratio must be in [0, 1], got {ratio}"
            )
        if burst < 0:
            raise ConfigError(
                f"retry budget burst must be >= 0, got {burst}"
            )

    def reconfigure(self, ratio: float, burst: int) -> None:
        """Adopt new knobs, preserving the admission/grant history."""
        self._validate(ratio, burst)
        with self._lock:
            self._ratio = float(ratio)
            self._burst = int(burst)

    def note_admitted(self, n: int = 1) -> None:
        """Deposit: ``n`` requests were admitted."""
        with self._lock:
            self._admitted += n

    def allow(self) -> bool:
        """Withdraw one retry token if the budget permits."""
        with self._lock:
            if self._granted < self._burst + self._ratio * self._admitted:
                self._granted += 1
                return True
            self._denied += 1
            return False

    @property
    def snapshot(self) -> Mapping[str, float]:
        """Counters + knobs (a consistent point-in-time copy)."""
        with self._lock:
            return {
                "ratio": self._ratio,
                "burst": self._burst,
                "admitted": self._admitted,
                "granted": self._granted,
                "denied": self._denied,
            }


@dataclass(frozen=True)
class ErrorBudget:
    """An availability SLO expressed as a budget.

    ``slo=0.995`` means 0.5% of admitted requests per window may fail
    before the window burns more than its budget (burn rate > 1).
    """

    slo: float = 0.995

    def validate(self) -> None:
        if not (0.0 < self.slo < 1.0):
            raise ConfigError(
                f"availability SLO must be in (0, 1), got {self.slo}"
            )

    @property
    def budget(self) -> float:
        """The allowed unavailability per window (``1 - slo``)."""
        return 1.0 - self.slo

    def burn_rate(self, availability: float) -> float:
        """How fast a window consumes its budget (1.0 = exactly)."""
        return (1.0 - availability) / self.budget


@dataclass(frozen=True)
class WindowAvailability:
    """Availability of one (window, group) bucket vs the budget."""

    window: int
    group: str
    admitted: int
    completed: int
    failed: int
    shed: int
    availability: float
    burn_rate: float
    #: True when the window burned more than its whole budget
    alert: bool
    #: True when the caller marked this window as inside a storm
    in_storm: bool = False


@dataclass(frozen=True)
class AvailabilityReport:
    """The fleet-wide error-budget report for one replay/run."""

    budget: ErrorBudget
    windows: tuple[WindowAvailability, ...] = field(repr=False)
    mttr_s: float | None = None
    mtbf_s: float | None = None

    def _ratio(self, rows: Sequence[WindowAvailability]) -> float | None:
        admitted = sum(w.admitted for w in rows)
        if admitted == 0:
            return None
        ok = sum(w.completed for w in rows)
        return ok / admitted

    @property
    def overall_availability(self) -> float | None:
        """Admitted-weighted availability across every window."""
        return self._ratio(self.windows)

    @property
    def steady_availability(self) -> float | None:
        """Availability over the windows *outside* any storm."""
        return self._ratio([w for w in self.windows if not w.in_storm])

    @property
    def storm_availability(self) -> float | None:
        """Availability over the windows *inside* a storm."""
        return self._ratio([w for w in self.windows if w.in_storm])

    @property
    def worst_window(self) -> WindowAvailability | None:
        if not self.windows:
            return None
        return min(self.windows, key=lambda w: w.availability)

    @property
    def alerts(self) -> tuple[WindowAvailability, ...]:
        """Windows that burned past their budget, worst first."""
        return tuple(
            sorted(
                (w for w in self.windows if w.alert),
                key=lambda w: -w.burn_rate,
            )
        )

    def summary(self) -> str:
        """One-line report for tables and audit trails."""

        def pct(x: float | None) -> str:
            return "n/a" if x is None else f"{100.0 * x:.3f}%"

        def secs(x: float | None) -> str:
            return "n/a" if x is None else f"{x:.3f}s"

        return (
            f"slo {100.0 * self.budget.slo:.2f}%, "
            f"overall {pct(self.overall_availability)}, "
            f"steady {pct(self.steady_availability)}, "
            f"storm {pct(self.storm_availability)}, "
            f"{len(self.alerts)} alert(s), "
            f"mttr {secs(self.mttr_s)}, mtbf {secs(self.mtbf_s)}"
        )


def availability_report(
    telemetry: "WindowedTelemetry",
    *,
    budget: ErrorBudget | None = None,
    view: str = "tenant",
    storm_windows: Iterable[int] = (),
    audit: Sequence["ConfigChange"] = (),
    horizon_s: float | None = None,
) -> AvailabilityReport:
    """Grade a replay's windowed telemetry against an error budget.

    ``storm_windows`` marks window ids (any group) as inside a storm so
    the report can split steady-state availability from in-storm burn.
    ``audit`` (the dispatcher's :class:`ConfigChange` trail) feeds the
    MTTR/MTBF derivation; ``horizon_s`` bounds MTBF when the run had
    fewer than two failures.
    """
    budget = budget or ErrorBudget()
    budget.validate()
    storm = frozenset(storm_windows)
    source = (
        telemetry.per_tenant()
        if view == "tenant"
        else telemetry.per_device_class()
    )
    rows: list[WindowAvailability] = []
    for (window, group), stats in sorted(source.items()):
        admitted = stats.completed + stats.failed + stats.shed
        if admitted == 0:
            continue
        availability = stats.completed / admitted
        burn = budget.burn_rate(availability)
        rows.append(
            WindowAvailability(
                window=window,
                group=group,
                admitted=admitted,
                completed=stats.completed,
                failed=stats.failed,
                shed=stats.shed,
                availability=availability,
                burn_rate=burn,
                alert=burn > 1.0,
                in_storm=window in storm,
            )
        )
    repair = repair_metrics(audit, horizon_s=horizon_s)
    return AvailabilityReport(
        budget=budget,
        windows=tuple(rows),
        mttr_s=repair.mttr_s,
        mtbf_s=repair.mtbf_s,
    )


# --------------------------------------------------------------------------- #
# MTTR / MTBF from the audit trail
# --------------------------------------------------------------------------- #
#: audit kinds that mark a failure onset
_FAILURE_KINDS = frozenset({"crash", "degrade"})


@dataclass(frozen=True)
class RepairMetrics:
    """MTTR/MTBF derived from the dispatcher audit trail.

    MTTR pairs each ``degrade`` with the next ``restore`` of the same
    :attr:`ConfigChange.tenant` (the only failure class whose recovery
    is a *separate* audited event — crash respawns are logged at
    recovery time, repair already done).  MTBF is the mean gap between
    consecutive failure-onset events of any kind; with fewer than two
    failures it falls back to ``horizon_s`` over the failure count.
    """

    failures: int = 0
    repairs: int = 0
    mttr_s: float | None = None
    mtbf_s: float | None = None


def repair_metrics(
    audit: Sequence["ConfigChange"], *, horizon_s: float | None = None
) -> RepairMetrics:
    """Derive :class:`RepairMetrics` from an audit trail (oldest first)."""
    failures: list[float] = []
    repairs = 0
    open_degrades: dict[str | None, list[float]] = {}
    repair_spans: list[float] = []
    for change in audit:
        if change.kind in _FAILURE_KINDS:
            failures.append(change.at_s)
            if change.kind == "degrade":
                open_degrades.setdefault(change.tenant, []).append(
                    change.at_s
                )
            else:
                # crash records land at recovery time: the repair is
                # already done, observable repair span ~ 0
                repairs += 1
        elif change.kind == "restore":
            pending = open_degrades.get(change.tenant)
            if pending:
                repair_spans.append(change.at_s - pending.pop(0))
                repairs += 1
    mttr = (
        sum(repair_spans) / len(repair_spans) if repair_spans else None
    )
    mtbf: float | None = None
    if len(failures) >= 2:
        mtbf = (failures[-1] - failures[0]) / (len(failures) - 1)
    elif failures and horizon_s is not None:
        mtbf = horizon_s / len(failures)
    return RepairMetrics(
        failures=len(failures),
        repairs=repairs,
        mttr_s=mttr,
        mtbf_s=mtbf,
    )
