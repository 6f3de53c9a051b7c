"""Seeded chaos storms compiled onto a trace.

PR 7 made individual faults expressible (:mod:`repro.serving.faults`)
and PR 8 made a fleet replayable (:mod:`repro.fleet.replay`); this
module composes the two.  A :class:`StormSpec` is a *declarative,
phased* description of a fault storm in trace virtual time — request
poison over an onset/duration window, worker crashes, backend
brown-outs — and :func:`build_storm_plan` compiles it against a
concrete :class:`~repro.fleet.trace.Trace` into:

* a :class:`~repro.serving.faults.FaultPlan` the replay harness hands
  to the dispatcher, and
* an exact **preview** of the request seqs expected to fail
  (:attr:`StormPlan.expected_failed`), plus the virtual-time windows
  the storm occupies (:meth:`StormPlan.storm_window_ids`).

Because replay submits requests single-threaded in trace order, a
request's dispatcher seq equals its trace index — so phase windows map
directly onto ``trace.arrival_s`` and every per-request decision is a
pure :func:`~repro.serving.faults.stable_uniform` draw over
``(storm_seed, phase, seq)``.  A chaos replay is therefore a pure
function of ``(trace_seed, storm_seed)``: the same failed-request set
falls out across dilations and worker counts, which is exactly what the
availability gates assert.

Phase kinds and their fault mapping:

``"poison"``
    Permanent ``"dispatch.request"`` errors on a seeded subset of the
    requests arriving inside the window (selection probability
    ``rate``).  These are the *only* requests a storm expects to fail.
``"brownout"``
    Transient ``"backend.turbo"`` errors (``fail_attempts=1``, capped
    by ``budget``) keyed to in-window requests: batches fail, the
    breaker trips and degrades, quarantine re-runs succeed — no
    request is lost, availability dips only via added latency.
``"crash"``
    ``"worker.loop"`` crashes against the targeted worker ids (capped
    by ``budget``).  Worker crashes cannot be time-gated — the site
    fires on the worker's next loop pass — so ``onset_s`` is advisory
    for this kind; the supervisor respawns and no ticket is lost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.fleet.trace import Trace
from repro.serving.faults import FaultPlan, FaultSpec, stable_uniform

__all__ = [
    "PHASE_KINDS",
    "StormPhase",
    "StormSpec",
    "StormPlan",
    "build_storm_plan",
]

#: the phase kinds a storm may compose
PHASE_KINDS = ("poison", "crash", "brownout")


@dataclass(frozen=True)
class StormPhase:
    """One phase of a storm: a fault kind over an absolute time window.

    Attributes
    ----------
    kind:
        One of :data:`PHASE_KINDS`.
    onset_s:
        Virtual-time start of the phase (seconds into the trace).
    duration_s:
        Virtual-time length of the phase window.
    rate:
        Selection probability for ``"poison"`` — each in-window request
        is poisoned iff its seeded draw falls below ``rate``.
    tenants:
        Restrict the phase to these tenant names (``None`` = all).
    workers:
        Worker ids a ``"crash"`` phase targets.
    budget:
        ``max_fires`` cap for ``crash`` / ``brownout``
        — the storm clears on its own after this many fires.
    """

    kind: str
    onset_s: float = 0.0
    duration_s: float = float("inf")
    rate: float = 1.0
    tenants: tuple[str, ...] | None = None
    workers: tuple[int, ...] = (0,)
    budget: int = 1

    def validate(self) -> None:
        if self.kind not in PHASE_KINDS:
            raise ConfigError(
                f"unknown storm phase kind {self.kind!r}; "
                f"use one of {PHASE_KINDS}"
            )
        if self.onset_s < 0:
            raise ConfigError(f"onset_s must be >= 0, got {self.onset_s}")
        if self.duration_s <= 0:
            raise ConfigError(
                f"duration_s must be positive, got {self.duration_s}"
            )
        if not (0.0 <= self.rate <= 1.0):
            raise ConfigError(f"rate must be in [0, 1], got {self.rate}")
        if self.budget <= 0:
            raise ConfigError(f"budget must be positive, got {self.budget}")
        if self.kind == "crash" and not self.workers:
            raise ConfigError("a crash phase needs at least one worker id")

    @property
    def end_s(self) -> float:
        return self.onset_s + self.duration_s


@dataclass(frozen=True)
class StormSpec:
    """A seed plus the phases — the whole declarative storm.

    Two storms with the same ``(storm_seed, phases)`` compile to the
    same :class:`FaultPlan` against the same trace, always.
    """

    storm_seed: int = 0
    phases: tuple[StormPhase, ...] = field(default_factory=tuple)

    def validate(self) -> None:
        if not self.phases:
            raise ConfigError("a storm needs at least one phase")
        for phase in self.phases:
            if not isinstance(phase, StormPhase):
                raise ConfigError(
                    f"StormSpec.phases expects StormPhase entries, "
                    f"got {type(phase).__name__}"
                )
            phase.validate()


@dataclass(frozen=True)
class StormPlan:
    """The compiled storm: the fault plan plus its exact consequences.

    Attributes
    ----------
    storm:
        The spec this plan was compiled from.
    faults:
        The :class:`FaultPlan` to hand to ``replay(..., faults=...)``.
    expected_failed:
        Sorted request seqs the storm poisons — the *only* requests
        allowed to fail; the containment oracle.
    trace_digest:
        Digest of the trace the plan was compiled against (a plan is
        only valid for that trace).
    horizon_s:
        The trace horizon, for window bookkeeping.
    """

    storm: StormSpec
    faults: FaultPlan
    expected_failed: tuple[int, ...]
    trace_digest: str
    horizon_s: float

    def phase_windows(self) -> tuple[tuple[float, float], ...]:
        """The (start, end) virtual-time windows the storm occupies."""
        return tuple(
            (p.onset_s, min(p.end_s, self.horizon_s))
            for p in self.storm.phases
        )

    def storm_window_ids(self, window_s: float) -> frozenset[int]:
        """Telemetry-window ids overlapping any phase window.

        The availability gate excludes these windows from the
        steady-state SLO and bounds burn *inside* them instead.
        """
        if window_s <= 0:
            raise ConfigError(f"window_s must be positive, got {window_s}")
        ids: set[int] = set()
        for start, end in self.phase_windows():
            first = int(start // window_s)
            last = int(max(start, end - 1e-9) // window_s)
            ids.update(range(first, last + 1))
        return frozenset(ids)

    def in_storm(self, virtual_s: float) -> bool:
        """Whether a virtual instant falls inside any phase window."""
        return any(
            start <= virtual_s < end for start, end in self.phase_windows()
        )


def _window_seqs(trace: Trace, phase: StormPhase) -> np.ndarray:
    """Request seqs (== trace indices) arriving inside the phase window."""
    mask = (trace.arrival_s >= phase.onset_s) & (
        trace.arrival_s < phase.end_s
    )
    if phase.tenants is not None:
        names = trace.tenant_names()
        wanted = {names.index(t) for t in phase.tenants if t in names}
        if len(wanted) != len(phase.tenants):
            missing = set(phase.tenants) - set(names)
            raise ConfigError(
                f"storm phase names unknown tenants {sorted(missing)}"
            )
        mask &= np.isin(trace.tenant_id, list(wanted))
    return np.nonzero(mask)[0]


def build_storm_plan(trace: Trace, storm: StormSpec) -> StormPlan:
    """Compile ``storm`` against ``trace`` into a :class:`StormPlan`.

    Pure function: same ``(trace, storm)`` in, same plan out — every
    poisoned-request choice is a :func:`stable_uniform` draw over
    ``(storm_seed, "storm.poison", phase_index, seq)``.
    """
    storm.validate()

    poisoned: set[int] = set()
    specs: list[FaultSpec] = []
    for p, phase in enumerate(storm.phases):
        if phase.kind == "poison":
            keys = tuple(
                int(s)
                for s in _window_seqs(trace, phase)
                if stable_uniform(storm.storm_seed, "storm.poison", p, int(s))
                < phase.rate
            )
            poisoned.update(keys)
            if keys:
                specs.append(
                    FaultSpec(
                        site="dispatch.request",
                        kind="error",
                        keys=keys,
                        tenants=phase.tenants,
                        message=f"storm poison phase {p}",
                    )
                )
        elif phase.kind == "crash":
            specs.append(
                FaultSpec(
                    site="worker.loop",
                    kind="crash",
                    keys=tuple(phase.workers),
                    max_fires=phase.budget,
                    message=f"storm crash phase {p}",
                )
            )
        elif phase.kind == "brownout":
            seqs = _window_seqs(trace, phase)
            if len(seqs):
                specs.append(
                    FaultSpec(
                        site="backend.turbo",
                        kind="error",
                        keys=tuple(int(s) for s in seqs),
                        tenants=phase.tenants,
                        fail_attempts=1,
                        max_fires=phase.budget,
                        message=f"storm brownout phase {p}",
                    )
                )

    return StormPlan(
        storm=storm,
        faults=FaultPlan(seed=storm.storm_seed, specs=tuple(specs)),
        expected_failed=tuple(sorted(poisoned)),
        trace_digest=trace.digest(),
        horizon_s=trace.horizon_s,
    )
