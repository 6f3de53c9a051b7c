"""Exception hierarchy for the vMCU reproduction.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without masking programming errors.  The memory
subsystem distinguishes *capacity* failures (the paper's "out of memory" on a
128 KB part) from *race* failures (the "silent error in correctness" of
Section 2.4, which this simulator makes loud).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "MemoryError_",
    "OutOfMemoryError",
    "SegmentRaceError",
    "SegmentStateError",
    "PlanError",
    "InfeasiblePlanError",
    "CompileError",
    "KernelError",
    "ShapeError",
    "IRError",
    "LoweringError",
    "InterpreterError",
    "GraphError",
    "QuantizationError",
    "ServingError",
    "AdmissionError",
    "ConfigError",
    "InjectedFaultError",
    "WorkerCrashError",
    "RequestFailedError",
]


class ReproError(Exception):
    """Base class for every error raised by :mod:`repro`."""


class MemoryError_(ReproError):
    """Base class for simulated-memory failures.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`MemoryError`, which signals host (not simulated) exhaustion.
    """


class OutOfMemoryError(MemoryError_):
    """A tensor or plan does not fit in the device's SRAM.

    This is the failure mode the paper reports for TinyEngine on
    STM32-F411RE (Figure 7, cases 1/2/4): the requested footprint exceeds
    the device RAM limit.
    """

    def __init__(self, requested: int, capacity: int, what: str = "allocation"):
        self.requested = int(requested)
        self.capacity = int(capacity)
        self.what = what
        super().__init__(
            f"{what} needs {requested} bytes but device SRAM is {capacity} bytes"
        )


class SegmentRaceError(MemoryError_):
    """A segment was read after being overwritten by a different owner.

    This corresponds to the paper's warning that under-allocating empty
    segments for the output tensor lets output writes "incorrectly replace
    the segments of input tensor, causing silent error in correctness"
    (Section 2.4).  The simulated pool detects the read-after-clobber and
    raises instead of silently corrupting.
    """


class SegmentStateError(MemoryError_):
    """A pool operation violated the segment state machine.

    Examples: loading a slot that was never stored, or freeing a slot twice
    with the same owner.
    """


class PlanError(ReproError):
    """Base class for memory-planning failures."""


class InfeasiblePlanError(PlanError):
    """No base-pointer offset satisfies the Eq. 1 / Eq. 2 constraints."""


class CompileError(PlanError):
    """The model compiler cannot lower a graph to the segment-pool runtime.

    Raised by the lowering/legalization passes with an actionable message:
    which op or block is unsupported, why the runtime cannot express it, and
    what the caller can do about it (restructure the graph, or fall back to
    the scheduling baselines for irregular topologies).
    """


class KernelError(ReproError):
    """A segment-aware kernel was invoked with an invalid configuration."""


class ShapeError(KernelError):
    """Tensor shapes are inconsistent with the operator definition."""


class IRError(ReproError):
    """Base class for compiler (repro.ir) failures."""


class LoweringError(IRError):
    """The code generator met an IR construct it cannot lower to C."""


class InterpreterError(IRError):
    """The IR interpreter met an ill-formed program at run time."""


class GraphError(ReproError):
    """Model-graph construction or shape inference failed."""


class QuantizationError(ReproError):
    """Quantization parameters are invalid (e.g. non-positive scale)."""


class ServingError(ReproError):
    """The serving front-end (dispatcher/queue/session) was misused.

    Raised with an actionable message: what invariant the caller broke
    (serving a mutated model, submitting to a closed dispatcher, an
    unknown tenant, ...) and what to do instead.
    """


class AdmissionError(ServingError):
    """Admission control rejected a request (the queue is at capacity).

    Back-pressure is explicit: callers should retry later, raise the
    dispatcher's ``max_queue_depth``, or add workers — never silently
    drop requests.  Under priority load shedding the error can also land
    on an *already queued* low-priority request that was displaced by
    higher-priority traffic; its waiter sees the same exception.
    """


class ConfigError(ServingError):
    """A declarative fleet/tenant configuration is invalid.

    Raised by :meth:`repro.serving.control.FleetConfig.validate` (and by
    ``Dispatcher.apply_config``) *before* any state is touched, so a bad
    config can never be half-applied to a live dispatcher.
    """


class InjectedFaultError(ReproError):
    """A fault deliberately injected by :mod:`repro.serving.faults`.

    Raised at a named injection point when the active
    :class:`~repro.serving.faults.FaultPlan` says so — never in
    production (the injector is a no-op unless a plan is supplied).
    Carries the site name so resilience tests can assert *which* failure
    mode the serving layer just survived.
    """

    def __init__(self, site: str, message: str = "injected fault"):
        self.site = site
        self.message = message
        super().__init__(f"{message} at injection point {site!r}")

    def __reduce__(self):
        # keeps the exception picklable (for a caller that ships it
        # across processes): the default exception pickling would
        # re-call __init__ with the formatted string as the site
        return (type(self), (self.site, self.message))


class WorkerCrashError(InjectedFaultError):
    """An injected whole-worker crash (``kind="crash"`` faults).

    Deliberately *not* caught by the batch-failure path: it escapes the
    worker loop and kills the worker thread, exactly like an unhandled
    bug would, so the supervisor's detect-and-respawn machinery is
    exercised for real.
    """


class RequestFailedError(ServingError):
    """One request definitively failed after quarantine and retries.

    The dispatcher's poison-request discipline: when a batch faults, the
    member requests are re-run in isolation so only the offending
    ticket(s) receive this error — innocent co-batched requests still
    succeed.  ``__cause__`` carries the final underlying exception;
    ``tenant``/``request_seq``/``attempts`` identify what was tried.
    """

    def __init__(
        self,
        tenant: str,
        request_seq: int,
        attempts: int,
        cause: BaseException | None = None,
        detail: str = "",
    ):
        self.tenant = tenant
        self.request_seq = request_seq
        self.attempts = attempts
        extra = f" ({detail})" if detail else ""
        super().__init__(
            f"request {request_seq} ({tenant!r}) failed after "
            f"{attempts} attempt{'s' if attempts != 1 else ''}{extra}: "
            f"{cause!r}"
        )
        self.__cause__ = cause
