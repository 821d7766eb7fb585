"""Exception hierarchy for the repro library.

Every error raised intentionally by this package derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors such as ``TypeError``.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "DisconnectedGraphError",
    "CatalogError",
    "OptimizationError",
    "UnknownAlgorithmError",
    "BudgetExceeded",
    "InjectedFaultError",
    "ResilienceError",
    "ServiceError",
    "ServiceOverloadError",
    "ServiceShutdownError",
    "CircuitOpenError",
    "RetriesExhaustedError",
    "TelemetryError",
    "StoreError",
    "StoreCorruptionError",
    "StoreEpochError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Raised for structurally invalid query graphs or vertex sets."""


class DisconnectedGraphError(GraphError):
    """Raised when an operation requires a connected (sub)graph."""


class CatalogError(ReproError):
    """Raised for missing or inconsistent statistics in a catalog."""


class OptimizationError(ReproError):
    """Raised when plan generation fails to produce a complete plan."""


class UnknownAlgorithmError(ReproError, KeyError):
    """Raised when an enumerator or pruning strategy name is not registered."""


class BudgetExceeded(OptimizationError):
    """Raised cooperatively when a :class:`repro.resilience.Budget` runs out.

    ``reason`` names the exhausted dimension (``"deadline"`` or
    ``"expansions"``).  The optimizer facade enriches in-flight
    instances with the best complete plan registered so far (``partial_plan``,
    already relabeled into the caller's relation numbering) and the memotable
    size at the point of interruption, so anytime callers can salvage work.
    """

    def __init__(self, reason: str, detail: str = ""):
        message = f"optimization budget exceeded ({reason})"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)
        self.reason = reason
        self.detail = detail
        #: Best complete plan for the root at interruption time, if any.
        self.partial_plan = None
        #: All retained complete root plans at interruption time, cheapest
        #: first — the ranked best-so-far stream (``(partial_plan,)`` at
        #: ``k=1``, empty when nothing was registered).
        self.partial_ranked = ()
        #: Memotable entries at interruption time.
        self.memo_entries = 0


class InjectedFaultError(ReproError):
    """Raised by :class:`repro.resilience.FaultInjector` in ``raise`` mode.

    A distinct type so tests and the degradation ladder can tell injected
    failures from organic optimizer bugs.
    """


class ResilienceError(OptimizationError):
    """Raised when every rung of the degradation ladder failed.

    Carries the :class:`repro.resilience.DegradationReport` describing what
    was attempted and why each rung failed.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ServiceError(ReproError):
    """Base class for errors raised by :mod:`repro.service`."""


class ServiceOverloadError(ServiceError):
    """Raised when the admission queue rejects a request (load shedding).

    Carries the queue state at rejection time so callers (and tests) can
    assert the shedding decision was deterministic: the queue was full,
    with exactly ``queue_depth`` of ``capacity`` slots occupied.
    """

    def __init__(self, queue_depth: int, capacity: int):
        super().__init__(
            f"admission queue full ({queue_depth}/{capacity} requests "
            "queued); request rejected"
        )
        self.queue_depth = queue_depth
        self.capacity = capacity


class ServiceShutdownError(ServiceError):
    """Raised when a request is submitted to (or stranded in) a stopping
    service."""


class CircuitOpenError(ServiceError):
    """Raised when a circuit breaker fast-fails a call to a sick component.

    A *transient* condition: the retry layer backs off and tries again,
    by which time the breaker may have moved to half-open.
    """

    def __init__(self, component: str, retry_after: float):
        super().__init__(
            f"circuit for {component!r} is open; retry in "
            f"{retry_after * 1000:.0f} ms"
        )
        self.component = component
        self.retry_after = retry_after


class RetriesExhaustedError(ServiceError):
    """Raised when every retry attempt failed and no fallback plan exists.

    ``last_error`` preserves the final attempt's failure for diagnosis.
    """

    def __init__(self, attempts: int, last_error=None):
        detail = f": last error: {last_error}" if last_error is not None else ""
        super().__init__(f"all {attempts} attempts failed{detail}")
        self.attempts = attempts
        self.last_error = last_error


class StoreError(ReproError):
    """Raised for durable plan-store failures (write errors, poisoned
    writers, read-only misuse).

    The tiered cache treats every ``StoreError`` as a fail-open signal —
    the request is served from L1/enumeration and only durability is
    lost — so this must never escape :mod:`repro.context.store` callers
    as a request failure.
    """


class StoreCorruptionError(StoreError):
    """Raised when store bytes pass framing but fail to decode.

    Recovery never raises this for on-disk damage (corrupt records are
    quarantined, not propagated); it surfaces only when a CRC-valid
    record is semantically broken — a buggy writer, not a torn disk.
    """


class StoreEpochError(StoreError):
    """Raised when a store's epoch stamp does not match the running
    configuration (cost-model / fingerprint / top-k versioning) — the
    entries are from another world and must not be replayed."""


class TelemetryError(ReproError):
    """Raised for telemetry misuse: bad metric names, type collisions,
    negative counter increments.

    Telemetry must never corrupt an optimization, so these are raised at
    registration/recording time — loudly and early — rather than producing
    a silently wrong exposition.
    """
