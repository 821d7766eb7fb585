"""Wire protocol between the sharded front-end and its shard processes.

Every message crossing a shard pipe is one of the small picklable types
below.  The protocol is deliberately tiny — three parent→shard messages,
five shard→parent events — because everything interesting already lives
in the types the single-process service defined
(:class:`~repro.service.OptimizeRequest` /
:class:`~repro.service.OptimizeResponse`): the wire layer's only job is
to move them across a ``multiprocessing`` pipe **without dropping
detail**.

Response envelopes carry a real
:class:`~repro.resilience.optimizer.ResilientResult`, trimmed by
:func:`strip_response` of exactly two fields that cannot (and should
not) cross a process boundary:

* ``result.context`` — the per-query :class:`OptimizationContext` holds
  builder/provider machinery and, when telemetry is armed, thread locks;
* ``result.exact`` — the exact-rung envelope references the same
  context.

Everything else — the plan, cost, elapsed time, the full
:class:`~repro.resilience.optimizer.DegradationReport` (rung attempts,
budget, cost gap), optimizer counters, the query, injected-fault tallies
and breaker traces — survives the pipe bit-for-bit, and
``tests/service/test_wire.py`` walks the dataclass fields so a future
field cannot silently go missing.

Parent → shard:
    :class:`~repro.service.OptimizeRequest` (the request envelope itself,
    with the *remaining* deadline), :class:`DrainCommand`,
    :class:`ShutdownCommand`.

Shard → parent:
    :class:`Hello`, :class:`Heartbeat`, :class:`WireResponse`,
    :class:`WireShed`, :class:`Drained`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List

from repro.service.server import OptimizeResponse

__all__ = [
    "Drained",
    "DrainCommand",
    "Heartbeat",
    "Hello",
    "ShutdownCommand",
    "WireResponse",
    "WireShed",
    "strip_response",
]


# -- parent -> shard --------------------------------------------------------


@dataclass(frozen=True)
class DrainCommand:
    """Finish every outstanding request, report :class:`Drained`, exit."""


@dataclass(frozen=True)
class ShutdownCommand:
    """Stop now; ``drain`` picks between finishing and failing backlog."""

    drain: bool = True


# -- shard -> parent --------------------------------------------------------


@dataclass(frozen=True)
class Hello:
    """First message a shard sends: it is alive and serving."""

    shard_id: int
    pid: int


@dataclass(frozen=True)
class Heartbeat:
    """Periodic liveness beacon plus the shard's local health snapshot.

    ``health`` is the shard's ``ServiceHealth.as_dict()`` (JSON-safe) and
    ``breaker_trace`` its reproducible breaker transition log, so the
    cluster ``healthz()`` can aggregate per-shard breaker state without a
    synchronous round trip.
    """

    shard_id: int
    sequence: int
    health: Dict[str, object] = field(default_factory=dict)
    breaker_trace: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class WireResponse:
    """A completed request: the stripped :class:`OptimizeResponse`."""

    shard_id: int
    request_id: int
    response: OptimizeResponse


@dataclass(frozen=True)
class WireShed:
    """The shard's local admission queue rejected the request.

    The front-end re-routes the request to another shard (or fails it
    honestly with :class:`~repro.errors.ServiceOverloadError` when every
    shard is shedding) — a shed is back-pressure, never a lost request.
    """

    shard_id: int
    request_id: int
    queue_depth: int
    capacity: int


@dataclass(frozen=True)
class Drained:
    """Drain complete: backlog empty, responses flushed, exiting."""

    shard_id: int
    served: int


# ---------------------------------------------------------------------------


def strip_response(response: OptimizeResponse) -> OptimizeResponse:
    """A pickle-safe copy of ``response`` for the wire.

    Only ``result.context`` and ``result.exact`` are dropped (process-
    local machinery, see the module docstring); every serving field and
    the full degradation report cross unchanged.
    """
    result = response.result
    if result is not None and (
        result.context is not None or result.exact is not None
    ):
        result = dataclasses.replace(result, exact=None, context=None)
    return dataclasses.replace(response, result=result)
