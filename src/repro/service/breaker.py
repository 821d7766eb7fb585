"""Per-component circuit breakers (closed / open / half-open).

A :class:`CircuitBreaker` guards one flaky component — in this service the
cost model and the catalog — and implements the classic three-state
machine:

* **closed** — calls flow; ``failure_threshold`` *consecutive* failures
  trip the breaker open;
* **open** — calls fast-fail (:meth:`allow` returns ``False``) for
  ``cooldown_seconds``, taking load off the sick component;
* **half-open** — after the cooldown, up to :data:`HALF_OPEN_PROBES`
  probe calls are admitted; :data:`CLOSE_THRESHOLD` consecutive probe
  successes close the breaker, any probe failure re-opens it.

Two design points make breakers testable and their behaviour replayable:

* the **clock is injectable** (any ``() -> float`` monotonic source), so
  tests drive open→half-open transitions with a
  :class:`ManualClock` instead of sleeping;
* every state change is appended to :attr:`transitions` as
  ``(event_index, old_state, new_state)`` where ``event_index`` counts
  the outcomes this breaker has observed — virtual time, not wall time —
  so a serialized replay of the same outcome sequence produces an
  identical trace.

All methods are thread-safe; a :class:`BreakerBoard` keys one breaker per
component name and aggregates their snapshots for ``healthz``.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "CLOSE_THRESHOLD",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "HALF_OPEN_PROBES",
    "CircuitBreaker",
    "BreakerBoard",
    "ManualClock",
]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Probe calls a half-open breaker admits at once.
HALF_OPEN_PROBES = 1
#: Consecutive probe successes that close a half-open breaker.
CLOSE_THRESHOLD = 1


class ManualClock:
    """A deterministic monotonic clock advanced explicitly (or by sleeps).

    Doubles as the service's ``sleep`` substitute in virtual-time tests:
    ``clock.sleep(d)`` advances the clock by ``d`` without blocking, so
    backoff delays and breaker cooldowns elapse instantly but in order.
    """

    def __init__(self, start: float = 0.0):
        self._now = start
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"cannot advance by {seconds}")
        with self._lock:
            self._now += seconds

    def sleep(self, seconds: float) -> None:
        """Sleep by advancing virtual time (never blocks)."""
        self.advance(max(0.0, seconds))


class CircuitBreaker:
    """One component's three-state breaker with an injectable clock."""

    def __init__(
        self,
        component: str,
        failure_threshold: int = 3,
        cooldown_seconds: float = 0.25,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown_seconds < 0:
            raise ValueError(
                f"cooldown_seconds must be >= 0, got {cooldown_seconds}"
            )
        self.component = component
        self.failure_threshold = failure_threshold
        self.cooldown_seconds = cooldown_seconds
        self._clock = clock
        self._lock = threading.RLock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._consecutive_successes = 0
        self._opened_at: Optional[float] = None
        self._probes_in_flight = 0
        self._events = 0
        self.trips = 0
        #: ``(event_index, old_state, new_state)`` per transition.
        self.transitions: List[Tuple[int, str, str]] = []

    # ------------------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _transition(self, new_state: str) -> None:
        if new_state != self._state:
            self.transitions.append((self._events, self._state, new_state))
            self._state = new_state

    def _maybe_half_open(self) -> None:
        """Open → half-open once the cooldown has elapsed."""
        if self._state == OPEN and self._opened_at is not None:
            if self._clock() - self._opened_at >= self.cooldown_seconds:
                self._transition(HALF_OPEN)
                self._probes_in_flight = 0
                self._consecutive_successes = 0

    # ------------------------------------------------------------------

    def allow(self) -> bool:
        """May a call proceed right now?  Half-open admits limited probes."""
        with self._lock:
            self._maybe_half_open()
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                return False
            if self._probes_in_flight >= HALF_OPEN_PROBES:
                return False
            self._probes_in_flight += 1
            return True

    def retry_after(self) -> float:
        """Seconds until an open breaker will admit a probe (0 otherwise)."""
        with self._lock:
            self._maybe_half_open()
            if self._state != OPEN or self._opened_at is None:
                return 0.0
            remaining = self.cooldown_seconds - (self._clock() - self._opened_at)
            return max(0.0, remaining)

    def record_success(self) -> None:
        """A guarded call completed cleanly."""
        with self._lock:
            self._maybe_half_open()
            self._events += 1
            self._consecutive_failures = 0
            if self._state == HALF_OPEN:
                self._probes_in_flight = max(0, self._probes_in_flight - 1)
                self._consecutive_successes += 1
                if self._consecutive_successes >= CLOSE_THRESHOLD:
                    self._transition(CLOSED)
                    self._consecutive_successes = 0
            # Success in CLOSED is the steady state; in OPEN it cannot
            # happen (allow() refused the call).

    def release_probe(self) -> None:
        """Hand back a half-open probe slot whose call never ran.

        Not an outcome: no event is counted and no state changes — the
        slot simply becomes available to the next prober.  Callers that
        were admitted by :meth:`allow` but then abort before the guarded
        call (e.g. another component's breaker refused) must release, or
        the bounded probe budget leaks and the breaker refuses forever.
        """
        with self._lock:
            if self._state == HALF_OPEN:
                self._probes_in_flight = max(0, self._probes_in_flight - 1)

    def record_failure(self) -> None:
        """A guarded call failed with this component implicated."""
        with self._lock:
            self._maybe_half_open()
            self._events += 1
            self._consecutive_successes = 0
            if self._state == HALF_OPEN:
                # A failed probe re-opens immediately.
                self._probes_in_flight = max(0, self._probes_in_flight - 1)
                self._trip()
                return
            if self._state == OPEN:
                return
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.failure_threshold:
                self._trip()

    def _trip(self) -> None:
        self._transition(OPEN)
        self.trips += 1
        self._opened_at = self._clock()
        self._consecutive_failures = 0

    # ------------------------------------------------------------------

    def trace(self) -> List[str]:
        """Human/JSON-friendly transition trace."""
        with self._lock:
            return [
                f"{self.component}@{event}: {old} -> {new}"
                for event, old, new in self.transitions
            ]

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            self._maybe_half_open()
            return {
                "component": self.component,
                "state": self._state,
                "trips": self.trips,
                "events": self._events,
                "consecutive_failures": self._consecutive_failures,
                "transitions": self.trace(),
            }

    def __repr__(self) -> str:
        with self._lock:  # RLock: nesting under self.state is fine
            return (
                f"CircuitBreaker({self.component!r}, state={self.state}, "
                f"trips={self.trips})"
            )


class BreakerBoard:
    """Lazily-created breakers keyed by component name, shared settings."""

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_seconds: float = 0.25,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._settings = dict(
            failure_threshold=failure_threshold,
            cooldown_seconds=cooldown_seconds,
        )
        self._clock = clock
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()

    def breaker(self, component: str) -> CircuitBreaker:
        with self._lock:
            found = self._breakers.get(component)
            if found is None:
                found = CircuitBreaker(
                    component, clock=self._clock, **self._settings
                )
                self._breakers[component] = found
            return found

    def components(self) -> List[str]:
        with self._lock:
            return sorted(self._breakers)

    @property
    def total_trips(self) -> int:
        with self._lock:
            return sum(breaker.trips for breaker in self._breakers.values())

    def trace(self) -> List[str]:
        """All breakers' transition traces, merged per component."""
        return [
            line
            for component in self.components()
            for line in self.breaker(component).trace()
        ]

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        return {
            component: self.breaker(component).snapshot()
            for component in self.components()
        }

    def __repr__(self) -> str:
        return f"BreakerBoard({self.components()}, trips={self.total_trips})"
