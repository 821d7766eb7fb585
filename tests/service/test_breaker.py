"""CircuitBreaker: the three-state machine, driven by a manual clock."""

import threading

import pytest

from repro.service import breaker as breaker_module
from repro.service.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerBoard,
    CircuitBreaker,
    ManualClock,
)


def make(clock, **overrides):
    settings = dict(
        failure_threshold=3,
        cooldown_seconds=1.0,
        clock=clock,
    )
    settings.update(overrides)
    return CircuitBreaker("cost_model", **settings)


class TestClosed:
    def test_starts_closed_and_allows(self):
        breaker = make(ManualClock())
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_consecutive_failures_trip(self):
        breaker = make(ManualClock())
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.trips == 1

    def test_success_resets_the_failure_streak(self):
        breaker = make(ManualClock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED  # streak broken, no trip

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make(ManualClock(), failure_threshold=0)
        with pytest.raises(ValueError):
            make(ManualClock(), cooldown_seconds=-1.0)


class TestOpen:
    def test_open_fast_fails_until_cooldown(self):
        clock = ManualClock()
        breaker = make(clock)
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.allow()
        assert breaker.retry_after() == pytest.approx(1.0)
        clock.advance(0.5)
        assert not breaker.allow()
        assert breaker.retry_after() == pytest.approx(0.5)

    def test_cooldown_moves_to_half_open(self):
        clock = ManualClock()
        breaker = make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1.0)
        assert breaker.state == HALF_OPEN
        assert breaker.retry_after() == 0.0


class TestHalfOpen:
    def tripped(self, clock, **overrides):
        breaker = make(clock, **overrides)
        for _ in range(breaker.failure_threshold):
            breaker.record_failure()
        clock.advance(breaker.cooldown_seconds)
        return breaker

    def test_admits_limited_probes(self, monkeypatch):
        monkeypatch.setattr(breaker_module, "HALF_OPEN_PROBES", 2)
        clock = ManualClock()
        breaker = self.tripped(clock)
        assert breaker.allow()
        assert breaker.allow()
        assert not breaker.allow()  # both probe slots taken

    def test_probe_success_closes(self):
        clock = ManualClock()
        breaker = self.tripped(clock)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_close_threshold_requires_streak(self, monkeypatch):
        monkeypatch.setattr(breaker_module, "CLOSE_THRESHOLD", 2)
        monkeypatch.setattr(breaker_module, "HALF_OPEN_PROBES", 2)
        clock = ManualClock()
        breaker = self.tripped(clock)
        breaker.allow()
        breaker.record_success()
        assert breaker.state == HALF_OPEN
        breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_release_probe_returns_an_unused_slot(self):
        clock = ManualClock()
        breaker = self.tripped(clock)
        assert breaker.allow()
        assert not breaker.allow()  # the single probe slot is taken
        breaker.release_probe()  # admitted call aborted before running
        assert breaker.allow()  # the slot is available again
        assert breaker.state == HALF_OPEN  # releasing is not an outcome

    def test_release_probe_outside_half_open_is_a_no_op(self):
        breaker = make(ManualClock())
        breaker.release_probe()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens(self):
        clock = ManualClock()
        breaker = self.tripped(clock)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.trips == 2
        # The new open period starts at the re-trip.
        assert breaker.retry_after() == pytest.approx(1.0)


class TestTrace:
    def test_full_cycle_trace(self):
        clock = ManualClock()
        breaker = make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1.0)
        breaker.allow()
        breaker.record_success()
        assert breaker.trace() == [
            "cost_model@3: closed -> open",
            "cost_model@3: open -> half_open",
            "cost_model@4: half_open -> closed",
        ]

    def test_trace_is_reproducible_for_same_outcome_sequence(self):
        outcomes = [False, False, False, True, False, False, False, True]

        def run():
            clock = ManualClock()
            breaker = make(clock)
            for success in outcomes:
                if breaker.allow():
                    if success:
                        breaker.record_success()
                    else:
                        breaker.record_failure()
                else:
                    clock.advance(breaker.retry_after())
            return breaker.trace()

        assert run() == run()

    def test_snapshot_carries_state_and_trace(self):
        breaker = make(ManualClock())
        for _ in range(3):
            breaker.record_failure()
        snapshot = breaker.snapshot()
        assert snapshot["state"] == OPEN
        assert snapshot["trips"] == 1
        assert snapshot["transitions"] == ["cost_model@3: closed -> open"]


class TestThreadSafety:
    def test_concurrent_failures_trip_exactly_once(self):
        breaker = make(ManualClock(), failure_threshold=8)
        barrier = threading.Barrier(8)

        def fail():
            barrier.wait()
            breaker.record_failure()

        threads = [threading.Thread(target=fail) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert breaker.state == OPEN
        assert breaker.trips == 1


class TestManualClock:
    def test_advance_and_sleep(self):
        clock = ManualClock(start=5.0)
        assert clock() == 5.0
        clock.advance(1.5)
        clock.sleep(0.5)
        assert clock() == 7.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            ManualClock().advance(-1.0)

    def test_sleep_clamps_negative_to_zero(self):
        clock = ManualClock()
        clock.sleep(-3.0)
        assert clock() == 0.0


class TestBoard:
    def test_breakers_are_keyed_and_cached(self):
        board = BreakerBoard(clock=ManualClock())
        first = board.breaker("cost_model")
        assert board.breaker("cost_model") is first
        board.breaker("catalog")
        assert board.components() == ["catalog", "cost_model"]

    def test_total_trips_and_merged_trace(self):
        clock = ManualClock()
        board = BreakerBoard(failure_threshold=1, clock=clock)
        board.breaker("cost_model").record_failure()
        board.breaker("catalog").record_failure()
        assert board.total_trips == 2
        trace = board.trace()
        assert "catalog@1: closed -> open" in trace
        assert "cost_model@1: closed -> open" in trace

    def test_snapshot_per_component(self):
        board = BreakerBoard(failure_threshold=1, clock=ManualClock())
        board.breaker("catalog").record_failure()
        snapshot = board.snapshot()
        assert snapshot["catalog"]["state"] == OPEN
