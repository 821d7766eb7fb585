"""Budget semantics: the anytime contract's enforcement object."""

import pytest

from repro.errors import BudgetExceeded
from repro.resilience import Budget


class FakeClock:
    """A controllable monotonic clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestConstruction:
    def test_unlimited_is_unbounded(self):
        assert Budget.unlimited().unbounded

    def test_any_axis_makes_it_bounded(self):
        assert not Budget(max_expansions=1).unbounded
        assert not Budget(deadline_seconds=1.0).unbounded

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline_seconds": -1.0},
            {"max_expansions": -1},
        ],
    )
    def test_negative_limits_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Budget(**kwargs)


class TestExpansionAxis:
    def test_fires_on_first_check_past_the_cap(self):
        budget = Budget(max_expansions=3)
        for _ in range(3):
            budget.check()
        with pytest.raises(BudgetExceeded) as excinfo:
            budget.check()
        assert excinfo.value.reason == "expansions"
        assert budget.exhausted_reason == "expansions"

    def test_unlimited_never_fires(self):
        budget = Budget.unlimited()
        for _ in range(10_000):
            budget.check()
        assert budget.expansions == 10_000
        assert budget.exhausted_reason is None


class TestDeadlineAxis:
    def test_fires_once_the_clock_passes_the_deadline(self):
        clock = FakeClock()
        budget = Budget(deadline_seconds=1.0, clock=clock)
        budget.check()  # first check probes the clock
        clock.now = 2.0
        with pytest.raises(BudgetExceeded) as excinfo:
            # Deadline probes happen on a stride; drain one stride's worth.
            for _ in range(64):
                budget.check()
        assert excinfo.value.reason == "deadline"

    def test_probe_happens_on_the_very_first_check(self):
        clock = FakeClock()
        budget = Budget(deadline_seconds=0.5, clock=clock)
        budget.start()
        clock.now = 1.0
        with pytest.raises(BudgetExceeded):
            budget.check()

    def test_clock_is_monotonic_from_start(self):
        clock = FakeClock()
        budget = Budget(deadline_seconds=10.0, clock=clock)
        assert budget.elapsed() == 0.0  # not started yet
        budget.start()
        clock.now = 3.0
        assert budget.elapsed() == 3.0
        assert budget.remaining_seconds() == pytest.approx(7.0)

    def test_start_is_idempotent(self):
        clock = FakeClock()
        budget = Budget(deadline_seconds=10.0, clock=clock)
        budget.start()
        clock.now = 5.0
        budget.start()  # must not reset the epoch
        assert budget.elapsed() == 5.0

    def test_remaining_none_when_axis_disabled(self):
        assert Budget(max_expansions=3).remaining_seconds() is None


class TestSnapshot:
    def test_snapshot_reports_consumption(self):
        budget = Budget(max_expansions=100)
        budget.check()
        budget.check()
        snapshot = budget.snapshot()
        assert snapshot["expansions"] == 2
        assert snapshot["max_expansions"] == 100
        assert snapshot["exhausted"] is None

    def test_snapshot_records_the_fired_axis(self):
        budget = Budget(max_expansions=1)
        budget.check()
        with pytest.raises(BudgetExceeded):
            budget.check()
        assert budget.snapshot()["exhausted"] == "expansions"

    def test_repr_mentions_the_axes(self):
        assert "unlimited" in repr(Budget.unlimited())
        assert "expansions<=5" in repr(Budget(max_expansions=5))


class TestExceptionPayload:
    def test_budget_exceeded_carries_reason_and_partials(self):
        error = BudgetExceeded("deadline", "too slow")
        assert error.reason == "deadline"
        assert error.partial_plan is None
        assert error.memo_entries == 0
        assert "deadline" in str(error)
