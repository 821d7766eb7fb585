"""Cooperative optimization budgets (the anytime contract).

A :class:`Budget` bounds one optimizer run along two independent axes:

* **wall clock** — a deadline measured with ``time.monotonic`` (immune to
  system clock adjustments mid-run);
* **expansions** — the number of plan-class expansions (``_tdpg`` entries /
  ccp pulls), a deterministic, platform-independent work measure.

Enforcement is *cooperative*: the plan generators call :meth:`check` at
every expansion and every enumerated ccp, and the budget raises
:class:`~repro.errors.BudgetExceeded` the moment any axis is exhausted.
Between deadline probes the budget only counts (``time.monotonic`` is
cheap, but not free — see ``_DEADLINE_STRIDE``).

Budgets are single-use: they start ticking at the first :meth:`check` (or
an explicit :meth:`start`) and accumulate consumption until discarded.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

from repro.errors import BudgetExceeded

__all__ = ["Budget", "BudgetExceeded"]

#: Deadline probes happen every this many :meth:`Budget.check` calls; the
#: counters are enforced on every call.  32 expansions of pure-Python
#: enumeration take far longer than a clock read, so the deadline overshoot
#: this admits is microseconds even on the tightest budgets.
_DEADLINE_STRIDE = 32


class Budget:
    """A wall-clock / expansion budget for one optimizer run.

    Parameters
    ----------
    deadline_seconds:
        Wall-clock allowance from :meth:`start`; ``None`` disables the axis.
    max_expansions:
        Maximum number of :meth:`check` calls; ``None`` disables the axis.
    clock:
        Monotonic time source, injectable for tests.
    """

    __slots__ = (
        "deadline_seconds",
        "max_expansions",
        "_clock",
        "_started_at",
        "_expansions",
        "_exhausted_reason",
    )

    def __init__(
        self,
        deadline_seconds: Optional[float] = None,
        max_expansions: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if deadline_seconds is not None and deadline_seconds < 0:
            raise ValueError(f"deadline must be >= 0, got {deadline_seconds}")
        if max_expansions is not None and max_expansions < 0:
            raise ValueError(f"max_expansions must be >= 0, got {max_expansions}")
        self.deadline_seconds = deadline_seconds
        self.max_expansions = max_expansions
        self._clock = clock
        self._started_at: Optional[float] = None
        self._expansions = 0
        self._exhausted_reason: Optional[str] = None

    @classmethod
    def unlimited(cls) -> "Budget":
        """A budget that never fires (useful as a neutral default)."""
        return cls()

    # ------------------------------------------------------------------

    @property
    def unbounded(self) -> bool:
        """True when no axis is constrained (checks can never raise)."""
        return self.deadline_seconds is None and self.max_expansions is None

    @property
    def started(self) -> bool:
        return self._started_at is not None

    @property
    def expansions(self) -> int:
        """Expansions charged so far."""
        return self._expansions

    @property
    def exhausted_reason(self) -> Optional[str]:
        """Which axis fired (``None`` while the budget still has headroom)."""
        return self._exhausted_reason

    def start(self) -> "Budget":
        """Start the deadline clock (idempotent); returns ``self``."""
        if self._started_at is None:
            self._started_at = self._clock()
        return self

    def elapsed(self) -> float:
        """Wall-clock seconds since :meth:`start` (0 before starting)."""
        if self._started_at is None:
            return 0.0
        return self._clock() - self._started_at

    def remaining_seconds(self) -> Optional[float]:
        """Deadline headroom, or ``None`` when the axis is disabled."""
        if self.deadline_seconds is None:
            return None
        return self.deadline_seconds - self.elapsed()

    # ------------------------------------------------------------------

    def check(self) -> None:
        """Charge one expansion and raise if any axis is exhausted.

        Called cooperatively from the enumeration hot loops; starts the
        deadline clock on first use.
        """
        if self._started_at is None:
            self._started_at = self._clock()
        self._expansions += 1
        if (
            self.max_expansions is not None
            and self._expansions > self.max_expansions
        ):
            self._fail(
                "expansions",
                f"{self._expansions} expansions > cap {self.max_expansions}",
            )
        if self.deadline_seconds is not None and (
            self._expansions % _DEADLINE_STRIDE == 0 or self._expansions == 1
        ):
            elapsed = self._clock() - self._started_at
            if elapsed > self.deadline_seconds:
                self._fail(
                    "deadline",
                    f"{elapsed * 1000:.1f} ms elapsed > "
                    f"{self.deadline_seconds * 1000:.1f} ms deadline",
                )

    def _fail(self, reason: str, detail: str) -> None:
        self._exhausted_reason = reason
        raise BudgetExceeded(reason, detail)

    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Consumption summary for :class:`DegradationReport` / JSON logs."""
        return {
            "deadline_seconds": self.deadline_seconds,
            "max_expansions": self.max_expansions,
            "elapsed_seconds": self.elapsed(),
            "expansions": self._expansions,
            "exhausted": self._exhausted_reason,
        }

    def __repr__(self) -> str:
        parts = []
        if self.deadline_seconds is not None:
            parts.append(f"deadline={self.deadline_seconds * 1000:.0f}ms")
        if self.max_expansions is not None:
            parts.append(f"expansions<={self.max_expansions}")
        inner = ", ".join(parts) if parts else "unlimited"
        return f"Budget({inner})"
