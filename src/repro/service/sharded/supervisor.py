"""Shard supervision primitives: handles, seeded backoff, monitor thread.

The parent side of one shard is a :class:`ShardHandle`: the live process
and pipe, the supervision state machine position, and the per-shard
counters the cluster ``healthz()`` reports.  The handle's state machine::

    spawning ──first heartbeat──► up ──DrainCommand──► draining ──Drained──► stopped
        │                         │                        │
        │ spawn grace expired     │ exit / pipe EOF /      │ drain timeout
        ▼                         │ missed heartbeats      ▼
      dead ◄──────────────────────┘◄───────────────────── dead
        │
        │ seeded exponential backoff (RespawnBackoff)
        ▼
     backoff ──delay elapsed──► spawning   (respawns += 1)

Three independent signals declare a shard dead, checked every supervisor
tick: the process exited (``exitcode`` set — a crash or SIGKILL), the
pipe broke (EOF / send failure), or the heartbeat went stale while the
process still runs (a *wedged* shard: alive but not serving — the
supervisor kills it rather than trusting it).

Respawn pacing is a seeded exponential backoff
(:class:`RespawnBackoff`, built on the service's
:class:`~repro.service.RetryPolicy`): consecutive failures grow the
delay, a heartbeat from the respawned shard resets it.  The jitter RNG
is seeded per shard, so a chaos run's respawn schedule is reproducible.

:class:`ShardSupervisor` is the thread that drives the checks: it calls
the cluster's ``_supervise_tick()`` on a fixed cadence and nothing else —
all shard-state mutation happens in :class:`ShardedService` under the
single cluster lock, keeping the lock discipline auditable.
"""

from __future__ import annotations

import multiprocessing
import threading
from typing import Callable, Dict, List, Optional

from repro.service.retry import RetryPolicy
from repro.service.sharded.shard import ShardConfig, shard_main

__all__ = [
    "RespawnBackoff",
    "ShardHandle",
    "ShardSupervisor",
    "pick_mp_context",
]


def pick_mp_context():
    """The multiprocessing context for shard processes.

    Prefers ``fork`` (sub-millisecond shard start on Linux — respawn
    after a SIGKILL is cheap) and falls back to ``spawn`` where fork is
    unavailable; ``shard_main`` is a module-level entry point either way.
    """
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    return multiprocessing.get_context(method)


class RespawnBackoff:
    """Seeded exponential backoff between respawns of one shard.

    ``next_delay()`` is called on each consecutive failure and grows the
    delay exponentially (with seeded jitter, capped by the policy);
    ``reset()`` is called when the respawned shard proves itself with a
    heartbeat.
    """

    def __init__(self, policy: RetryPolicy, seed: int):
        self._policy = policy
        self._rng = policy.rng_for(seed)
        self.consecutive_failures = 0

    def next_delay(self) -> float:
        self.consecutive_failures += 1
        # Cap the exponent at the policy's attempt budget so a shard that
        # keeps dying converges to max_delay instead of overflowing.
        attempt = min(self.consecutive_failures, self._policy.max_attempts)
        return self._policy.delay(attempt, self._rng)

    def reset(self) -> None:
        self.consecutive_failures = 0


class ShardHandle:
    """Parent-side state for one shard slot.

    The handle's mutable supervision fields (``state``, counters, cached
    health) are only ever touched by :class:`ShardedService` while it
    holds the cluster lock; the handle itself guards just the pipe writes
    (worker threads and the supervisor both send) with ``_send_lock``.
    """

    def __init__(
        self,
        config: ShardConfig,
        ctx,
        backoff: RespawnBackoff,
    ):
        self.config = config
        self._ctx = ctx
        self.backoff = backoff
        self._send_lock = threading.Lock()
        self.process = None
        self.conn = None
        self.pid: Optional[int] = None
        # Supervision state; mutated under the cluster lock.
        self.state = "spawning"
        self.pipe_broken = False
        self.last_heartbeat: Optional[float] = None
        self.spawned_at: Optional[float] = None
        self.heartbeats = 0
        self.respawns = 0
        self.dispatched = 0
        self.completed = 0
        self.failed_over = 0
        self.sheds = 0
        self.local_health: Optional[Dict[str, object]] = None
        self.breaker_trace: List[str] = []
        #: Request ids currently assigned to this shard.
        self.outstanding: Dict[int, object] = {}
        self.drained = threading.Event()
        self.next_respawn_at: Optional[float] = None

    @property
    def shard_id(self) -> int:
        return self.config.shard_id

    # -- process lifecycle ---------------------------------------------

    def spawn(self, now: float) -> None:
        """Start (or restart) the shard process on a fresh pipe."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=shard_main,
            args=(self.config, child_conn),
            name=f"repro-shard-{self.config.shard_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # the child's end lives in the child only
        with self._send_lock:
            self.process = process
            self.conn = parent_conn
            self.pid = process.pid
        self.pipe_broken = False
        self.state = "spawning"
        self.last_heartbeat = None
        self.spawned_at = now
        self.drained.clear()
        self.next_respawn_at = None

    def send(self, message) -> bool:
        """Pipe one message to the shard; ``False`` if the pipe is dead."""
        with self._send_lock:
            conn = self.conn
            if conn is None:
                return False
            try:
                conn.send(message)
                return True
            except (BrokenPipeError, OSError):
                return False

    def process_alive(self) -> bool:
        process = self.process
        return process is not None and process.is_alive()

    def exitcode(self) -> Optional[int]:
        process = self.process
        return None if process is None else process.exitcode

    def kill(self) -> None:
        """SIGKILL the shard process (chaos injection and wedge breaking)."""
        process = self.process
        if process is not None and process.is_alive():
            process.kill()

    def reap(self, join_timeout: float = 1.0) -> None:
        """Join the dead process and close the parent pipe end."""
        process = self.process
        if process is not None:
            process.join(timeout=join_timeout)
        with self._send_lock:
            conn, self.conn = self.conn, None
        if conn is not None:
            try:
                conn.close()
            except OSError:  # repro: disable=no-silent-fallback
                pass  # double-close race with the receiver; benign

    def heartbeat_age(self, now: float) -> Optional[float]:
        if self.last_heartbeat is None:
            return None
        return now - self.last_heartbeat

    def __repr__(self) -> str:
        return (
            f"ShardHandle(shard={self.shard_id}, state={self.state}, "
            f"pid={self.pid}, respawns={self.respawns}, "
            f"outstanding={len(self.outstanding)})"
        )


class ShardSupervisor:
    """The monitor thread: drive the cluster's supervision tick.

    All decisions live in ``tick`` (the cluster's ``_supervise_tick``);
    this class only owns the cadence and the stop signal, so supervision
    logic stays testable without a thread.
    """

    def __init__(self, tick: Callable[[], None], interval: float):
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self._tick = tick
        self._interval = interval
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run, name="repro-shard-supervisor", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self._tick()

    def stop(self, timeout: Optional[float] = None) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout)

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()
