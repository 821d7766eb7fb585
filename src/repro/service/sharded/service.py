""":class:`ShardedService` — the multi-process front-end.

The front-end owns N supervised shard processes (each running the full
single-process :class:`~repro.service.OptimizationService` stack), a
:class:`~repro.service.sharded.router.ConsistentHashRouter` keyed on the
WL query fingerprint, and three parent-side threads:

* the **receiver** multiplexes every shard pipe
  (``multiprocessing.connection.wait``), completing futures from
  :class:`WireResponse` s, refreshing liveness from heartbeats, and
  re-routing :class:`WireShed` bounces;
* the **supervisor tick** (driven by
  :class:`~repro.service.sharded.supervisor.ShardSupervisor`) detects
  dead shards — process exit (crash, SIGKILL), broken pipe, stale
  heartbeat — fails their in-flight requests over to surviving shards,
  and respawns them under seeded exponential backoff;
* the **fallback lane** — an in-process
  :class:`~repro.service.OptimizationService` with one worker — serves
  requests when *no* shard is alive, so the cluster never answers "try
  later" while a validated plan is constructible.

Loss model: a request is handed back exactly once.  Every accepted
request lives in one cluster-wide ticket table; a ticket leaves the
table only when its future is completed (response, typed failure, or
shutdown error), and every failure path — shard death, shed, pipe
break, drain, shutdown — re-routes or completes the tickets it touches.
Duplicate work is possible (a response computed but cut down mid-pipe by
SIGKILL is recomputed elsewhere); duplicate *completion* is not (the
table pop is first-wins).

Determinism: plans are a function of the query alone (and request seeds
are derived by the front-end exactly like the single-process service
derives them), so which shard serves a request — or whether it was
failed over three times first — never changes the returned plan.  The
``--kill-shards`` chaos soak asserts this bit-for-bit against a
single-process disarmed replay.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from concurrent.futures import Future
from functools import partial
from typing import Callable, Dict, List, Optional, Set

from multiprocessing.connection import wait as _connection_wait

from repro.errors import (
    ReproError,
    ServiceError,
    ServiceOverloadError,
    ServiceShutdownError,
)
from repro.query import Query
from repro.service.retry import RetryPolicy
from repro.service.server import (
    OptimizationService,
    OptimizeRequest,
    OptimizeResponse,
    _Ticket,
)
from repro.service.sharded.health import ClusterHealth, ShardStatus
from repro.service.sharded.router import (
    DEFAULT_VIRTUAL_NODES,
    ConsistentHashRouter,
)
from repro.service.sharded.shard import ShardConfig
from repro.service.sharded.supervisor import (
    RespawnBackoff,
    ShardHandle,
    ShardSupervisor,
    pick_mp_context,
)
from repro.service.sharded.wire import (
    Drained,
    DrainCommand,
    Heartbeat,
    Hello,
    ShutdownCommand,
    WireResponse,
    WireShed,
)
from repro.telemetry import Telemetry
from repro.telemetry.adapters import publish_cluster_health

__all__ = ["ShardedService", "DEFAULT_RESPAWN_POLICY"]


def DEFAULT_RESPAWN_POLICY() -> RetryPolicy:
    """Stock respawn backoff: 50 ms doubling to a 2 s ceiling."""
    return RetryPolicy(
        max_attempts=6, base_delay=0.05, multiplier=2.0, max_delay=2.0
    )


class _ClusterTicket(_Ticket):
    """An admitted request plus its routing state across shards."""

    __slots__ = ("key", "tried", "dispatches", "shard_id")

    def __init__(self, request: OptimizeRequest, admitted_at: float, key: str):
        super().__init__(request, admitted_at)
        self.key = key
        #: Shards this ticket already bounced off (death or shed).
        self.tried: Set[int] = set()
        self.dispatches = 0
        #: Shard currently responsible, ``None`` while unassigned.
        self.shard_id: Optional[int] = None


class ShardedService:
    """N shard processes behind a consistent-hash router and supervisor.

    Parameters
    ----------
    shards:
        Shard process count.
    enumerator / pruning / heuristic / workers_per_shard /
    shard_queue_capacity / plan_cache_capacity / chaos_rate:
        Forwarded into each shard's :class:`ShardConfig` (``chaos_rate``
        arms the seeded in-shard :class:`~repro.service.soak.ChaosPlant`).
    seed:
        Cluster seed; per-request seeds derive from it exactly as the
        single-process service derives them.
    store_dir / store_min_expansions:
        Durable plan-store directory for the cluster (``None`` disables
        the L2 tier).  Each shard appends to its own
        ``shard-<id>.rpl`` segment (single-writer) and warms on (re)spawn
        from the shared read-only ``snapshot.rpl`` plus its own segment,
        so a killed shard's respawn starts with the state it died with;
        ``repro-cache compact`` merges segments offline.
    heartbeat_interval / heartbeat_miss_limit / spawn_grace_seconds:
        A shard is declared wedged after ``miss_limit`` intervals without
        a heartbeat (or ``spawn_grace_seconds`` without its first one).
    respawn_policy:
        Backoff schedule between respawns of a crashing shard.
    max_outstanding:
        Cluster-wide admission bound (defaults to twice the summed shard
        queue capacity); beyond it :meth:`submit` sheds with
        :class:`~repro.errors.ServiceOverloadError`.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` bundle: supervision
        events become ``repro_shard_*`` counters as they happen, and
        :meth:`healthz` publishes gauges + embeds a registry snapshot.
    """

    def __init__(
        self,
        shards: int = 2,
        enumerator: str = "mincut_conservative",
        pruning: str = "apcbi",
        heuristic: str = "goo",
        workers_per_shard: int = 2,
        shard_queue_capacity: int = 64,
        plan_cache_capacity: int = 256,
        seed: int = 0,
        chaos_rate: float = 0.0,
        store_dir: Optional[str] = None,
        store_min_expansions: int = 0,
        heartbeat_interval: float = 0.05,
        heartbeat_miss_limit: int = 8,
        spawn_grace_seconds: float = 10.0,
        respawn_policy: Optional[RetryPolicy] = None,
        max_outstanding: Optional[int] = None,
        virtual_nodes: int = DEFAULT_VIRTUAL_NODES,
        mp_start_method: Optional[str] = None,
        telemetry: Optional[Telemetry] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if heartbeat_miss_limit < 2:
            raise ValueError(
                f"heartbeat_miss_limit must be >= 2, got {heartbeat_miss_limit}"
            )
        self.seed = seed
        self._clock = clock
        self._telemetry = telemetry
        self._heartbeat_interval = heartbeat_interval
        self._miss_limit = heartbeat_miss_limit
        self._spawn_grace = spawn_grace_seconds
        self._respawn_policy = (
            respawn_policy if respawn_policy is not None else DEFAULT_RESPAWN_POLICY()
        )
        self._max_outstanding = (
            max_outstanding
            if max_outstanding is not None
            else 2 * shards * shard_queue_capacity
        )
        # A ticket that bounced off every shard twice goes to fallback.
        self._max_dispatches = 2 * shards + 1
        self._ctx = pick_mp_context(mp_start_method)
        self._router = ConsistentHashRouter(
            range(shards), virtual_nodes=virtual_nodes
        )
        self._handles: Dict[int, ShardHandle] = {}
        for shard_id in range(shards):
            config = ShardConfig(
                shard_id=shard_id,
                enumerator=enumerator,
                pruning=pruning,
                heuristic=heuristic,
                workers=workers_per_shard,
                queue_capacity=shard_queue_capacity,
                plan_cache_capacity=plan_cache_capacity,
                seed=seed,
                chaos_rate=chaos_rate,
                store_dir=store_dir,
                store_min_expansions=store_min_expansions,
                heartbeat_interval=heartbeat_interval,
            )
            backoff = RespawnBackoff(
                self._respawn_policy, seed=seed * 7_919 + shard_id + 1
            )
            self._handles[shard_id] = ShardHandle(config, self._ctx, backoff)
        # The all-shards-down lane, without plan cache or telemetry.  Its
        # queue fits every ticket the cluster admits: it never sheds one.
        self._fallback = OptimizationService(
            enumerator=enumerator,
            pruning=pruning,
            heuristic=heuristic,
            workers=1,
            queue_capacity=self._max_outstanding,
            seed=seed,
            clock=clock,
        )

        self._lock = threading.Lock()
        # Guarded by _lock: the ticket table, counters, shard states.
        self._tickets: Dict[int, _ClusterTicket] = {}
        self._next_request_id = 0
        self._state = "stopped"  # "stopped" | "running" | "draining"
        self.accepted = 0
        self.rejected = 0
        self.completed = 0
        self.failed = 0
        self.failovers = 0
        self.respawns = 0
        self.drains = 0
        self.fallback_served = 0
        self.wire_errors = 0
        self.duplicate_responses = 0

        self._stop_event = threading.Event()
        self._receiver_thread: Optional[threading.Thread] = None
        self._supervisor = ShardSupervisor(
            self._supervise_tick, interval=heartbeat_interval / 2.0
        )

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "ShardedService":
        with self._lock:
            if self._state != "stopped" or self._receiver_thread is not None:
                raise ServiceShutdownError(
                    f"cannot start a sharded service in state {self._state!r}"
                    + ("; services are one-shot" if self._receiver_thread else "")
                )
            self._fallback.start()
            self._state = "running"
            now = self._clock()
            for handle in self._handles.values():
                handle.spawn(now)
        self._receiver_thread = threading.Thread(
            target=self._receiver_loop, name="repro-shard-receiver", daemon=True
        )
        self._receiver_thread.start()
        self._supervisor.start()
        return self

    def __enter__(self) -> "ShardedService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown(drain=True, timeout=30.0)
        return False

    @property
    def running(self) -> bool:
        with self._lock:
            return self._state == "running"

    @property
    def router(self) -> ConsistentHashRouter:
        return self._router

    @property
    def telemetry(self) -> Optional[Telemetry]:
        return self._telemetry

    def shutdown(
        self, drain: bool = True, timeout: Optional[float] = None
    ) -> bool:
        """Stop the cluster; ``True`` iff every shard process exited.

        ``drain=True`` waits for every in-flight ticket to complete
        (supervision stays active, so shards dying mid-drain still fail
        over); ``drain=False`` fails pending tickets with
        :class:`ServiceShutdownError`.  ``timeout`` bounds the total
        wait; stragglers are killed and reported via ``False``.
        """
        with self._lock:
            if self._state == "stopped":
                return True
            self._state = "draining"
        deadline = None if timeout is None else time.monotonic() + timeout
        for handle in self._handles.values():
            handle.send(ShutdownCommand(drain=drain))
        while drain:
            with self._lock:
                if not self._tickets:
                    break
            if deadline is not None and time.monotonic() >= deadline:
                break
            time.sleep(0.005)
        self._supervisor.stop(timeout=2.0)
        all_exited = True
        for handle in self._handles.values():
            process = handle.process
            if process is None:
                continue
            remaining = (
                None
                if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            process.join(timeout=remaining)
            if process.is_alive():
                all_exited = False
                handle.kill()
            handle.reap()
            with self._lock:
                handle.state = "stopped"
        self._stop_event.set()
        if self._receiver_thread is not None:
            self._receiver_thread.join(timeout=5.0)
        # Whatever is left gets an honest typed failure, never silence.
        with self._lock:
            stranded = list(self._tickets.values())
            self._tickets.clear()
            self.failed += len(stranded)
            self._state = "stopped"
        for ticket in stranded:
            ticket.future.set_exception(
                ServiceShutdownError(
                    f"{ticket.request.describe()} stranded by cluster shutdown"
                )
            )
        # Stranded first: a lane answer arriving now finds no ticket.
        self._fallback.shutdown(drain=False, timeout=5.0)
        return all_exited

    # -- admission & routing -------------------------------------------

    # The single-process service's own definitions, so a request stream
    # produces identical per-request seeds either way.
    _derive_seed = OptimizationService._derive_seed
    optimize = OptimizationService.optimize

    def submit(
        self,
        query: Query,
        priority: int = 0,
        deadline_seconds: Optional[float] = None,
        seed: Optional[int] = None,
        topk: int = 1,
    ) -> "Future[OptimizeResponse]":
        """Admit a request; returns a future, or raises on shed/shutdown."""
        if topk < 1:
            raise ValueError(f"topk must be >= 1, got {topk}")
        key = self._router.key_for(query)
        with self._lock:
            if self._state != "running":
                raise ServiceShutdownError(
                    f"sharded service is {self._state}; request rejected"
                )
            if len(self._tickets) >= self._max_outstanding:
                self.rejected += 1
                raise ServiceOverloadError(
                    len(self._tickets), self._max_outstanding
                )
            request_id = self._next_request_id
            self._next_request_id += 1
            request = OptimizeRequest(
                query=query,
                request_id=request_id,
                priority=priority,
                deadline_seconds=deadline_seconds,
                seed=seed if seed is not None else self._derive_seed(request_id),
                topk=topk,
            )
            ticket = _ClusterTicket(request, self._clock(), key)
            # Claim RUNNING immediately: a cluster ticket may hop shards,
            # and a caller cancelling mid-hop would race set_result.
            ticket.future.set_running_or_notify_cancel()
            self._tickets[request_id] = ticket
            self.accepted += 1
        self._dispatch(ticket)
        return ticket.future

    def _alive_shard_ids(self) -> List[int]:
        """Shards a request may be routed to (call with ``_lock`` held)."""
        return [
            handle.shard_id
            for handle in self._handles.values()
            if handle.state in ("up", "spawning") and not handle.pipe_broken
        ]

    def _dispatch(self, ticket: _ClusterTicket) -> None:
        """Route a ticket to a shard, the fallback lane, or a timeout."""
        while True:
            timed_out = False
            request_id = ticket.request.request_id
            with self._lock:
                if request_id not in self._tickets:
                    return  # already completed elsewhere
                remaining = self._remaining_deadline(ticket)
                if remaining is not None and remaining <= 0.0:
                    del self._tickets[request_id]
                    timed_out = True
                else:
                    alive = self._alive_shard_ids()
                    target = self._router.route(
                        ticket.key, alive, exclude=ticket.tried
                    )
                    if target is None:
                        # Every alive shard already bounced this ticket;
                        # a freshly respawned shard may retry it once.
                        target = self._router.route(ticket.key, alive)
                    if target is None or ticket.dispatches >= self._max_dispatches:
                        handle = None
                    else:
                        handle = self._handles[target]
                        handle.outstanding[request_id] = ticket
                        handle.dispatched += 1
                        ticket.shard_id = target
                        ticket.dispatches += 1
            if timed_out:
                deadline = ticket.request.deadline_seconds
                response = OptimizeResponse(
                    request_id=request_id,
                    status="timeout",
                    error=(
                        f"deadline ({deadline * 1000:.0f} ms) "
                        "expired before a shard could serve the request"
                    ),
                )
                self._finish(ticket, response)
                return
            if handle is None:
                self._dispatch_fallback(ticket)
                return
            # The shard serves under the cluster's seed and only what is
            # left of the deadline, so fail-over never extends a budget.
            if handle.send(self._remaining_request(ticket)):
                return
            # The pipe died under us: unassign, remember the bounce, let
            # the supervisor declare the death, and pick again.
            with self._lock:
                handle.pipe_broken = True
                handle.outstanding.pop(request_id, None)
                ticket.tried.add(handle.shard_id)
                ticket.shard_id = None

    def _remaining_deadline(self, ticket: _ClusterTicket) -> Optional[float]:
        if ticket.request.deadline_seconds is None:
            return None
        return ticket.request.deadline_seconds - (
            self._clock() - ticket.admitted_at
        )

    def _remaining_request(self, ticket: _ClusterTicket) -> OptimizeRequest:
        """The ticket's request with the deadline it has left."""
        remaining = self._remaining_deadline(ticket)
        if remaining is None:
            return ticket.request
        return dataclasses.replace(ticket.request, deadline_seconds=remaining)

    def _finish(
        self, ticket: _ClusterTicket, response: OptimizeResponse
    ) -> None:
        """Complete an already-popped ticket and account the outcome.

        Shards and the fallback lane number requests locally; the caller
        always sees the cluster's id.
        """
        response.request_id = ticket.request.request_id
        with self._lock:
            if response.status == "ok":
                self.completed += 1
            else:
                self.failed += 1
        if self._telemetry is not None:
            self._telemetry.registry.counter(
                "repro_shard_responses_total",
                "Cluster responses, by shard (-1 = front-end fallback) "
                "and terminal status.",
                labels={
                    "shard": -1 if response.shard is None else response.shard,
                    "status": response.status,
                },
            ).inc()
        ticket.future.set_result(response)

    # -- the receiver --------------------------------------------------

    def _receiver_loop(self) -> None:
        while not self._stop_event.is_set():
            with self._lock:
                conn_map = {
                    handle.conn: handle
                    for handle in self._handles.values()
                    if handle.conn is not None and not handle.pipe_broken
                }
            if not conn_map:
                time.sleep(self._heartbeat_interval / 2.0)
                continue
            try:
                ready = _connection_wait(
                    list(conn_map), timeout=self._heartbeat_interval
                )
            except OSError:  # repro: disable=no-silent-fallback
                # A pipe was reaped mid-wait; the handle is already
                # marked broken — just re-snapshot the live set.
                continue
            for conn in ready:
                self._drain_connection(conn, conn_map[conn])

    def _drain_connection(self, conn, handle: ShardHandle) -> None:
        while True:
            try:
                if not conn.poll(0):
                    return
                message = conn.recv()
            except (EOFError, BrokenPipeError, OSError):
                # Orderly EOF or a cut pipe: the supervisor's next tick
                # declares the death; nothing to decode here.
                with self._lock:
                    handle.pipe_broken = True
                return
            except Exception:
                # A message cut mid-pickle by SIGKILL: count it, declare
                # the pipe dead (framing is unrecoverable past this).
                with self._lock:
                    handle.pipe_broken = True
                    self.wire_errors += 1
                self._count_event(
                    "repro_shard_wire_errors_total",
                    "Messages that failed to decode off a shard pipe.",
                    shard=handle.shard_id,
                )
                return
            self._on_message(handle, message)

    def _on_message(self, handle: ShardHandle, message) -> None:
        if isinstance(message, WireResponse):
            with self._lock:
                handle.outstanding.pop(message.request_id, None)
                ticket = self._tickets.pop(message.request_id, None)
                if ticket is None:
                    # Late duplicate (the request was failed over and
                    # answered elsewhere first).
                    self.duplicate_responses += 1
                    return
                handle.completed += 1
            self._finish(ticket, message.response)
        elif isinstance(message, Heartbeat):
            with self._lock:
                handle.last_heartbeat = self._clock()
                handle.heartbeats += 1
                handle.local_health = message.health
                handle.breaker_trace = message.breaker_trace
                if handle.state == "spawning":
                    handle.state = "up"
                handle.backoff.reset()
        elif isinstance(message, Hello):
            with self._lock:
                handle.pid = message.pid
                handle.last_heartbeat = self._clock()
                if handle.state == "spawning":
                    handle.state = "up"
        elif isinstance(message, WireShed):
            redispatch = None
            with self._lock:
                handle.sheds += 1
                handle.outstanding.pop(message.request_id, None)
                ticket = self._tickets.get(message.request_id)
                if ticket is not None and ticket.shard_id == handle.shard_id:
                    ticket.tried.add(handle.shard_id)
                    ticket.shard_id = None
                    self.failovers += 1
                    handle.failed_over += 1
                    redispatch = ticket
            if redispatch is not None:
                self._count_event(
                    "repro_shard_failovers_total",
                    "Requests re-routed off a shard (death or shed).",
                    shard=handle.shard_id,
                )
                self._dispatch(redispatch)
        elif isinstance(message, Drained):
            with self._lock:
                handle.drained.set()

    # -- supervision ---------------------------------------------------

    def _supervise_tick(self) -> None:
        """One pass of death detection and backoff-paced respawning."""
        now = self._clock()
        to_declare = []
        to_respawn = []
        with self._lock:
            if self._state == "stopped":
                return
            for handle in self._handles.values():
                if handle.state in ("up", "spawning", "draining"):
                    if handle.state == "draining" and handle.drained.is_set():
                        continue  # exited on purpose; drain_shard reaps it
                    exitcode = handle.exitcode()
                    if exitcode is not None:
                        to_declare.append((handle, f"exit:{exitcode}"))
                    elif handle.pipe_broken:
                        to_declare.append((handle, "pipe"))
                    elif handle.state == "spawning":
                        started = handle.spawned_at or now
                        if now - started > self._spawn_grace:
                            to_declare.append((handle, "spawn-timeout"))
                    else:
                        age = handle.heartbeat_age(now)
                        if (
                            age is not None
                            and age
                            > self._miss_limit * self._heartbeat_interval
                        ):
                            to_declare.append((handle, "heartbeat"))
                elif (
                    handle.state == "backoff"
                    and self._state == "running"
                    and handle.next_respawn_at is not None
                    and now >= handle.next_respawn_at
                ):
                    to_respawn.append(handle)
        for handle, reason in to_declare:
            self._declare_dead(handle, reason)
        for handle in to_respawn:
            self._respawn(handle)

    def _declare_dead(self, handle: ShardHandle, reason: str) -> None:
        """Fail over a dead shard's tickets and schedule its respawn."""
        with self._lock:
            if handle.state in ("backoff", "stopped"):
                return  # already handled
            handle.state = "backoff"
            orphans = [
                ticket
                for ticket in handle.outstanding.values()
                if ticket.request.request_id in self._tickets
            ]
            handle.outstanding.clear()
            handle.failed_over += len(orphans)
            self.failovers += len(orphans)
            delay = handle.backoff.next_delay()
            handle.next_respawn_at = self._clock() + delay
        self._count_event(
            "repro_shard_deaths_total",
            "Shard processes declared dead, by detection signal.",
            shard=handle.shard_id,
            reason=reason.split(":")[0],
        )
        if orphans:
            self._count_event(
                "repro_shard_failovers_total",
                "Requests re-routed off a shard (death or shed).",
                n=len(orphans),
                shard=handle.shard_id,
            )
        handle.kill()
        handle.reap()
        for ticket in orphans:
            with self._lock:
                ticket.tried.add(handle.shard_id)
                ticket.shard_id = None
            self._dispatch(ticket)

    def _respawn(self, handle: ShardHandle) -> None:
        with self._lock:
            if handle.state != "backoff" or self._state != "running":
                return
            handle.spawn(self._clock())
            handle.respawns += 1
            self.respawns += 1
        self._count_event(
            "repro_shard_respawns_total",
            "Shard processes respawned after a crash.",
            shard=handle.shard_id,
        )

    # -- drain (rolling restart) ---------------------------------------

    def drain_shard(
        self, shard_id: int, timeout: float = 30.0, respawn: bool = True
    ) -> bool:
        """Gracefully drain one shard: finish its in-flight work, let it
        exit, then (by default) restart it cold.

        Only one shard may drain at a time — the whole point of a rolling
        restart is that the other N-1 shards keep serving.  Returns
        ``True`` on a clean drain; a wedged drain (timeout) falls back to
        the crash path (kill, fail-over, backoff respawn) and returns
        ``False``.
        """
        with self._lock:
            if self._state != "running":
                raise ServiceShutdownError(
                    f"cannot drain: sharded service is {self._state}"
                )
            if shard_id not in self._handles:
                raise ServiceError(f"no such shard: {shard_id}")
            if any(
                other.state == "draining" for other in self._handles.values()
            ):
                raise ServiceError("another shard is draining; one at a time")
            handle = self._handles[shard_id]
            if handle.state != "up":
                raise ServiceError(
                    f"shard {shard_id} is {handle.state}; only an up shard "
                    "can be drained"
                )
            handle.state = "draining"
            handle.drained.clear()
        if not handle.send(DrainCommand()):
            self._declare_dead(handle, "pipe")
            return False
        if not handle.drained.wait(timeout):
            self._declare_dead(handle, "drain-timeout")
            return False
        handle.reap(join_timeout=5.0)
        with self._lock:
            self.drains += 1
            if respawn and self._state == "running":
                handle.spawn(self._clock())
            else:
                handle.state = "stopped"
        self._count_event(
            "repro_shard_drains_total",
            "Graceful shard drains completed.",
            shard=shard_id,
        )
        return True

    def kill_shard(self, shard_id: int) -> Optional[int]:
        """SIGKILL a shard process (chaos injection); returns its pid."""
        with self._lock:
            if shard_id not in self._handles:
                raise ServiceError(f"no such shard: {shard_id}")
            handle = self._handles[shard_id]
            pid = handle.pid
        handle.kill()
        return pid

    # -- the all-shards-down fallback lane ------------------------------

    def _dispatch_fallback(self, ticket: _ClusterTicket) -> None:
        """Hand the in-process lane a ticket no shard can take."""
        submitted_at = self._clock()
        request = self._remaining_request(ticket)
        try:
            future = self._fallback.submit(
                request.query,
                priority=request.priority,
                deadline_seconds=request.deadline_seconds,
                seed=request.seed,
                topk=request.topk,
            )
        except ReproError as error:  # refused: a typed failure, not a loss
            future = Future()
            future.set_exception(error)
        future.add_done_callback(
            partial(self._fallback_done, ticket, submitted_at)
        )

    def _fallback_done(
        self, ticket: _ClusterTicket, submitted_at: float, future: Future
    ) -> None:
        with self._lock:
            if self._tickets.pop(ticket.request.request_id, None) is None:
                return  # completed elsewhere meanwhile
            self.fallback_served += 1
        self._count_event(
            "repro_shard_fallback_requests_total",
            "Requests served by the front-end ladder with no shard alive.",
        )
        try:
            response = future.result()
        except Exception as error:  # typed failure, never a lost request
            response = OptimizeResponse(
                request_id=ticket.request.request_id,
                status="failed",
                error=f"fallback {type(error).__name__}: {error}",
            )
        # The lane times its own queue; the caller sees the wait since
        # cluster admission.
        response.queue_wait_seconds += submitted_at - ticket.admitted_at
        self._finish(ticket, response)

    # -- health ---------------------------------------------------------

    def healthz(self) -> ClusterHealth:
        """Aggregate the cluster's supervision state (see
        :class:`~repro.service.sharded.health.ClusterHealth`)."""
        now = self._clock()
        with self._lock:
            shards = []
            up = 0
            for handle in self._handles.values():
                if handle.state == "up":
                    up += 1
                shards.append(
                    ShardStatus(
                        shard_id=handle.shard_id,
                        state=handle.state,
                        pid=handle.pid,
                        alive=handle.process_alive(),
                        respawns=handle.respawns,
                        consecutive_failures=(
                            handle.backoff.consecutive_failures
                        ),
                        outstanding=len(handle.outstanding),
                        dispatched=handle.dispatched,
                        completed=handle.completed,
                        failed_over=handle.failed_over,
                        sheds=handle.sheds,
                        heartbeats=handle.heartbeats,
                        heartbeat_age_seconds=handle.heartbeat_age(now),
                        local_health=handle.local_health,
                        breaker_trace=list(handle.breaker_trace),
                    )
                )
            if self._state != "running":
                status = self._state
            elif up == len(self._handles):
                status = "ok"
            elif up > 0:
                status = "degraded"
            else:
                status = "down"
            health = ClusterHealth(
                status=status,
                shards=shards,
                shards_total=len(self._handles),
                shards_up=up,
                accepted=self.accepted,
                rejected=self.rejected,
                completed=self.completed,
                failed=self.failed,
                failovers=self.failovers,
                respawns=self.respawns,
                drains=self.drains,
                fallback_served=self.fallback_served,
                wire_errors=self.wire_errors,
            )
        # Registry work outside the cluster lock, like the single service.
        if self._telemetry is not None:
            publish_cluster_health(self._telemetry.registry, health)
            health.metrics = self._telemetry.registry.snapshot()
        return health

    # -- telemetry ------------------------------------------------------

    def _count_event(
        self, name: str, help_text: str, n: int = 1, **labels
    ) -> None:
        if self._telemetry is None:
            return
        self._telemetry.registry.counter(
            name, help_text, labels=labels or None
        ).inc(n)

    def __repr__(self) -> str:
        with self._lock:
            state = self._state
            states = {
                handle.shard_id: handle.state
                for handle in self._handles.values()
            }
        return f"ShardedService(state={state}, shards={states})"
