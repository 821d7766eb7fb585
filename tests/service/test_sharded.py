"""ShardedService integration: routing, crash fail-over, drain, fallback.

These tests spawn real shard processes (fork context on Linux, so spawn
cost is small); they keep shard counts and query sizes low to stay in
tier-1 time budgets.
"""

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.errors import (
    ServiceError,
    ServiceOverloadError,
    ServiceShutdownError,
)
from repro.resilience.optimizer import ResilientOptimizer
from repro.service.retry import RetryPolicy
from repro.service.server import OptimizeRequest
from repro.service.sharded import ShardedService
from repro.service.sharded import service as sharded_service
from repro.service.sharded.service import _ClusterTicket
from repro.service.sharded.supervisor import RespawnBackoff
from repro.service.sharded.wire import WireShed
from repro.telemetry import MetricRegistry, Telemetry
from repro.workload.generator import QueryGenerator


def wait_until(predicate, timeout=15.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture(scope="module")
def queries():
    generator = QueryGenerator(seed=21)
    return [
        generator.generate(family, n)
        for family, n in (("chain", 5), ("star", 5), ("clique", 4))
    ]


def make_service(**overrides):
    defaults = dict(shards=2, workers_per_shard=2)
    defaults.update(overrides)
    return ShardedService(**defaults)


class TestServing:
    def test_round_trip_all_queries(self, queries):
        with make_service() as service:
            futures = [service.submit(query) for query in queries]
            responses = [future.result(timeout=60) for future in futures]
        assert all(response.ok for response in responses)
        assert all(response.plan is not None for response in responses)
        assert all(response.shard is not None for response in responses)

    def test_repeats_land_on_the_same_shard(self, queries):
        with make_service(shards=3) as service:
            first = service.submit(queries[0]).result(timeout=60)
            again = [
                service.submit(queries[0]).result(timeout=60)
                for _ in range(3)
            ]
        assert {response.shard for response in again} == {first.shard}

    def test_plans_match_single_process_optimizer(self, queries):
        clean = {
            index: ResilientOptimizer().optimize(query)
            for index, query in enumerate(queries)
        }
        with make_service(shards=3) as service:
            for index, query in enumerate(queries):
                response = service.submit(query).result(timeout=60)
                assert response.plan.sexpr() == clean[index].plan.sexpr()
                assert repr(response.cost) == repr(clean[index].cost)

    def test_responses_carry_the_cluster_request_id(self):
        # Each shard numbers its own requests from 0; the caller must
        # see the id the cluster assigned, whichever shard served it.
        generator = QueryGenerator(seed=34)
        stream = [
            generator.generate(family, n)
            for family in ("chain", "star", "cycle", "clique")
            for n in (4, 5)
        ]
        with make_service() as service:
            futures = [service.submit(query) for query in stream]
            responses = [future.result(timeout=60) for future in futures]
        assert {response.shard for response in responses} == {0, 1}
        assert [response.request_id for response in responses] == list(
            range(len(stream))
        )

    def test_healthz_reports_ok_when_fully_staffed(self, queries):
        with make_service() as service:
            assert wait_until(lambda: service.healthz().shards_up == 2)
            service.submit(queries[0]).result(timeout=60)
            health = service.healthz()
        assert health.status == "ok"
        assert health.healthy
        assert health.accepted == 1
        assert health.completed == 1
        assert "cluster    : ok" in health.describe()


class TestCrashFailover:
    def test_killed_shard_fails_over_and_respawns(self, queries):
        registry = MetricRegistry(enabled=True)
        with make_service(
            shards=2, telemetry=Telemetry(registry=registry)
        ) as service:
            assert wait_until(lambda: service.healthz().shards_up == 2)
            # In-flight work on every shard, then SIGKILL one of them.
            futures = [
                service.submit(query) for query in queries for _ in range(2)
            ]
            service.kill_shard(0)
            responses = [future.result(timeout=120) for future in futures]
            assert all(response.ok for response in responses)
            # The supervisor must bring shard 0 back.
            assert wait_until(
                lambda: service.healthz().shards_up == 2, timeout=30.0
            )
            health = service.healthz()
        assert health.respawns >= 1
        snapshot = health.metrics
        assert snapshot is not None
        deaths = [
            name for name in snapshot if "repro_shard_deaths_total" in name
        ]
        respawns = [
            name for name in snapshot if "repro_shard_respawns_total" in name
        ]
        assert deaths and respawns
        assert snapshot["repro_shard_cluster_shards_up"] == 2.0

    @pytest.mark.parametrize("topk", (1, 3))
    def test_all_shards_down_serves_via_fallback(
        self, queries, topk, monkeypatch
    ):
        # Backoff long enough that no respawn lands mid-test.
        monkeypatch.setattr(
            sharded_service,
            "DEFAULT_RESPAWN_POLICY",
            lambda: RetryPolicy(max_attempts=3, base_delay=30.0, max_delay=60.0),
        )
        with make_service(shards=2) as service:
            assert wait_until(lambda: service.healthz().shards_up == 2)
            # Cluster request 0 goes to a shard, so the fallback answer
            # (the lane's own request 0) must carry cluster id 1.
            assert service.submit(queries[1]).result(timeout=60).ok
            service.kill_shard(0)
            service.kill_shard(1)
            assert wait_until(lambda: service.healthz().shards_up == 0)
            response = service.submit(queries[0], topk=topk).result(
                timeout=120
            )
            health = service.healthz()
        assert response.ok
        assert response.shard is None  # served by the front-end lane
        assert response.request_id == 1
        assert response.queue_wait_seconds >= 0.0
        clean = ResilientOptimizer().optimize(queries[0])
        assert response.plan.sexpr() == clean.plan.sexpr()
        assert repr(response.cost) == repr(clean.cost)
        if topk > 1:
            assert response.ranked_costs
            assert list(response.ranked_costs) == sorted(response.ranked_costs)
        assert health.status == "down"
        assert health.fallback_served >= 1
        assert "fallback only" in health.describe()

    def test_shed_ticket_is_rerouted_off_the_receiver_thread(self, queries):
        # The receiver must never write to a pipe: a send there can block
        # on a shard that is itself blocked writing back to the receiver.
        from repro.service.sharded.service import _ClusterTicket

        with make_service() as service:
            assert wait_until(lambda: service.healthz().shards_up == 2)
            request = OptimizeRequest(
                query=queries[0], request_id=999_999, seed=1
            )
            ticket = _ClusterTicket(request, service._clock(), key="synthetic")
            ticket.shard_id = 0
            with service._lock:
                service._tickets[999_999] = ticket
            dispatched_on = []
            dispatch = service._dispatch

            def recording(bounced):
                dispatched_on.append(threading.current_thread().name)
                dispatch(bounced)

            service._dispatch = recording
            service._on_message(
                service._handles[0],
                WireShed(
                    shard_id=0, request_id=999_999, queue_depth=64, capacity=64
                ),
            )
            assert dispatched_on == []
            response = ticket.future.result(timeout=60)
            health = service.healthz()
        assert response.ok
        assert response.shard == 1
        assert dispatched_on == ["repro-shard-supervisor"]
        assert health.failovers == 1


class TestDrain:
    def test_drain_restarts_shard_and_counts(self, queries):
        with make_service() as service:
            assert wait_until(lambda: service.healthz().shards_up == 2)
            assert service.drain_shard(0, timeout=30.0)
            health = service.healthz()
            assert health.drains == 1
            # The drained slot restarts clean: no crash-respawn counted.
            assert health.respawns == 0
            assert wait_until(lambda: service.healthz().shards_up == 2)
            # Serving continued throughout.
            assert service.submit(queries[0]).result(timeout=60).ok

    def test_only_one_drain_at_a_time(self):
        with make_service(shards=3) as service:
            assert wait_until(lambda: service.healthz().shards_up == 3)
            with service._lock:
                service._handles[1].state = "draining"
            try:
                with pytest.raises(ServiceError, match="one at a time"):
                    service.drain_shard(2)
            finally:
                with service._lock:
                    service._handles[1].state = "up"

    def test_drain_unknown_or_down_shard_raises(self):
        with make_service() as service:
            with pytest.raises(ServiceError, match="no such shard"):
                service.drain_shard(9)
            with service._lock:
                service._handles[1].state = "backoff"
            try:
                with pytest.raises(ServiceError, match="only an up shard"):
                    service.drain_shard(1)
            finally:
                with service._lock:
                    service._handles[1].state = "up"


class TestAdmissionAndLifecycle:
    def test_overload_sheds_with_typed_error(self, queries):
        with make_service(shard_queue_capacity=1) as service:
            assert wait_until(lambda: service.healthz().shards_up == 2)
            # Fill every admission slot (2 * shards * shard_queue_capacity)
            # without racing completion: park synthetic tickets.
            parked = range(999_000, 999_000 + 2 * 2 * 1)
            with service._lock:
                for request_id in parked:
                    request = OptimizeRequest(
                        query=queries[0], request_id=request_id, seed=1
                    )
                    service._tickets[request_id] = _ClusterTicket(
                        request, admitted_at=0.0, key="synthetic"
                    )
            try:
                with pytest.raises(ServiceOverloadError):
                    service.submit(queries[0])
            finally:
                with service._lock:
                    for request_id in parked:
                        service._tickets.pop(request_id)
            assert service.healthz().rejected == 1

    def test_submit_after_shutdown_raises(self, queries):
        service = make_service().start()
        assert service.shutdown(drain=True, timeout=30.0)
        with pytest.raises(ServiceShutdownError):
            service.submit(queries[0])
        health = service.healthz()
        assert health.status == "stopped"

    def test_service_is_one_shot(self):
        service = make_service().start()
        service.shutdown(drain=True, timeout=30.0)
        with pytest.raises(ServiceShutdownError):
            service.start()

    def test_shards_validate(self):
        with pytest.raises(ValueError, match="shards"):
            ShardedService(shards=0)


#: Runs an idle two-shard cluster, prints its shard pids, then waits to
#: be killed.
_FRONT_END = '''
import time
from repro.service.sharded import ShardedService

service = ShardedService(shards=2, workers_per_shard=1).start()
deadline = time.monotonic() + 60.0
while service.healthz().shards_up < 2 and time.monotonic() < deadline:
    time.sleep(0.01)
print(*(shard.pid for shard in service.healthz().shards), flush=True)
time.sleep(120.0)
'''


def _running(pid):
    """Is ``pid`` a live process?  A zombie awaiting its reaper is not."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] not in ("Z", "X")


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc for liveness"
)
class TestOrphans:
    def test_shards_exit_when_the_front_end_is_killed(self):
        source = os.path.dirname(os.path.dirname(repro.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(
            os.environ,
            PYTHONPATH=source if not path else os.pathsep.join((source, path)),
        )
        front_end = subprocess.Popen(
            [sys.executable, "-c", _FRONT_END],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            pids = [int(pid) for pid in front_end.stdout.readline().split()]
            assert len(pids) == 2 and all(_running(pid) for pid in pids)
        finally:
            front_end.send_signal(signal.SIGKILL)
            front_end.wait(timeout=30)
            front_end.stdout.close()
        # 2 s is 40 heartbeat intervals.
        gone = wait_until(
            lambda: not any(_running(pid) for pid in pids), timeout=2.0
        )
        survivors = [pid for pid in pids if _running(pid)]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert gone, f"shards {survivors} outlived their front-end"


class TestRespawnBackoff:
    def test_seeded_delays_reproduce_and_reset(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.1, max_delay=2.0)
        a = RespawnBackoff(policy, seed=11)
        b = RespawnBackoff(policy, seed=11)
        first = [a.next_delay() for _ in range(6)]
        assert first == [b.next_delay() for _ in range(6)]
        assert a.consecutive_failures == 6
        a.reset()
        assert a.consecutive_failures == 0
        # Delays grow (modulo jitter floor) and cap at max_delay.
        assert max(first) <= policy.max_delay
