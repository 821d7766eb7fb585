"""Wire-format round-trip tests: every field survives a real pipe.

The sharded tier's whole correctness story crosses one multiprocessing
pipe as pickled dataclasses, so these tests send each message type
through a *real* duplex pipe (not just ``pickle.loads(pickle.dumps(x))``
— connection framing and the spawn-context pickler are part of the
contract) and compare **every dataclass field by introspection**.  Using
``dataclasses.fields`` rather than a hand-written field list means a
field added to a message type later cannot silently stop round-tripping:
it is compared here automatically the moment it exists.
"""

import dataclasses
import multiprocessing

import pytest

from repro.query import Query
from repro.resilience.optimizer import (
    DegradationReport,
    ResilientOptimizer,
    RungAttempt,
)
from repro.service.server import OptimizeRequest, OptimizeResponse
from repro.service.sharded.wire import (
    Drained,
    DrainCommand,
    Heartbeat,
    Hello,
    ShutdownCommand,
    WireResponse,
    WireShed,
    strip_response,
)
from repro.workload.generator import QueryGenerator


@pytest.fixture(scope="module")
def query() -> Query:
    return QueryGenerator(seed=13).generate("star", 5)


@pytest.fixture(scope="module")
def resilient_result(query):
    # A real optimization result: the richest payload the wire carries.
    return ResilientOptimizer().optimize(query)


def pipe_round_trip(message):
    """Send ``message`` through a real duplex multiprocessing pipe."""
    parent, child = multiprocessing.Pipe(duplex=True)
    try:
        parent.send(message)
        assert child.poll(5.0), "message never arrived on the pipe"
        return child.recv()
    finally:
        parent.close()
        child.close()


def assert_fields_equal(received, original, *, skip=()):
    """Compare every dataclass field, recursing into nested dataclasses.

    ``skip`` names fields deliberately excluded from the wire contract
    (``strip_response`` drops them before sending).
    """
    assert type(received) is type(original)
    field_names = [f.name for f in dataclasses.fields(original)]
    for name in field_names:
        if name in skip:
            continue
        got = getattr(received, name)
        want = getattr(original, name)
        if dataclasses.is_dataclass(want) and not isinstance(want, type):
            assert_fields_equal(got, want)
        elif isinstance(want, list) and want and dataclasses.is_dataclass(want[0]):
            assert len(got) == len(want), f"field {name!r} changed length"
            for got_item, want_item in zip(got, want):
                assert_fields_equal(got_item, want_item)
        else:
            assert got == want, (
                f"field {name!r} did not survive the pipe: "
                f"got {got!r}, want {want!r}"
            )


class TestRequestSide:
    def test_wire_request_round_trips_every_field(self, query):
        # What the front-end sends a shard: the admitted request with its
        # remaining deadline swapped in.
        admitted = OptimizeRequest(
            query=query,
            request_id=41,
            priority=-3,
            deadline_seconds=2.0,
            seed=987_654_321,
            topk=3,
        )
        request = dataclasses.replace(admitted, deadline_seconds=1.25)
        received = pipe_round_trip(request)
        assert_fields_equal(received, request, skip=("query",))
        # Query has no __eq__; the canonical fingerprint is its identity.
        from repro.context.fingerprint import fingerprint

        assert fingerprint(received.query).key == fingerprint(query).key

    def test_optimize_request_round_trips_every_field(self, query):
        request = OptimizeRequest(
            query=query,
            request_id=7,
            priority=-3,
            deadline_seconds=0.5,
            seed=1_000_003,
        )
        received = pipe_round_trip(request)
        assert_fields_equal(received, request, skip=("query",))

    def test_control_messages_round_trip(self):
        for message in (DrainCommand(), ShutdownCommand(drain=False)):
            received = pipe_round_trip(message)
            assert_fields_equal(received, message)


class TestResponseSide:
    def test_response_with_full_degradation_report(self, query):
        report = DegradationReport(
            rung="heuristic:goo",
            attempts=[
                RungAttempt(rung="exact", status="failed", detail="nan cost"),
                RungAttempt(rung="heuristic:ikkbz", status="failed"),
                RungAttempt(rung="heuristic:goo", status="ok"),
            ],
            budget={"cost_evaluations": 100, "used": 40},
            budget_exceeded="cost_evaluations",
            chosen_cost=123.5,
        )
        response = OptimizeResponse(
            request_id=41,
            status="ok",
            cost=123.5,
            rung="heuristic:goo",
            degraded=True,
            attempts=3,
            retries=2,
            breaker_waits=1,
            queue_wait_seconds=0.25,
            service_seconds=1.5,
            injected={"cost_model": 2, "catalog": 1},
            error=None,
            shard=2,
        )
        envelope = WireResponse(shard_id=2, request_id=41, response=response)
        received = pipe_round_trip(envelope)
        assert received.shard_id == 2
        assert received.request_id == 41
        assert_fields_equal(
            received.response, response, skip=("plan", "result")
        )
        # The report rides inside the result; check it alone too.
        assert_fields_equal(pipe_round_trip(report), report)

    def test_real_result_survives_stripped(self, query, resilient_result):
        """A genuine ResilientResult crosses the pipe bit-identically
        (minus the deliberately stripped context/exact envelopes)."""
        response = OptimizeResponse(
            request_id=9,
            status="ok",
            plan=resilient_result.plan,
            cost=resilient_result.cost,
            rung=resilient_result.rung,
            result=resilient_result,
            shard=0,
        )
        stripped = strip_response(response)
        assert stripped.result.context is None
        assert stripped.result.exact is None
        received = pipe_round_trip(
            WireResponse(shard_id=0, request_id=9, response=stripped)
        )
        got = received.response
        assert got.plan.sexpr() == resilient_result.plan.sexpr()
        assert repr(got.cost) == repr(resilient_result.cost)
        assert_fields_equal(
            got.result.report, resilient_result.report
        )
        assert_fields_equal(
            got.result,
            stripped.result,
            skip=("plan", "query", "stats", "report"),
        )
        assert got.result.stats.as_dict() == resilient_result.stats.as_dict()

    def test_strip_response_touches_nothing_else(self, resilient_result):
        """strip_response drops exactly {context, exact} and no other
        field — enumerated by introspection so a new ResilientResult
        field joins the wire contract by default."""
        response = OptimizeResponse(
            request_id=1, status="ok", result=resilient_result
        )
        stripped = strip_response(response)
        for field in dataclasses.fields(stripped.result):
            value = getattr(stripped.result, field.name)
            if field.name in ("context", "exact"):
                assert value is None
            else:
                assert value is getattr(resilient_result, field.name)

    def test_shard_side_messages_round_trip(self):
        heartbeat = Heartbeat(
            shard_id=3,
            sequence=17,
            health={"status": "ok", "workers_alive": 2},
            breaker_trace=[
                "cost_model: closed -> open @0.10",
                "cost_model: open -> half_open @0.20",
            ],
        )
        for message in (
            Hello(shard_id=3, pid=4242),
            heartbeat,
            WireShed(shard_id=3, request_id=12, queue_depth=64, capacity=64),
            Drained(shard_id=3, served=120),
        ):
            received = pipe_round_trip(message)
            assert_fields_equal(received, message)
