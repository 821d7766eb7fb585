"""The admission contract both service tiers share.

``OptimizationService`` and ``ShardedService`` inherit one front-end
core, so each check here runs once per tier: the one-shot lifecycle,
the ``topk`` refusal, request numbering and seeds, and the timeout a
spent deadline answers with.
"""

import pytest

from repro.errors import ServiceShutdownError
from repro.service import OptimizationService, ShardedService
from repro.workload.generator import QueryGenerator

SERVICE_SEED = 7

TIERS = {
    "OptimizationService": lambda: OptimizationService(
        workers=1, seed=SERVICE_SEED
    ),
    "ShardedService": lambda: ShardedService(
        shards=1, workers_per_shard=1, seed=SERVICE_SEED
    ),
}


@pytest.fixture(scope="module")
def query():
    return QueryGenerator(seed=31).generate("chain", 4)


@pytest.mark.parametrize("tier", sorted(TIERS))
def test_shared_admission_contract(tier, query):
    service = TIERS[tier]()
    numbered = []
    new_request = service._new_request

    def recording(*args):
        request = new_request(*args)
        numbered.append(request)
        return request

    service._new_request = recording

    with pytest.raises(ServiceShutdownError, match="request rejected"):
        service.submit(query)
    service.start()
    try:
        with pytest.raises(ServiceShutdownError, match="one-shot"):
            service.start()

        # A refused topk is checked first and uses up no request id.
        with pytest.raises(ValueError, match="topk"):
            service.submit(query, topk=0)
        responses = [service.optimize(query) for _ in range(3)]
        assert [r.request_id for r in responses] == [0, 1, 2]
        assert all(response.ok for response in responses)
        # Request k's seed is a function of the service seed and k alone,
        # the same on either tier.
        assert [(r.request_id, r.seed) for r in numbered] == [
            (k, SERVICE_SEED * 1_000_003 + k * 7_919 + 1) for k in range(3)
        ]
        assert service.optimize(query, seed=99).ok
        assert numbered[-1].seed == 99

        spent = service.submit(query, deadline_seconds=0).result(timeout=60)
        assert spent.status == "timeout"
        assert spent.request_id == 4
        assert spent.error.startswith("deadline (0 ms) ")
    finally:
        assert service.shutdown(drain=True, timeout=30.0)

    with pytest.raises(ServiceShutdownError, match="request rejected"):
        service.submit(query)
    with pytest.raises(ServiceShutdownError, match="one-shot"):
        service.start()
    health = service.healthz()
    assert (health.accepted, health.rejected) == (5, 0)
    assert (health.completed, health.failed) == (
        (4, 0) if tier == "OptimizationService" else (4, 1)
    )
