"""Table I sanity benchmarks: every named algorithm runs and is optimal.

Table I of the paper is the name matrix; the benchmark equivalent is a
micro-benchmark of each (enumerator, pruning) combination on one
representative query, verifying optimality against DPccp on the side.
"""

import pytest

from repro.core.optimizer import Optimizer, run_dpccp

ENUMERATORS = ("mincut_lazy", "mincut_branch", "mincut_conservative")
PRUNINGS = ("none", "pcb", "apcb", "apcbi", "apcbi_opt")


@pytest.mark.parametrize("enumerator", ENUMERATORS)
@pytest.mark.parametrize("pruning", PRUNINGS)
def test_bench_algorithm(benchmark, representative_queries, enumerator, pruning):
    query = representative_queries["acyclic"]
    baseline = run_dpccp(query)
    optimizer = Optimizer(enumerator=enumerator, pruning=pruning, auto_route=False)
    result = benchmark.pedantic(
        lambda: optimizer.optimize(query), rounds=3, iterations=1
    )
    assert result.cost == pytest.approx(baseline.cost, rel=1e-6)


def test_bench_dpccp_baseline(benchmark, representative_queries):
    query = representative_queries["acyclic"]
    result = benchmark.pedantic(lambda: run_dpccp(query), rounds=3, iterations=1)
    assert result.plan.vertex_set == query.graph.all_vertices
