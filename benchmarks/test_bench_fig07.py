"""Fig. 7 benchmark: random acyclic queries, runtime vs relation count."""

import pytest

from repro.bench.experiments import figure7
from repro.core.optimizer import Optimizer


def test_bench_figure7(benchmark, results_dir, capsys):
    result = benchmark.pedantic(
        lambda: figure7(sizes=tuple(range(6, 13)), queries_per_size=2),
        rounds=1, iterations=1,
    )
    result.save(results_dir)
    with capsys.disabled():
        print("\n" + result.text)
    series = result.data["normed_time_by_size"]
    # Relative order of the algorithms is size-independent (§V-D.1): the
    # best pruned algorithm beats unpruned MinCutLazy at every size.
    for size, value in series["TDMcC_APCBI"].items():
        assert value < series["TDMcL"][size]


def test_bench_figure7_headline(benchmark, representative_queries):
    query = representative_queries["acyclic"]
    optimizer = Optimizer(pruning="apcbi", auto_route=False)
    benchmark.pedantic(lambda: optimizer.optimize(query), rounds=3, iterations=1)
