"""Fig. 12 benchmark: clique queries, runtime vs relation count.

Cliques have the maximal number of edges and ccps, so the pruning
potential is highest here (§V-D.2).
"""

from repro.bench.experiments import figure12
from repro.core.optimizer import Optimizer


def test_bench_figure12(benchmark, results_dir, capsys):
    result = benchmark.pedantic(
        lambda: figure12(sizes=tuple(range(5, 10)), queries_per_size=2),
        rounds=1, iterations=1,
    )
    result.save(results_dir)
    with capsys.disabled():
        print("\n" + result.text)
    series = result.data["normed_time_by_size"]
    largest = max(series["TDMcC_APCBI"])
    # At the largest size the pruned algorithm clearly beats unpruned lazy.
    assert series["TDMcC_APCBI"][largest] < series["TDMcL"][largest]


def test_bench_figure12_headline(benchmark, representative_queries):
    query = representative_queries["clique"]
    optimizer = Optimizer(pruning="apcbi", auto_route=False)
    benchmark.pedantic(lambda: optimizer.optimize(query), rounds=3, iterations=1)
