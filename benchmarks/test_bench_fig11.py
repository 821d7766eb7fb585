"""Fig. 11 benchmark: cycle queries, runtime vs relation count."""

from repro.bench.experiments import figure11
from repro.core.optimizer import Optimizer


def test_bench_figure11(benchmark, results_dir, capsys):
    result = benchmark.pedantic(
        lambda: figure11(sizes=tuple(range(6, 14)), queries_per_size=2),
        rounds=1, iterations=1,
    )
    result.save(results_dir)
    with capsys.disabled():
        print("\n" + result.text)
    series = result.data["normed_time_by_size"]
    largest = max(series["TDMcC_APCBI"])
    assert series["TDMcC_APCBI"][largest] < series["TDMcL"][largest]


def test_bench_figure11_headline(benchmark, representative_queries):
    query = representative_queries["cycle"]
    optimizer = Optimizer(pruning="apcbi", auto_route=False)
    benchmark.pedantic(lambda: optimizer.optimize(query), rounds=3, iterations=1)
