"""Fig. 9 benchmark: chain queries, runtime vs relation count."""

from repro.bench.experiments import figure9
from repro.core.optimizer import Optimizer


def test_bench_figure9(benchmark, results_dir, capsys):
    result = benchmark.pedantic(
        lambda: figure9(sizes=tuple(range(6, 16)), queries_per_size=2),
        rounds=1, iterations=1,
    )
    result.save(results_dir)
    with capsys.disabled():
        print("\n" + result.text)
    series = result.data["normed_time_by_size"]
    # Chains prune well: APCBI beats the unpruned enumerators throughout
    # the upper size range.
    for size in list(series["TDMcC_APCBI"])[-3:]:
        assert series["TDMcC_APCBI"][size] < 1.0


def test_bench_figure9_headline(benchmark, representative_queries):
    query = representative_queries["chain"]
    optimizer = Optimizer(pruning="apcbi", auto_route=False)
    benchmark.pedantic(lambda: optimizer.optimize(query), rounds=3, iterations=1)
