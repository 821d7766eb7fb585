"""Fig. 10 benchmark: star queries measure pure pruning overhead."""

from repro.bench.experiments import figure10
from repro.core.optimizer import Optimizer


def test_bench_figure10(benchmark, results_dir, capsys):
    result = benchmark.pedantic(
        lambda: figure10(sizes=tuple(range(5, 11)), queries_per_size=2),
        rounds=1, iterations=1,
    )
    result.save(results_dir)
    with capsys.disabled():
        print("\n" + result.text)
    series = result.data["normed_time_by_size"]
    # Pruning cannot help on these stars, so the bounding algorithms pay
    # overhead relative to their unpruned counterparts on average.
    apcb = sum(series["TDMcL_APCB"].values()) / len(series["TDMcL_APCB"])
    unpruned = sum(series["TDMcL"].values()) / len(series["TDMcL"])
    assert apcb > 0.8 * unpruned


def test_bench_figure10_headline(benchmark, representative_queries):
    query = representative_queries["star"]
    optimizer = Optimizer(pruning="apcbi", auto_route=False)
    benchmark.pedantic(lambda: optimizer.optimize(query), rounds=3, iterations=1)
