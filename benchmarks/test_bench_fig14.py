"""Fig. 14 benchmark: density of normed runtimes, fixed-size cyclic queries."""

from repro.bench.experiments import figure14
from repro.core.optimizer import Optimizer


def test_bench_figure14(benchmark, results_dir, capsys):
    result = benchmark.pedantic(
        lambda: figure14(n_relations=12, n_queries=10), rounds=1, iterations=1
    )
    result.save(results_dir)
    with capsys.disabled():
        print("\n" + result.text)
    medians = {
        label: payload["quartiles"][1] for label, payload in result.data.items()
    }
    # "Much steeper and farther to the right": the APCBI medians dominate
    # the unpruned and APCB ones (variant-vs-variant rank is noise-level).
    assert medians["TDMcC_APCBI"] < medians["TDMcL"]
    assert medians["TDMcC_APCBI"] < medians["TDMcL_APCB"]
    assert medians["TDMcC_APCBI"] <= 1.5 * min(medians.values())


def test_bench_figure14_headline(benchmark, representative_queries):
    query = representative_queries["cyclic"]
    optimizer = Optimizer(
        enumerator="mincut_branch", pruning="apcbi", auto_route=False
    )
    benchmark.pedantic(lambda: optimizer.optimize(query), rounds=3, iterations=1)
