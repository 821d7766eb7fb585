"""Fig. 13 benchmark: cyclic queries at a fixed relation count.

The paper uses 16 relations; we default to 12 (DESIGN.md §3 scale note) —
pass a larger ``n_relations`` through the driver to match exactly.
"""

from repro.bench.experiments import figure13
from repro.core.optimizer import Optimizer


def test_bench_figure13(benchmark, results_dir, capsys):
    result = benchmark.pedantic(
        lambda: figure13(n_relations=12, n_queries=8), rounds=1, iterations=1
    )
    result.save(results_dir)
    with capsys.disabled():
        print("\n" + result.text)
    rows = result.data["avg_normed_time"]
    # TDMcC_APCBI dominates the chart algorithms (§V-D.2, Fig. 13) and
    # improves on TDMcL_APCB by a large factor (paper: more than 6).
    assert rows["TDMcC_APCBI"] == min(rows.values())
    assert rows["TDMcL_APCB"] / rows["TDMcC_APCBI"] > 2.0


def test_bench_figure13_headline(benchmark, representative_queries):
    query = representative_queries["cyclic"]
    optimizer = Optimizer(pruning="apcbi", auto_route=False)
    benchmark.pedantic(lambda: optimizer.optimize(query), rounds=3, iterations=1)
