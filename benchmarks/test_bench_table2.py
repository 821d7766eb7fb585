"""Table II benchmark: normed runtimes of all 15 algorithms x 6 families.

Prints the full paper-style table (also saved to ``results/table2.txt``)
and micro-benchmarks the headline algorithm, TDMcC_APCBI, per family.
"""

import pytest

from repro.bench.experiments import table2
from repro.core.optimizer import Optimizer, run_dpccp


def test_bench_table2_full_matrix(benchmark, evaluation_run, results_dir, capsys):
    result = benchmark.pedantic(
        lambda: table2(evaluation_run), rounds=1, iterations=1
    )
    result.save(results_dir)
    with capsys.disabled():
        print("\n" + result.text)
    # Shape assertions from the paper's Table II.
    data = result.data
    for family in ("chain", "cycle", "clique", "acyclic", "cyclic"):
        rows = data[family]["algorithms"]
        # APCBI strictly improves on APCB on average for the conservative
        # enumerator on every prunable family.
        assert (
            rows["TDMcC_APCBI"]["normed_time"]["avg"]
            < rows["TDMcC_APCB"]["normed_time"]["avg"]
        )
    # Star queries are pruning-disabled: no bounding algorithm should gain.
    star = data["star"]["algorithms"]
    assert star["TDMcC_APCBI"]["avg_s"] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "family", ["chain", "star", "cycle", "clique", "acyclic", "cyclic"]
)
def test_bench_tdmcc_apcbi(benchmark, representative_queries, family):
    """Per-family micro-benchmark of the paper's best combination."""
    query = representative_queries[family]
    optimizer = Optimizer(
        enumerator="mincut_conservative", pruning="apcbi", auto_route=False
    )
    baseline = run_dpccp(query)
    result = benchmark.pedantic(
        lambda: optimizer.optimize(query), rounds=3, iterations=1
    )
    assert result.cost == pytest.approx(baseline.cost, rel=1e-6)
