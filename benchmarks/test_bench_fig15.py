"""Fig. 15 benchmark: the six-advancement ablation on top of APCB."""

from repro.bench.experiments import figure15
from repro.core.advancements import AdvancementConfig
from repro.core.optimizer import Optimizer


def test_bench_figure15(benchmark, results_dir, capsys):
    result = benchmark.pedantic(
        lambda: figure15(
            acyclic_sizes=(8, 10, 12),
            cyclic_sizes=(8, 9, 10),
            queries_per_size=2,
        ),
        rounds=1, iterations=1,
    )
    result.save(results_dir)
    with capsys.disabled():
        print("\n" + result.text)
    for family in ("acyclic", "cyclic"):
        bars = result.data[family]
        # The full combination beats plain APCB clearly.
        assert bars["APCBI"] < bars["APCB"]
        # APCBI_Opt is only a bounded improvement over APCBI (§V-D.3:
        # "not much potential for improving accumulated cost bounding").
        assert bars["APCBI_Opt"] > 0.5 * bars["APCBI"]


def test_bench_single_advancement(benchmark, representative_queries):
    """Micro-benchmark of APCB plus the rising budget (the paper's most
    significant single advancement for acyclic graphs)."""
    query = representative_queries["acyclic"]
    optimizer = Optimizer(
        pruning="apcbi",
        config=AdvancementConfig.only("rising_budget"),
        auto_route=False,
    )
    benchmark.pedantic(lambda: optimizer.optimize(query), rounds=3, iterations=1)
