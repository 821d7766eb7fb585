"""Extension bench: pure enumeration overhead across partitioners.

Reproduces the §III-C motivation for conservative partitioning: the
generate-and-test approach (AGaT, [5]) pays an exponential candidate
space on star queries while the MinCut strategies stay polynomial.
"""

from repro.bench.experiments import enumerator_overhead
from repro.core.optimizer import Optimizer


def test_bench_enumerator_overhead(benchmark, results_dir, capsys):
    result = benchmark.pedantic(
        lambda: enumerator_overhead(
            star_sizes=tuple(range(6, 14)),
            chain_sizes=tuple(range(6, 14)),
            queries_per_size=2,
        ),
        rounds=1,
        iterations=1,
    )
    result.save(results_dir)
    with capsys.disabled():
        print("\n" + result.text)

    star = result.data["star"]
    chain = result.data["chain"]
    largest_star = max(star["TDMcA"])
    # §III-C: AGaT's exponential candidate space separates it from the
    # conservative strategy by a wide margin on large stars...
    assert star["TDMcA"][largest_star] > 2.5 * star["TDMcC"][largest_star]
    # ...while on chains every enumerator stays within a small factor.
    largest_chain = max(chain["TDMcA"])
    assert chain["TDMcA"][largest_chain] < 3 * chain["TDMcC"][largest_chain]


def test_bench_agat_enumerator(benchmark, representative_queries):
    """AGaT is perfectly usable on non-star shapes."""
    query = representative_queries["chain"]
    optimizer = Optimizer(enumerator="mincut_agat", pruning="apcbi", auto_route=False)
    result = benchmark.pedantic(
        lambda: optimizer.optimize(query), rounds=3, iterations=1
    )
    assert result.plan.vertex_set == query.graph.all_vertices
