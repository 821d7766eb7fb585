"""Extension bench: join-heuristic quality and its effect on APCBI.

APCBI's advancement 2 only requires *a* heuristic; the paper picked GOO.
This bench measures (a) how far each heuristic's plan is from optimal
(the upper-bound quality) and (b) how the choice affects TDMcC_APCBI's
runtime — an ablation of a design choice DESIGN.md calls out.
"""

import pytest

from repro.baselines.dpccp import DPccp
from repro.context import OptimizationContext
from repro.core.optimizer import Optimizer, run_dpccp
from repro.cost.haas import HaasCostModel
from repro.cost.statistics import StatisticsProvider
from repro.heuristics import available_heuristics, get_heuristic
from repro.plans.builder import PlanBuilder
from repro.workload.generator import QueryGenerator


@pytest.fixture(scope="module")
def heuristic_workload():
    generator = QueryGenerator(seed=777)
    queries = []
    for index in range(8):
        family = ("cyclic", "acyclic")[index % 2]
        scheme = ("fk", "random")[index % 2]
        queries.append(generator.generate(family, 10, scheme))
    return queries


def test_bench_heuristic_quality(benchmark, heuristic_workload, capsys):
    """Average plan-cost ratio (heuristic / optimal) per heuristic."""

    def measure():
        table = {}
        for name in available_heuristics():
            ratios = []
            for query in heuristic_workload:
                optimal = DPccp(OptimizationContext.for_query(query)).run()
                builder = PlanBuilder(
                    StatisticsProvider(query), HaasCostModel()
                )
                result = get_heuristic(name).build(query, builder)
                ratios.append(result.cost / optimal.cost)
            table[name] = ratios
        return table

    table = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = [f"{'heuristic':<18}{'avg cost ratio':>16}{'worst ratio':>14}"]
    for name, ratios in table.items():
        average = sum(ratios) / len(ratios)
        lines.append(f"{name:<18}{average:>15.3f}x{max(ratios):>13.3f}x")
        # Sound upper bounds: never below optimal.
        assert min(ratios) >= 1.0 - 1e-9
    with capsys.disabled():
        print("\n" + "\n".join(lines))


@pytest.mark.parametrize("heuristic", ["goo", "quickpick", "min_selectivity", "ikkbz"])
def test_bench_apcbi_with_heuristic(
    benchmark, heuristic_workload, heuristic, capsys
):
    """TDMcC_APCBI runtime under each upper-bound heuristic."""
    optimizer = Optimizer(pruning="apcbi", heuristic=heuristic, auto_route=False)
    query = heuristic_workload[0]
    baseline = run_dpccp(query)

    def run():
        return optimizer.optimize(query)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.cost == pytest.approx(baseline.cost, rel=1e-6)
