"""End-to-end integration tests exercising the public API."""

import pytest

import repro
from repro import (
    AdvancementConfig,
    Optimizer,
    Query,
    default_suite,
    optimize,
    random_acyclic_query,
    run_dpccp,
)


class TestQuickstartFlow:
    def test_readme_quickstart(self):
        query = random_acyclic_query(8, seed=42)
        result = optimize(
            query, enumerator="mincut_conservative", pruning="apcbi"
        )
        assert result.plan.vertex_set == query.graph.all_vertices
        assert result.cost > 0
        assert "Join" in result.explain()

    def test_version_exported(self):
        assert repro.__version__


class TestFullMatrixOnOneQuery:
    @pytest.mark.parametrize("enumerator", repro.available_partitionings())
    @pytest.mark.parametrize(
        "pruning", ["none", "acb", "pcb", "apcb", "apcbi", "apcbi_opt"]
    )
    def test_every_combination_is_optimal(self, enumerator, pruning):
        query = random_acyclic_query(7, seed=77)
        baseline = run_dpccp(query)
        result = optimize(query, enumerator=enumerator, pruning=pruning)
        assert result.cost == pytest.approx(baseline.cost)


class TestSuiteIntegration:
    def test_default_suite_queries_optimize(self):
        suite = default_suite(scale=0.4)
        queries = suite.queries("acyclic")[:2]
        optimizer = Optimizer(pruning="apcbi")
        for query in queries:
            baseline = run_dpccp(query)
            assert optimizer.optimize(query).cost == pytest.approx(baseline.cost)


class TestRobustnessAcrossEnumerators:
    def test_apcbi_counters_are_enumeration_order_insensitive(self):
        """The paper's robustness claim, in miniature: APCBI's success
        counter varies less across enumerators than APCB's failure
        counter does (the enumeration order matters less)."""
        query = repro.random_cyclic_query(9, seed=13)
        built = {}
        for enumerator in (
            "mincut_lazy", "mincut_branch", "mincut_conservative"
        ):
            result = Optimizer(
                enumerator=enumerator, pruning="apcbi", auto_route=False
            ).optimize(query)
            built[enumerator] = result.stats.plan_classes_built
        values = list(built.values())
        spread = (max(values) - min(values)) / max(1, max(values))
        assert spread < 0.6  # loose sanity bound; exact equality not expected


class TestRelabeledQueryEquivalence:
    def test_optimal_cost_invariant_under_renumbering(self):
        query = random_acyclic_query(7, seed=5)
        permutation = list(reversed(range(query.n_relations)))
        relabeled = query.relabel(permutation)
        assert run_dpccp(query).cost == pytest.approx(run_dpccp(relabeled).cost)
