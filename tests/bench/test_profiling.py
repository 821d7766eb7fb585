"""Tests for the per-class enumeration profiler."""

import pytest

from repro.bench.profiling import EnumerationProfile, InstrumentedPartitioning
from repro.context import OptimizationContext
from repro.core.apcb import ApcbPlanGenerator
from repro.core.apcbi import ApcbiPlanGenerator
from repro.core.plangen import TopDownPlanGenerator
from repro.cost.haas import HaasCostModel
from repro.partitioning import MinCutConservative
from repro.workload.generator import QueryGenerator


@pytest.fixture
def cascade_query():
    """An fk cyclic query — the shape where APCB re-enumerates heavily."""
    return QueryGenerator(seed=5).generate("cyclic", 9, "fk")


def _profiled_run(generator_cls, query):
    instrumented = InstrumentedPartitioning(MinCutConservative())
    generator = generator_cls(
        OptimizationContext.for_query(query, HaasCostModel()),
        instrumented,
    )
    generator.run()
    return instrumented.profile


class TestInstrumentedPartitioning:
    def test_wrapping_preserves_emissions(self, small_query):
        instrumented = InstrumentedPartitioning(MinCutConservative())
        plain = list(
            MinCutConservative().partitions(
                small_query.graph, small_query.graph.all_vertices
            )
        )
        wrapped = list(
            instrumented.partitions(
                small_query.graph, small_query.graph.all_vertices
            )
        )
        assert wrapped == plain
        assert instrumented.profile.ccps[small_query.graph.all_vertices] == len(
            plain
        )

    def test_label_passthrough(self):
        instrumented = InstrumentedPartitioning(MinCutConservative())
        assert instrumented.label == "TDMcC"
        assert "profile" in instrumented.name


class TestCascadeDiagnosis:
    def test_unpruned_enumeration_is_cascade_free(self, cascade_query):
        profile = _profiled_run(TopDownPlanGenerator, cascade_query)
        assert profile.cascade_factor() == pytest.approx(1.0)
        assert profile.re_enumerated_classes() == []

    def test_apcb_re_enumerates_and_apcbi_recovers(self, cascade_query):
        """The §IV-D worst case made visible per class."""
        apcb = _profiled_run(ApcbPlanGenerator, cascade_query)
        apcbi = _profiled_run(ApcbiPlanGenerator, cascade_query)
        assert apcb.cascade_factor() > apcbi.cascade_factor()
        assert apcb.re_enumerated_classes(), "expected an APCB cascade here"

    def test_render_mentions_cascade_factor(self, cascade_query):
        profile = _profiled_run(ApcbPlanGenerator, cascade_query)
        text = profile.render(limit=3)
        assert "cascade factor" in text


class TestEnumerationProfile:
    def test_empty_profile(self):
        profile = EnumerationProfile()
        assert profile.cascade_factor() == 0.0
        assert profile.total_passes == 0
        assert "0 classes" in profile.render()

    def test_render_survives_a_pass_with_no_recorded_ccps(self):
        # Regression: a class recorded in `passes` but absent from `ccps`
        # (legacy profiles built before the atomic recording fix) used to
        # raise KeyError mid-report.
        profile = EnumerationProfile(passes={0b111: 3}, ccps={})
        text = profile.render()
        assert "0 ccps total" in text

    def test_abandoned_pass_records_both_maps(self, small_query):
        # A consumer that abandons the generator mid-pass (the budget /
        # pruning cutoff shape) must still leave the class in *both* maps.
        instrumented = InstrumentedPartitioning(MinCutConservative())
        root = small_query.graph.all_vertices
        iterator = instrumented.partitions(small_query.graph, root)
        next(iterator)
        iterator.close()
        profile = instrumented.profile
        assert profile.passes[root] == 1
        assert profile.ccps[root] == 1  # exactly what was consumed
        assert "enumeration passes" in profile.render()

    def test_zero_ccp_pass_renders_as_zero(self, small_query):
        # A pass whose inner strategy produces nothing at all must land in
        # both maps and render as 0 ccps instead of crashing.
        class _EmptyStrategy(MinCutConservative):
            def partitions(self, graph, vertex_set):
                return iter(())

        instrumented = InstrumentedPartitioning(_EmptyStrategy())
        root = small_query.graph.all_vertices
        for _ in range(2):
            assert list(instrumented.partitions(small_query.graph, root)) == []
        profile = instrumented.profile
        assert profile.passes[root] == 2
        assert profile.ccps[root] == 0
        assert "(0 ccps total)" in profile.render()
