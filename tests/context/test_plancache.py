"""PlanCache mechanics and Optimizer integration."""

import time

import pytest

from repro.context import (
    CachedPlan,
    OptimizationContext,
    PlanCache,
    fingerprint,
    replay_plan,
)
from repro.core import optimizer as optimizer_module
from repro.core import routing as routing_module
from repro.baselines import dpccp as dpccp_module
from repro.baselines import dpconv as dpconv_module
from repro.core.optimizer import Optimizer, run_dpccp
from repro.cost.cout import CoutCostModel
from repro.plans.join_tree import plan_fingerprint
from repro.plans.validation import validate_plan
from repro.workload.generator import QueryGenerator


@pytest.fixture
def query():
    return QueryGenerator(seed=21).generate("cycle", 7)


def _cached_entry(query):
    context = OptimizationContext.for_query(query)
    plan = run_dpccp(query).plan
    fp = fingerprint(query)
    return CachedPlan(plan.relabel(fp.mapping), fp.payload), fp, context


class TestLruMechanics:
    def test_hits_misses_and_recency(self, query):
        cache = PlanCache(capacity=4)
        entry, fp, _ = _cached_entry(query)
        assert cache.get("a") is None
        cache.put("a", entry)
        found = cache.get("a")
        # Defensive copy: an equal entry, never the live cached object.
        assert found is not entry
        assert found.canonical_plan.sexpr() == entry.canonical_plan.sexpr()
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_eviction_is_least_recently_used(self, query):
        cache = PlanCache(capacity=2)
        entry, _, _ = _cached_entry(query)
        cache.put("a", entry)
        cache.put("b", entry)
        cache.get("a")  # refresh "a"; "b" becomes LRU
        cache.put("c", entry)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.evictions == 1

    def test_zero_capacity_disables_storage(self, query):
        cache = PlanCache(capacity=0)
        entry, _, _ = _cached_entry(query)
        cache.put("a", entry)
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_clear_preserves_counters(self, query):
        cache = PlanCache()
        entry, _, _ = _cached_entry(query)
        cache.put("a", entry)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1
        snapshot = cache.snapshot()
        assert snapshot["hits"] == 1 and snapshot["entries"] == 0


class TestReplay:
    def test_replay_reproduces_the_plan_bit_for_bit(self, query):
        entry, fp, context = _cached_entry(query)
        replayed = replay_plan(entry.canonical_plan, fp.mapping, context)
        original = run_dpccp(query).plan
        assert replayed.cost.hex() == original.cost.hex()
        assert replayed.sexpr() == original.sexpr()

    def test_replay_for_an_isomorphic_query_validates(self, query):
        entry, _, _ = _cached_entry(query)
        perm = [2, 5, 0, 6, 1, 4, 3]
        permuted = query.relabel(perm)
        context = OptimizationContext.for_query(permuted)
        replayed = replay_plan(
            entry.canonical_plan, fingerprint(permuted).mapping, context
        )
        validate_plan(replayed, permuted, context.cost_model)


class TestOptimizerIntegration:
    def test_repeated_query_hits_and_skips_enumeration(self, query):
        cache = PlanCache()
        optimizer = Optimizer(plan_cache=cache)
        cold = optimizer.optimize(query)
        warm = optimizer.optimize(query)
        assert cache.hits == 1 and cache.misses == 1
        assert warm.memo_entries == 0
        assert warm.stats.plan_cache_hits == 1
        assert cold.stats.plan_cache_misses == 1
        assert warm.cost.hex() == cold.cost.hex()
        assert warm.plan.sexpr() == cold.plan.sexpr()

    def test_isomorphic_query_hits_the_same_entry(self, query):
        cache = PlanCache()
        optimizer = Optimizer(plan_cache=cache)
        optimizer.optimize(query)
        permuted = query.relabel([3, 0, 5, 1, 6, 2, 4])
        result = optimizer.optimize(permuted)
        assert cache.hits == 1
        validate_plan(result.plan, permuted)

    def test_different_configurations_do_not_share_entries(self, query):
        cache = PlanCache()
        apcbi = Optimizer(pruning="apcbi", plan_cache=cache)
        pcb = Optimizer(pruning="pcb", plan_cache=cache)
        apcbi.optimize(query)
        pcb.optimize(query)
        assert cache.hits == 0 and cache.misses == 2
        assert len(cache) == 2

    @pytest.mark.parametrize("first", ["routed", "unrouted"])
    def test_routing_on_and_off_do_not_share_entries(self, first):
        # Under C_out the routed optimizer serves DPconv's plan and the
        # unrouted one APCBI's: equal costs, different tie plans here.
        query = QueryGenerator(seed=2).generate("clique", 7)
        cache = PlanCache()
        optimizers = {
            "routed": Optimizer(cost_model_factory=CoutCostModel, plan_cache=cache),
            "unrouted": Optimizer(
                cost_model_factory=CoutCostModel,
                plan_cache=cache,
                auto_route=False,
            ),
        }
        second = "unrouted" if first == "routed" else "routed"
        served = {
            name: optimizers[name].optimize(query) for name in (first, second)
        }
        assert cache.hits == 0 and cache.misses == 2
        assert len(cache) == 2
        assert served["routed"].pruning == "dpconv"
        assert served["unrouted"].pruning == "apcbi"
        assert plan_fingerprint(served["routed"].plan) != plan_fingerprint(
            served["unrouted"].plan
        )

    def test_routing_on_keeps_the_default_key_format(self):
        # Persisted entries written before routing had a switch stay
        # addressable: only the opt-out adds a marker.
        routed = Optimizer()._config_signature()
        unrouted = Optimizer(auto_route=False)._config_signature()
        assert routed == "mincut_conservative|apcbi|haas|goo|111111"
        assert unrouted == f"{routed}|unrouted"

    def test_cacheless_optimizer_is_unchanged(self, query):
        bare = Optimizer().optimize(query)
        assert bare.stats.plan_cache_hits == 0
        assert bare.stats.plan_cache_misses == 0


    def test_hit_is_labelled_with_the_fallback_that_ran(self, query):
        # pruning="dpconv" under Haas is served by DPccp; a hit must say
        # so too, not claim the configured algorithm.
        optimizer = Optimizer(pruning="dpconv", plan_cache=PlanCache())
        cold = optimizer.optimize(query)
        warm = optimizer.optimize(query)
        assert warm.memo_entries == 0
        assert cold.pruning == warm.pruning == "dpccp"
        assert cold.label == warm.label == "DPccp"

    def test_hit_is_labelled_with_the_auto_fast_path(self):
        query = QueryGenerator(seed=2).generate("clique", 7)
        optimizer = Optimizer(
            cost_model_factory=CoutCostModel, plan_cache=PlanCache()
        )
        cold = optimizer.optimize(query)
        warm = optimizer.optimize(query)
        assert warm.memo_entries == 0
        assert cold.pruning == warm.pruning == "dpconv"
        assert cold.enumerator == warm.enumerator == "dpconv"

    @pytest.mark.parametrize("family, n", [("clique", 7), ("chain", 16)])
    def test_cout_hit_predicts_nothing(self, monkeypatch, family, n):
        # A hit is labelled from its entry: no connected-set pass runs.
        query = QueryGenerator(seed=2).generate(family, n)
        optimizer = Optimizer(
            cost_model_factory=CoutCostModel, plan_cache=PlanCache()
        )
        cold = optimizer.optimize(query)

        def refuse(graph):
            raise AssertionError("a cache hit enumerated connected sets")

        for module in (dpccp_module, dpconv_module, routing_module):
            monkeypatch.setattr(module, "enumerate_csg", refuse)
        warm = optimizer.optimize(query)
        assert warm.stats.plan_cache_hits == 1
        assert warm.cost.hex() == cold.cost.hex()
        assert (warm.enumerator, warm.pruning) == (
            cold.enumerator,
            cold.pruning,
        )

    def test_entry_without_an_algorithm_is_labelled_as_configured(self, query):
        # Entries written before they recorded their algorithm.
        cache = PlanCache()
        optimizer = Optimizer(pruning="dpconv", plan_cache=cache)
        fp = fingerprint(query)
        entry, _, _ = _cached_entry(query)
        cache.put(optimizer._cache_key(fp.key, 1), entry)
        warm = optimizer.optimize(query)
        assert warm.memo_entries == 0
        assert (warm.enumerator, warm.pruning) == ("dpccp", "dpccp")

    def test_hit_elapsed_covers_fingerprint_and_probe(self, query, monkeypatch):
        optimizer = Optimizer(plan_cache=PlanCache())
        optimizer.optimize(query)
        pause = 0.05

        def slow_fingerprint(target):
            time.sleep(pause)
            return fingerprint(target)

        monkeypatch.setattr(optimizer_module, "fingerprint", slow_fingerprint)
        warm = optimizer.optimize(query)
        assert warm.memo_entries == 0
        assert warm.elapsed >= pause


class TestRankedEntries:
    def test_cached_plan_stores_the_canonical_ranked_tuple(self, query):
        context = OptimizationContext.for_query(query)
        ranked = run_dpccp(query, topk=3).ranked
        fp = fingerprint(query)
        canonical = tuple(plan.relabel(fp.mapping) for plan in ranked)
        entry = CachedPlan(canonical[0], fp.payload, canonical)
        assert entry.canonical_ranked == canonical
        assert isinstance(entry.canonical_ranked, tuple)
        for plan in entry.canonical_ranked:
            replayed = replay_plan(plan, fp.mapping, context)
            validate_plan(replayed, query)

    def test_canonical_ranked_defaults_empty(self, query):
        entry, _, _ = _cached_entry(query)
        assert entry.canonical_ranked == ()

    def test_topk_hit_and_miss_counters_match_single_best(self, query):
        # One miss then one hit — the ranked payload rides along without
        # perturbing the cache's observable accounting.
        cache = PlanCache()
        optimizer = Optimizer(plan_cache=cache, topk=3)
        cold = optimizer.optimize_topk(query, k=3)
        warm = optimizer.optimize_topk(query, k=3)
        assert cache.hits == 1 and cache.misses == 1
        assert cold.stats.plan_cache_misses == 1
        assert warm.stats.plan_cache_hits == 1
        assert [p.cost.hex() for p in warm.ranked] == [
            p.cost.hex() for p in cold.ranked
        ]


class TestDefensiveCopies:
    """Regression: ``get`` must never hand out the live cached object.

    A caller that mutated the returned ``CachedPlan`` (or the trees
    hanging off it) used to poison the shared L1 entry for every later
    hit; ``get`` now returns a deep clone."""

    def test_get_returns_a_clone_not_the_cached_object(self, query):
        cache = PlanCache()
        entry, _, _ = _cached_entry(query)
        cache.put("a", entry)
        first = cache.get("a")
        second = cache.get("a")
        assert first is not entry and second is not entry
        assert first is not second
        assert first.canonical_plan is not entry.canonical_plan
        assert (
            first.canonical_plan.sexpr() == entry.canonical_plan.sexpr()
        )

    def test_mutating_a_returned_entry_cannot_poison_the_cache(self, query):
        cache = PlanCache()
        entry, fp, context = _cached_entry(query)
        original_sexpr = entry.canonical_plan.sexpr()
        cache.put("a", entry)
        stolen = cache.get("a")
        # Hostile caller: rewrite the returned tree in place.
        node = stolen.canonical_plan
        while hasattr(node, "left"):
            node = node.left
        node.cardinality = -1.0
        node.name = "poisoned"
        clean = cache.get("a")
        assert clean.canonical_plan.sexpr() == original_sexpr
        replayed = replay_plan(clean.canonical_plan, fp.mapping, context)
        validate_plan(replayed, query)

    def test_clone_preserves_ranked_plans_and_provenance(self, query):
        ranked = run_dpccp(query, topk=3).ranked
        fp = fingerprint(query)
        canonical = tuple(plan.relabel(fp.mapping) for plan in ranked)
        entry = CachedPlan(
            canonical[0],
            fp.payload,
            canonical,
            cold_seconds=1.5,
            expansions=42,
            algorithm=("dpccp", "dpccp"),
        )
        clone = entry.clone()
        assert clone.cold_seconds == 1.5 and clone.expansions == 42
        assert clone.algorithm == ("dpccp", "dpccp")
        assert len(clone.canonical_ranked) == len(canonical)
        for ours, theirs in zip(clone.canonical_ranked, canonical):
            assert ours is not theirs
            assert ours.sexpr() == theirs.sexpr()


class TestThreadSafety:
    """The cache is shared by service workers; its LRU + counters must
    survive concurrent hammering without losing structural integrity."""

    def test_concurrent_gets_and_puts_stay_consistent(self, query):
        import threading

        entry, _, _ = _cached_entry(query)
        cache = PlanCache(capacity=8)
        errors = []
        barrier = threading.Barrier(4)

        def worker(worker_id):
            barrier.wait()
            try:
                for i in range(200):
                    key = f"w{worker_id}-k{i % 12}"
                    cache.put(key, entry)
                    found = cache.get(key)
                    assert found is None or (
                        found is not entry
                        and found.payload == entry.payload
                    )
                    if i % 50 == 0:
                        cache.snapshot()
                        len(cache)
            except Exception as error:
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # Bounded, and the books balance: every lookup was a hit or a miss.
        assert len(cache) <= 8
        assert cache.hits + cache.misses == 4 * 200
        snapshot = cache.snapshot()
        assert snapshot["entries"] == len(cache)

    def test_concurrent_optimizers_share_one_cache(self, query):
        import threading

        cache = PlanCache(capacity=8)
        results = [None] * 3

        def optimize(slot):
            optimizer = Optimizer(plan_cache=cache)
            results[slot] = optimizer.optimize(query)

        threads = [
            threading.Thread(target=optimize, args=(n,)) for n in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        sexprs = {result.plan.sexpr() for result in results}
        assert len(sexprs) == 1  # all three agree bit for bit
        digests = {result.cost.hex() for result in results}
        assert len(digests) == 1
        assert cache.misses >= 1
