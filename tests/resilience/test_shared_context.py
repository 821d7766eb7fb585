"""The ladder runs every rung on ONE shared context (ISSUE satellite).

A tight budget forces the exact rung to fail and a heuristic rung to
rescue the run; the test asserts that exactly one
:class:`~repro.context.OptimizationContext` was built for the whole
descent, that the rescuing rung reused its statistics provider (fork
semantics), and that the returned plan still validates.
"""

import pytest

from repro.context import OptimizationContext
from repro.plans.validation import check_finite, validate_plan
from repro.resilience.budget import Budget
from repro.resilience.optimizer import ResilientOptimizer
from repro.workload.generator import QueryGenerator


@pytest.fixture
def query():
    return QueryGenerator(seed=31).generate("clique", 9)


def test_one_context_is_shared_across_all_rungs(query, monkeypatch):
    built = []
    real_for_query = OptimizationContext.for_query.__func__

    def counting_for_query(cls, *args, **kwargs):
        context = real_for_query(cls, *args, **kwargs)
        built.append(context)
        return context

    monkeypatch.setattr(
        OptimizationContext, "for_query", classmethod(counting_for_query)
    )

    result = ResilientOptimizer().optimize(
        query, budget=Budget(max_expansions=5)
    )

    # The exact rung ran out of budget; a lower rung produced the plan.
    assert result.degraded
    assert result.rung != "exact"
    check_finite(result.plan)
    validate_plan(result.plan, query)

    # Exactly one context was built for the entire descent, and it is the
    # one the result exposes.
    assert len(built) == 1
    assert result.context is built[0]

    # Fork semantics: every rung context shares the descent's statistics
    # provider and budget identity.
    fork = result.context.fork()
    assert fork.provider is result.context.provider
    assert fork.budget is result.context.budget

    # The shared provider actually accumulated the rungs' statistics work
    # (more than the per-relation singletons it starts with).
    assert result.context.provider.cache_size() > query.n_relations


def test_successful_exact_rung_also_exposes_the_context(query):
    result = ResilientOptimizer().optimize(query)
    assert not result.degraded
    assert result.context is not None
    assert result.stats is result.context.stats


def test_two_threads_forking_one_parent_match_sequential(query):
    """Concurrent rungs over a shared parent context stay deterministic
    (ISSUE satellite): two threads optimizing through forks of one parent
    produce plans bit-identical to a sequential run's."""
    import threading

    sequential = ResilientOptimizer().optimize(query)

    parent = OptimizationContext.for_query(query)
    results = [None, None]
    errors = []

    def optimize(slot):
        try:
            results[slot] = ResilientOptimizer().optimize(
                query, context=parent.fork()
            )
        except Exception as error:
            errors.append(error)

    threads = [
        threading.Thread(target=optimize, args=(slot,)) for slot in (0, 1)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not errors
    for result in results:
        assert result is not None
        validate_plan(result.plan, query)
        assert result.plan.sexpr() == sequential.plan.sexpr()
        assert result.cost.hex() == sequential.cost.hex()

    # Both forks really shared the parent's statistics provider.
    assert all(r.context.provider is parent.provider for r in results)


def test_a_context_for_another_query_raises_before_the_descent():
    """A context built for a different query is the caller's error: the
    ladder raises it instead of descending to a degraded plan."""
    query = QueryGenerator(seed=3).generate("chain", 6)
    other = QueryGenerator(seed=3).generate("cycle", 7)
    context = OptimizationContext.for_query(other)
    with pytest.raises(ValueError, match="different query"):
        ResilientOptimizer().optimize(query, context=context)
