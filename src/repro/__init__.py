"""repro — Effective and Robust Pruning for Top-Down Join Enumeration.

A from-scratch Python reproduction of Fender, Moerkotte, Neumann and Leis
(ICDE 2012): the MinCutConservative partitioning algorithm, the APCBI
branch-and-bound pruning strategy with its six advancements, the APCB / PCB
/ ACB baselines, the MinCutLazy and MinCutBranch enumerators, the DPccp
bottom-up baseline, the GOO heuristic, a Haas-et-al. I/O cost model, the
Steinbrunn-style workload generator and the full measurement harness that
regenerates every table and figure of the paper's evaluation.

Quickstart::

    from repro import random_acyclic_query, optimize

    query = random_acyclic_query(10, seed=42)
    result = optimize(query, enumerator="mincut_conservative", pruning="apcbi")
    print(result.explain())
"""

from repro.catalog import Catalog, RelationStats
from repro.core import (
    AdvancementConfig,
    OptimizationResult,
    Optimizer,
    algorithm_label,
    optimize,
    optimize_topk,
    run_dpccp,
    run_goo,
)
from repro.baselines import DPccp
from repro.context import (
    OptimizationContext,
    PlanCache,
    fingerprint,
    statistics_for,
)
from repro.cost import CoutCostModel, HaasCostModel, StatisticsProvider
from repro.heuristics import available_heuristics, get_heuristic
from repro.errors import (
    CatalogError,
    DisconnectedGraphError,
    GraphError,
    OptimizationError,
    ReproError,
    UnknownAlgorithmError,
)
from repro.graph import QueryGraph
from repro.partitioning import available_partitionings, get_partitioning
from repro.plans import (
    JoinNode,
    JoinTree,
    LeafNode,
    PlanValidationError,
    check_finite,
    plan_fingerprint,
    validate_plan,
)
from repro.query import Query
from repro.resilience import (
    Budget,
    BudgetExceeded,
    DegradationReport,
    FaultInjector,
    InjectedFaultError,
    ResilienceError,
    ResilientOptimizer,
    ResilientResult,
)
from repro.errors import (
    CircuitOpenError,
    RetriesExhaustedError,
    ServiceError,
    ServiceOverloadError,
    ServiceShutdownError,
)
from repro.service import (
    AdmissionQueue,
    BreakerBoard,
    CircuitBreaker,
    ManualClock,
    OptimizationService,
    OptimizeRequest,
    OptimizeResponse,
    RetryPolicy,
    ServiceHealth,
)
from repro.stats import OptimizationStats
from repro.workload import (
    QueryGenerator,
    WorkloadSuite,
    chain_query,
    clique_query,
    cycle_query,
    default_suite,
    generate_query,
    random_acyclic_query,
    random_cyclic_query,
    star_query,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # queries and statistics
    "Query",
    "QueryGraph",
    "Catalog",
    "RelationStats",
    "StatisticsProvider",
    # optimization context and plan cache
    "OptimizationContext",
    "PlanCache",
    "fingerprint",
    "statistics_for",
    # optimizers
    "optimize",
    "optimize_topk",
    "Optimizer",
    "OptimizationResult",
    "AdvancementConfig",
    "DPccp",
    "run_dpccp",
    "run_goo",
    "algorithm_label",
    "get_heuristic",
    "available_heuristics",
    # cost models
    "HaasCostModel",
    "CoutCostModel",
    # plans
    "JoinTree",
    "JoinNode",
    "LeafNode",
    "validate_plan",
    "check_finite",
    "plan_fingerprint",
    "PlanValidationError",
    # resilience (anytime optimization and graceful degradation)
    "Budget",
    "BudgetExceeded",
    "DegradationReport",
    "FaultInjector",
    "InjectedFaultError",
    "ResilienceError",
    "ResilientOptimizer",
    "ResilientResult",
    # serving (concurrent optimization service)
    "OptimizationService",
    "OptimizeRequest",
    "OptimizeResponse",
    "AdmissionQueue",
    "RetryPolicy",
    "CircuitBreaker",
    "BreakerBoard",
    "ManualClock",
    "ServiceHealth",
    # workload
    "QueryGenerator",
    "WorkloadSuite",
    "default_suite",
    "generate_query",
    "chain_query",
    "star_query",
    "cycle_query",
    "clique_query",
    "random_acyclic_query",
    "random_cyclic_query",
    # partitioning registry
    "get_partitioning",
    "available_partitionings",
    # stats & errors
    "OptimizationStats",
    "ReproError",
    "GraphError",
    "DisconnectedGraphError",
    "CatalogError",
    "OptimizationError",
    "UnknownAlgorithmError",
    "ServiceError",
    "ServiceOverloadError",
    "ServiceShutdownError",
    "CircuitOpenError",
    "RetriesExhaustedError",
]
