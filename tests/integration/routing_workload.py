"""The routing-decision workload and its pinned capture.

Every automatic choice of the algorithm that serves a request is pinned
here: which algorithm ran (``result.pruning``), everything the route
recorded on its ``algorithm_selected`` event, the plan's ``sexpr`` and
its cost by ``float.hex``.  The workload covers both cost models over
the six :class:`~repro.workload.generator.QueryGenerator` families at
n = 3-15 (clique up to 10) and generator seeds 0-3, the enumspeed rows
(:mod:`repro.bench.enumspeed`), and a smaller grid under the configured
choices the selector also makes (``pruning="dpconv"``'s fallback,
APCBI_Opt's oracle, a budgeted run).  Run as a script to (re)capture
``routing_decisions.json``::

    PYTHONPATH=src:. python tests/integration/routing_workload.py

The capture was made before the selector moved into
:mod:`repro.core.routing`, with each event rewritten into the one
``{route, candidates, predicted, choice, actual}`` schema.  Its ``cout``
section was re-captured when DPconv began to sweep a tree's inner edges,
which sent every ``C_out`` tree to DPconv; no cost changed.  It was
re-captured again when the ``C_out`` route began to bound DPccp by GOO's
cost: exactly the 39 ``dpccp`` rows changed, and only in
``actual.ccps_considered``; all 368 plans and costs, and the ``haas``
section byte for byte, stayed the same.  Its ``haas`` section was
re-captured when the Haas route began to bound DPccp by GOO's cost with
the base relations' pages in the bound: exactly 231 of the 309 ``dpccp``
rows changed, and only in ``actual.ccps_considered`` (summed, 2,014,619
-> 1,331,174; none rose); every choice, plan and cost, and the ``cout``
section byte for byte, stayed the same.  Regenerate
it only for an intentional change of a routing decision, never to paper
over a regression.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

from repro.bench.enumspeed import DEFAULT_WORKLOAD, HAAS_WORKLOAD, SEED
from repro.core.optimizer import Optimizer
from repro.cost.cout import CoutCostModel
from repro.cost.haas import HaasCostModel
from repro.query import Query
from repro.resilience.budget import Budget
from repro.telemetry import MetricRegistry, Telemetry, Tracer
from repro.workload.generator import QueryGenerator

DECISIONS_PATH = Path(__file__).resolve().parent / "routing_decisions.json"

#: Cost model name -> factory; both routes see every query of the grid.
COST_MODELS = {"haas": HaasCostModel, "cout": CoutCostModel}

FAMILIES = ("chain", "star", "cycle", "clique", "acyclic", "cyclic")

#: Largest size per family; the rest go up to 15.
MAX_RELATIONS = {"clique": 10}

SEEDS = (0, 1, 2, 3)

#: Configured choices pinned on a smaller grid: name -> (optimizer
#: options, whether the run is budgeted).
CONFIGURED = {
    "dpconv": ({"pruning": "dpconv"}, False),
    "apcbi_opt": ({"pruning": "apcbi_opt"}, False),
    "budgeted": ({}, True),
}

#: The sizes of the configured grid (generator seed 0).
CONFIGURED_SIZES = (4, 7, 10)


def grid_queries(sizes=None, seeds=SEEDS) -> Iterator[Tuple[str, Query]]:
    """``(name, query)`` over the family grid, one generator per query."""
    for family in FAMILIES:
        largest = MAX_RELATIONS.get(family, 15)
        for n in sizes or range(3, largest + 1):
            if n > largest:
                continue
            for seed in seeds:
                query = QueryGenerator(seed=seed).generate(family, n)
                yield f"{family}-{n}@{seed}", query


def enumspeed_queries(model: str) -> Iterator[Tuple[str, Query]]:
    """The enumspeed rows of ``model``'s section, drawn as enumspeed does."""
    workload = HAAS_WORKLOAD if model == "haas" else DEFAULT_WORKLOAD
    generator = QueryGenerator(seed=SEED)
    for family, n in workload:
        yield f"enumspeed/{family}-{n}", generator.generate(family, n)


def _exact(value):
    """JSON form of an event value: floats by ``float.hex``, tuples as lists."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _exact(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_exact(item) for item in value]
    return value


def _evidence(event: Dict[str, object]) -> Dict[str, object]:
    """The schema's fields of one ``algorithm_selected`` event."""
    return {
        key: event[key]
        for key in ("route", "candidates", "predicted", "choice", "actual")
    }


def decide(
    query: Query, model: str, options=None, budgeted: bool = False
) -> Dict[str, object]:
    """One request's decision record."""
    telemetry = Telemetry(registry=MetricRegistry(), tracer=Tracer())
    optimizer = Optimizer(
        cost_model_factory=COST_MODELS[model], telemetry=telemetry, **(options or {})
    )
    budget = Budget(max_expansions=10**9) if budgeted else None
    result = optimizer.optimize(query, budget=budget)
    events = [
        event
        for span in telemetry.tracer.finished_spans()
        for event in span.events
        if event["name"] == "algorithm_selected"
    ]
    evidence: Optional[Dict[str, object]] = None
    if events:
        (event,) = events
        evidence = _exact(_evidence(event))
    return {
        "enumerator": result.enumerator,
        "pruning": result.pruning,
        "evidence": evidence,
        "sexpr": result.plan.sexpr(),
        "cost": result.cost.hex(),
    }


def capture_model(model: str) -> Dict[str, Dict[str, object]]:
    """Every routed decision under one cost model, by query name."""
    decisions: Dict[str, Dict[str, object]] = {}
    for name, query in (*grid_queries(), *enumspeed_queries(model)):
        decisions[name] = decide(query, model)
    for label, (options, budgeted) in CONFIGURED.items():
        for name, query in grid_queries(CONFIGURED_SIZES, seeds=(0,)):
            decisions[f"{label}/{name}"] = decide(query, model, options, budgeted)
    return decisions


def capture() -> Dict[str, Dict[str, Dict[str, object]]]:
    """``{cost model: {query name: decision record}}``."""
    return {model: capture_model(model) for model in COST_MODELS}


if __name__ == "__main__":
    DECISIONS_PATH.write_text(json.dumps(capture(), indent=2) + "\n")
    print(f"wrote {DECISIONS_PATH}")
