"""Every routing decision replays bit for bit against its pinned capture.

``routing_decisions.json`` (see :mod:`tests.integration.routing_workload`)
records, per cost model and query, the algorithm that served the request,
every value its ``algorithm_selected`` event carried, the plan's
``sexpr`` and its cost by ``float.hex``.  A fresh capture must equal it
key for key, under the event schema ``{route, candidates, predicted,
choice, actual}``.
"""

import json

import pytest

from tests.integration.routing_workload import (
    COST_MODELS,
    DECISIONS_PATH,
    capture_model,
)


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DECISIONS_PATH.read_text())


def test_the_capture_covers_both_routes_and_every_choice(pinned):
    assert set(pinned) == set(COST_MODELS)
    routes = {
        (record["evidence"]["route"], record["pruning"])
        for decisions in pinned.values()
        for record in decisions.values()
        if record["evidence"] is not None
    }
    assert routes == {
        ("haas", "apcbi"),
        ("haas", "dpccp"),
        ("cout", "dpconv"),
        ("cout", "dpccp"),
    }


@pytest.mark.parametrize("model", sorted(COST_MODELS))
def test_decisions_replay_bit_for_bit(pinned, model):
    current = capture_model(model)
    want = pinned[model]
    assert list(current) == list(want)
    mismatches = [
        f"{name}: {current[name]} != {record}"
        for name, record in want.items()
        if current[name] != record
    ]
    assert not mismatches, "\n".join(mismatches[:20])
