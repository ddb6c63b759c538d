"""Count gate for the ``(P, Q, R)`` search: no clock, no timing threshold.

The pruned search prices the whole ``(Q, R)`` grid with a fixed number of
cost-model tree walks — one ``raw_seconds`` for every slab bound, one
``mem_est`` per bisection halving of ``P``, one pricing of the candidates,
one scalar ``evaluate`` of the winner.  The number of walks depends on the
``I`` extent alone (the bisection depth), never on ``J`` or ``K``: a search
that prices candidates one at a time makes hundreds of calls and grows with
``J * K``, and fails here on any runner.
"""

import math

import pytest

from repro import ClusterConfig, EngineConfig
from repro.core.cost import CostModel
from repro.core.optimizer import optimize_parameters
from repro.core.plan import PartialFusionPlan
from repro.lang import DAG, log, matrix_input

BLOCK = 1000
EXTENT_I, EXTENT_J = 142, 30
ESTIMATES = ("mem_est", "net_est", "com_est")


@pytest.fixture
def tally(monkeypatch):
    """Call counts of the cost model's public estimates."""
    counts = dict.fromkeys(ESTIMATES + ("raw_seconds",), 0)

    def counted(name):
        original = getattr(CostModel, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(CostModel, name, wrapper)

    for name in counts:
        counted(name)
    return counts


def search(extent_k: int):
    rows, cols, common = EXTENT_I * BLOCK, EXTENT_J * BLOCK, extent_k * BLOCK
    x = matrix_input("X", rows, cols, BLOCK, density=0.2)
    u = matrix_input("U", rows, common, BLOCK)
    v = matrix_input("V", cols, common, BLOCK)
    dag = DAG((x * log(u @ v.T + 1e-8)).node)
    plan = PartialFusionPlan(set(dag.operators()), dag)
    config = EngineConfig(cluster=ClusterConfig(), block_size=BLOCK)
    return optimize_parameters(plan, config, method="pruned")


def test_walks_per_search_are_few_and_independent_of_the_grid(tally):
    walks = {}
    for extent_k in (2, 20):
        for name in tally:
            tally[name] = 0
        result = search(extent_k)
        assert result.feasible
        assert result.candidates == EXTENT_I * EXTENT_J * extent_k
        assert tally["raw_seconds"] == 1
        walks[extent_k] = sum(tally[name] for name in ESTIMATES)
    assert walks[2] == walks[20]
    assert walks[2] <= 12 + math.ceil(math.log2(EXTENT_I))
