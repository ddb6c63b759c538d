"""Count gate for the ``(P, Q, R)`` search: no clock, no timing threshold.

The pruned search prices the whole ``(Q, R)`` grid with a fixed number of
cost-model walks — one ``raw_seconds`` (a Net and a Com walk) for every
slab bound, one ``mem_est`` walk at the cells' parallelism floors and up to
three more for the cells that need a larger ``P``, one pricing of the
candidates, one scalar ``evaluate`` of the winner.  The number of walks
never depends on ``J`` or ``K``: a search that prices candidates one at a
time makes hundreds of calls and grows with ``J * K``, and fails here on
any runner.
"""

import pytest

from repro import ClusterConfig, EngineConfig
from repro.core import cost
from repro.core.cost import CostModel
from repro.core.optimizer import optimize_parameters
from repro.core.plan import PartialFusionPlan
from repro.lang import DAG, log, matrix_input

BLOCK = 1000
EXTENT_I, EXTENT_J = 142, 30
#: One call of each evaluates one Eq. 3, 4 or 5 walk of a tree.
WALKS = ("_mem_sum", "_net_sum", "_com_sum")


@pytest.fixture
def tally(monkeypatch):
    """Call counts of ``raw_seconds`` and of the compiled walks (the
    outermost tree's; the plan here has no nested multiplication)."""
    counts = dict.fromkeys(WALKS + ("raw_seconds",), 0)

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in WALKS:
        counted(cost, name)
    counted(CostModel, "raw_seconds")
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
        assert tally["_mem_sum"] <= 4 + 1  # + the winner's evaluate
        walks[extent_k] = sum(tally[name] for name in WALKS)
    assert walks[2] == walks[20]
    assert walks[2] <= 11  # 5 Eq. 3 walks, 3 Eq. 4, 3 Eq. 5
