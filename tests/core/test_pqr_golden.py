"""The chosen ``(P*, Q*, R*)`` of eight paper-scale queries, pinned.

The golden file was captured on the commit *before* the search was moved
onto the ``(Q, R)`` grid and must pass on both sides byte for byte: per
unit the chosen ``pqr``, the ``evaluations`` tally, the candidate-space size
and the ``repr()`` of every float ``PlanCost`` field.  The graph passes only
regroup units (a merged unit's members keep their own search), so the
default plan, flattened to its members in raw-lowering order, and the
paper's plan (``graph_passes="off"``) match the same file.  Re-capture
(only when the cost formula itself is meant to change) with::

    PYTHONPATH=src python tests/core/test_pqr_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import ClusterConfig, EngineConfig, FuseMEEngine
from repro.workloads import (
    AutoEncoder,
    AutoEncoderShapes,
    als_loss_query,
    gnmf_updates,
    kl_divergence_query,
    nmf_query,
    pca_covariance_query,
)

GOLDEN = Path(__file__).with_name("pqr_golden.json")
BLOCK = 1000
#: Table 2 of the paper: MovieLens users, items, non-zeros.
_USERS, _ITEMS, _NNZ = 283_228, 58_098, 27_753_444


def _gnmf(factors: int):
    q = gnmf_updates(_USERS, _ITEMS, factors, _NNZ / (_USERS * _ITEMS), BLOCK)
    return [q.u_update, q.v_update]


def _autoencoder(hidden: int):
    shapes = AutoEncoderShapes(500_000, hidden, 2)
    return AutoEncoder(shapes, 8_192, block_size=BLOCK).step_exprs


QUERIES = {
    "gnmf:MovieLens:k200": lambda: _gnmf(200),
    "gnmf:MovieLens:k2000": lambda: _gnmf(2000),
    "nmf:100Kx20K": lambda: nmf_query(100_000, 100_000, 20_000, 0.2, BLOCK).expr,
    "als:300Kx20K": lambda: als_loss_query(
        300_000, 300_000, 20_000, 0.2, BLOCK
    ).expr,
    "kl:100Kx30K": lambda: kl_divergence_query(
        100_000, 100_000, 30_000, 0.2, BLOCK
    ).masked_term,
    "pca:1Mx2K": lambda: pca_covariance_query(1_000_000, 2_000, 10, BLOCK).expr,
    "ae:500K:b8192:h500": lambda: _autoencoder(500),
    "ae:500K:b8192:h1000": lambda: _autoencoder(1000),
}


def snapshot(name: str, graph_passes: str = "all") -> list[dict]:
    """One record per searched unit of query *name*, in raw-lowering order."""
    engine = FuseMEEngine(EngineConfig(
        cluster=ClusterConfig(), block_size=BLOCK, graph_passes=graph_passes
    ))
    plan = engine.lower_query(QUERIES[name]())
    ops = [member for op in plan.ops for member in (op.members or (op,))]
    units = []
    for op in sorted(ops, key=lambda op: op.source_indices):
        result = op.optimizer_result
        if result is None:
            continue
        cost = result.cost
        units.append({
            "pqr": list(result.pqr),
            "evaluations": result.evaluations,
            "candidates": result.candidates,
            "cost_seconds": repr(cost.cost_seconds),
            "net_bytes": repr(cost.net_bytes),
            "com_flops": repr(cost.com_flops),
            "mem_bytes_per_task": repr(cost.mem_bytes_per_task),
        })
    return units


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_chosen_parameters_match_parent_golden(name):
    golden = json.loads(GOLDEN.read_text())
    assert snapshot(name) == golden[name]


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_paper_mode_matches_the_same_golden(name):
    golden = json.loads(GOLDEN.read_text())
    assert snapshot(name, graph_passes="off") == golden[name]


def test_golden_covers_every_query_and_searches_something():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(QUERIES)
    assert all(golden[name] for name in golden)


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: snapshot(name, "off") for name in QUERIES}, indent=1)
        + "\n"
    )
    print(f"wrote {GOLDEN}")
