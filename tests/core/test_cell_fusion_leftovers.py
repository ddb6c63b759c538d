"""Cell fusion of the operators no CFG candidate absorbed.

``_cell_fuse_leftovers`` grows each group from a worklist of newly added
members over the DAG's parent map.  The fixpoint it replaced — re-scan the
whole group every round until nothing joins — is kept here as the oracle:
both must return the same groups, in the same order, on the golden paper
queries and on random element-wise chains.  A clock-free count shows the
work per member is constant, and a 2,000-operator ``X + X + ...`` chain
explains.
"""

from __future__ import annotations

import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import FuseMEEngine
from repro.core import cfg
from repro.core.cfg import (
    _cell_fuse_leftovers,
    _ensure_layouts,
    exploitation_phase,
    exploration_phase,
    is_termination,
)
from repro.execution import as_dag
from repro.lang import DAG, exp, log, matrix_input, parse_expression, sq, sum_of
from repro.lang.dag import MatMulNode

from tests.conftest import make_config
from tests.core.test_pqr_golden import BLOCK, QUERIES

BS = 25


def fixpoint_cell_fuse(dag, leftovers):
    """The previous grouping: every round re-scans the whole group."""
    remaining = set(leftovers)
    groups = []
    for node in [n for n in dag.nodes() if n in remaining]:
        if node not in remaining:
            continue
        group = {node}
        remaining.discard(node)
        if isinstance(node, MatMulNode):
            groups.append(group)
            continue
        top_taken = is_termination(dag, node)
        changed = True
        while changed:
            changed = False
            for member in list(group):
                for child in member.inputs:
                    if (
                        child in remaining
                        and not is_termination(dag, child)
                        and not isinstance(child, MatMulNode)
                    ):
                        group.add(child)
                        remaining.discard(child)
                        changed = True
                if (
                    dag.consumers(member) == 1
                    and member not in dag.roots
                    and not is_termination(dag, member)
                ):
                    for parent in dag.parents(member):
                        if parent not in remaining or isinstance(parent, MatMulNode):
                            continue
                        if not is_termination(dag, parent):
                            group.add(parent)
                            remaining.discard(parent)
                            changed = True
                        elif not top_taken:
                            group.add(parent)
                            remaining.discard(parent)
                            top_taken = True
                            changed = True
        groups.append(group)
    return groups


def planner_leftovers(dag, config):
    """The operators ``generate_fusion_plan`` hands to Cell fusion."""
    partials = _ensure_layouts(
        exploitation_phase(exploration_phase(dag), config)
    )
    covered = set().union(*(plan.nodes for plan in partials))
    return [n for n in dag.nodes() if n.is_operator and n not in covered]


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_golden_queries_group_as_the_fixpoint_does(name):
    engine = FuseMEEngine(make_config(block_size=BLOCK))
    dag = engine.prepare_dag(as_dag(QUERIES[name]()))
    operators = [n for n in dag.nodes() if n.is_operator]
    for leftovers in (planner_leftovers(dag, engine.config), operators):
        assert _cell_fuse_leftovers(dag, leftovers) == fixpoint_cell_fuse(
            dag, leftovers
        )


@st.composite
def elementwise_dags(draw):
    """Element-wise chains over shared leaves, with reused intermediates
    (materialization points), products, and 1-3 roots beside the chains'
    aggregations."""
    x = matrix_input("X", 50, 50, BS, density=0.2)
    y = matrix_input("Y", 50, 50, BS)
    pool, sums = [x, y], []
    for _ in range(draw(st.integers(1, 30))):
        op = draw(st.sampled_from(["add", "mul", "scale", "exp", "sq", "log",
                                   "sum", "matmul"]))
        a = draw(st.sampled_from(pool))
        b = draw(st.sampled_from(pool))
        if op == "add":
            pool.append(a + b)
        elif op == "mul":
            pool.append(a * b)
        elif op == "scale":
            pool.append(a * 3.0)
        elif op == "exp":
            pool.append(exp(a))
        elif op == "sq":
            pool.append(sq(a))
        elif op == "log":
            pool.append(log(a + 1.0))
        elif op == "sum":
            sums.append(sum_of(a))
        else:
            pool.append(a @ b)
    roots = draw(st.lists(st.sampled_from(pool[2:]), min_size=1, max_size=3,
                          unique_by=id))
    return DAG([root.node for root in roots + sums])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(elementwise_dags(), st.booleans())
def test_random_chains_group_as_the_fixpoint_does(dag, everything):
    leftovers = (
        [n for n in dag.nodes() if n.is_operator] if everything
        else planner_leftovers(dag, make_config())
    )
    assert _cell_fuse_leftovers(dag, leftovers) == fixpoint_cell_fuse(
        dag, leftovers
    )


def addition_chain(length):
    x = matrix_input("X", 100, 100, BS)
    return DAG(parse_expression("X" + " + X" * length, {"X": x}).node)


def member_visits(grouping, length):
    """``is_termination`` calls made while grouping an ``X + X + ...``
    chain of *length* additions: a fixed number per member visit."""
    dag = addition_chain(length)
    leftovers = [n for n in dag.nodes() if n.is_operator]
    calls = 0
    terminates = is_termination

    def counted(dag, node):
        nonlocal calls
        calls += 1
        return terminates(dag, node)

    with mock.patch.object(cfg, "is_termination", counted), \
            mock.patch.object(sys.modules[__name__], "is_termination", counted):
        groups = grouping(dag, leftovers)
    assert len(groups) == 1 and len(groups[0]) == length
    return calls


def test_member_visits_grow_linearly():
    assert member_visits(_cell_fuse_leftovers, 800) <= 2.2 * member_visits(
        _cell_fuse_leftovers, 400
    )
    # the fixpoint it replaced visits every member once per round
    assert member_visits(fixpoint_cell_fuse, 200) > 3 * member_visits(
        fixpoint_cell_fuse, 100
    )


def test_a_2000_operator_addition_chain_explains():
    x = matrix_input("X", 100, 100, BS)
    query = parse_expression("X" + " + X" * 2000, {"X": x})
    rendered = FuseMEEngine(make_config()).explain(query)
    assert "1 unit(s)" in rendered
