"""Property-based tests on the fusion plan generator.

Random multi-operator DAGs (with shared subexpressions, aggregations and
several multiplications) are planned by CFG and by GEN; both must always
produce valid fusion plans — every operator covered exactly once, units in
dependency order — and executing the CFG plan must match the reference
interpreter.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import FuseMEEngine, SystemDSLikeEngine
from repro.baselines.gen import GenPlanner
from repro.core.cfg import (
    _is_outgoing,
    exploration_phase,
    generate_fusion_plan,
    is_termination,
)
from repro.core.plan import PartialFusionPlan
from repro.lang import (
    DAG, colsum, evaluate_many, log, matrix_input, rowsum, sq, sum_of,
)
from repro.lang.dag import MatMulNode
from repro.matrix import rand_dense, rand_sparse

from tests.conftest import make_config

BS = 25
M, N, K = 75, 50, 25

INPUTS = {
    "X": rand_sparse(M, N, 0.1, BS, seed=21),
    "U": rand_dense(M, K, BS, seed=22),
    "V": rand_dense(K, N, BS, seed=23),
    "Y": rand_dense(M, N, BS, seed=24),
}
DENSE = {k: m.to_numpy() for k, m in INPUTS.items()}


def leaves():
    return {
        "X": matrix_input("X", M, N, BS, density=0.1),
        "U": matrix_input("U", M, K, BS),
        "V": matrix_input("V", K, N, BS),
        "Y": matrix_input("Y", M, N, BS),
    }


@st.composite
def random_dags(draw):
    """A DAG with shared products, element-wise layers and 1-2 roots."""
    env = leaves()
    product = env["U"] @ env["V"]          # shared by several consumers
    pool = [product, env["X"], env["Y"]]
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["mul", "add", "scale", "log1", "sq"]))
        a = draw(st.sampled_from(pool))
        if op == "mul":
            b = draw(st.sampled_from(pool))
            pool.append(a * b)
        elif op == "add":
            b = draw(st.sampled_from(pool))
            pool.append(a + b)
        elif op == "scale":
            pool.append(a * 2.0)
        elif op == "log1":
            pool.append(log(sq(a) + 1.0))
        else:
            pool.append(sq(a))
    roots = [pool[-1]]
    if draw(st.booleans()):
        roots.append(sum_of(draw(st.sampled_from(pool))))
    return DAG([r.node for r in roots])


def assert_valid_plan(dag, fusion_plan):
    covered = []
    for unit in fusion_plan:
        covered.extend(unit.plan.nodes)
    operators = [n for n in dag.nodes() if n.is_operator]
    assert sorted(n.node_id for n in covered) == sorted(
        n.node_id for n in operators
    )
    produced = set()
    for unit in fusion_plan:
        for dep in unit.dependencies():
            if dep.is_operator:
                assert dep in produced
        produced.update(unit.outputs)


@settings(max_examples=25, deadline=None)
@given(random_dags())
def test_cfg_plans_are_always_valid(dag):
    fusion_plan = generate_fusion_plan(dag, make_config())
    assert_valid_plan(dag, fusion_plan)


@settings(max_examples=25, deadline=None)
@given(random_dags())
def test_gen_plans_are_always_valid(dag):
    fusion_plan = GenPlanner().plan(dag)
    assert_valid_plan(dag, fusion_plan)


@settings(max_examples=15, deadline=None)
@given(random_dags())
def test_cfg_execution_matches_reference(dag):
    result = FuseMEEngine(make_config()).execute(dag, INPUTS)
    expected = evaluate_many(list(dag.roots), DENSE)
    for root, value in zip(result.dag.roots, expected):
        np.testing.assert_allclose(
            result.outputs[root].to_numpy(),
            np.atleast_2d(value),
            atol=1e-7, rtol=1e-7,
        )


@settings(max_examples=10, deadline=None)
@given(random_dags())
def test_gen_execution_matches_reference(dag):
    result = SystemDSLikeEngine(make_config()).execute(dag, INPUTS)
    expected = evaluate_many(list(dag.roots), DENSE)
    for root, value in zip(result.dag.roots, expected):
        np.testing.assert_allclose(
            result.outputs[root].to_numpy(),
            np.atleast_2d(value),
            atol=1e-7, rtol=1e-7,
        )


def rescan_exploration(dag):
    """CFG's exploration phase with a full re-scan of the members each round
    (the phase before its worklist): the oracle for its candidates."""
    workload = {n for n in dag.nodes() if n.is_operator}
    candidates = []

    def pick_seed():
        matmuls = [n for n in workload if isinstance(n, MatMulNode)]
        if not matmuls:
            return None
        return max(
            matmuls,
            key=lambda n: (
                n.inputs[0].meta.rows * n.inputs[1].meta.cols * n.common_dim,
                -n.node_id,
            ),
        )

    while True:
        seed = pick_seed()
        if seed is None:
            break
        workload.discard(seed)
        members = {seed}
        top_reached = False
        rejected = set()

        def adjacent():
            found = []
            for member in members:
                for child in member.inputs:
                    if child.is_operator and child in workload and child not in rejected:
                        found.append(child)
                if top_reached or dag.consumers(member) != 1 or member in dag.roots:
                    continue
                for parent in dag.parents(member):
                    if parent in workload and parent not in rejected:
                        found.append(parent)
            return found

        frontier = adjacent()
        while frontier:
            for candidate in frontier:
                if candidate in members or candidate in rejected:
                    continue
                if not is_termination(dag, candidate):
                    members.add(candidate)
                    workload.discard(candidate)
                elif _is_outgoing(candidate, members) and not top_reached:
                    members.add(candidate)
                    workload.discard(candidate)
                    top_reached = True
                else:
                    rejected.add(candidate)
            frontier = adjacent()
        candidates.append(PartialFusionPlan(members, dag))
    return candidates


@st.composite
def square_dags(draw):
    """Square operands, so that multiplications, transposes and row/column
    aggregates compose anywhere: termination operators land below, between
    and above multiplications, and several members join in one round."""
    side = 50
    pool = [matrix_input(name, side, side, BS) for name in "ABCD"]
    leaves = len(pool)
    for _ in range(draw(st.integers(1, 14))):
        op = draw(st.sampled_from(["mul", "add", "matmul", "t", "outer", "sq"]))
        a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        if op == "mul":
            pool.append(a * b)
        elif op == "add":
            pool.append(a + b)
        elif op == "matmul":
            pool.append(a @ b)
        elif op == "t":
            pool.append(a.T)
        elif op == "outer":
            pool.append(rowsum(a) @ colsum(b))
        else:
            pool.append(sq(a))
    roots = draw(st.lists(
        st.sampled_from(pool[leaves:]), min_size=1, max_size=3, unique_by=id
    ))
    return DAG([root.node for root in roots])


@settings(max_examples=200, deadline=None)
@given(square_dags())
def test_exploration_finds_the_rescans_candidates(dag):
    def members(candidates):
        return [sorted(n.node_id for n in plan.nodes) for plan in candidates]

    assert members(exploration_phase(dag)) == members(rescan_exploration(dag))
