"""Tests for the Cuboid-based Fusion plan Generator (Algorithms 2 and 3).

The headline assertions mirror Figure 10: for GNMF, CFG finds two large
candidate plans containing the multiplications, while GEN-style generators
fuse only the two element-wise operators.
"""


from repro.core.cfg import (
    ExploitationReport,
    exploitation_phase,
    exploration_phase,
    generate_fusion_plan,
    is_termination,
)
from repro.lang import DAG, log, matrix_input, sum_of
from repro.lang.dag import AggNode, MatMulNode

from tests.conftest import make_config

BS = 25


def gnmf_dag():
    x = matrix_input("X", 200, 150, BS, density=0.05)
    u = matrix_input("U", 50, 150, BS)
    v = matrix_input("V", 200, 50, BS)
    u_update = u * (v.T @ x) / (v.T @ v @ u)
    v_update = v * (x @ u.T) / (v @ u @ u.T)
    return DAG([u_update.node, v_update.node])


def nmf_dag():
    x = matrix_input("X", 200, 150, BS, density=0.05)
    u = matrix_input("U", 200, 50, BS)
    v = matrix_input("V", 150, 50, BS)
    return DAG((x * log(u @ v.T + 1e-8)).node)


class TestTermination:
    def test_shared_operator_is_termination(self):
        x = matrix_input("X", 100, 100, BS)
        shared = (x * 2.0)
        from repro.lang.dag import BinaryNode

        root = BinaryNode("add", shared.node, shared.node)
        dag = DAG(root)
        assert is_termination(dag, shared.node)

    def test_aggregation_is_termination(self):
        x = matrix_input("X", 100, 100, BS)
        dag = DAG(sum_of(x * 2.0).node)
        agg = next(n for n in dag.nodes() if isinstance(n, AggNode))
        assert is_termination(dag, agg)

    def test_plain_operator_is_not(self):
        dag = nmf_dag()
        mul = dag.roots[0]
        assert not is_termination(dag, mul)


class TestExploration:
    def test_nmf_single_candidate_covers_everything(self):
        dag = nmf_dag()
        candidates = exploration_phase(dag)
        assert len(candidates) == 1
        assert len(candidates[0]) == sum(1 for _ in dag.operators())

    def test_gnmf_two_candidates(self):
        dag = gnmf_dag()
        candidates = exploration_phase(dag)
        assert len(candidates) == 2
        # each candidate contains both its update's multiplications
        for plan in candidates:
            assert len(plan.matmuls()) >= 2

    def test_gnmf_candidates_reach_the_division_top(self):
        dag = gnmf_dag()
        candidates = exploration_phase(dag)
        labels = {plan.root.label() for plan in candidates}
        assert labels == {"b(div)"}

    def test_shared_transposes_excluded(self):
        """V^T is consumed by two multiplications: it must materialize."""
        x = matrix_input("X", 200, 150, BS, density=0.05)
        u = matrix_input("U", 50, 150, BS)
        v = matrix_input("V", 200, 50, BS)
        vt = v.T
        expr = u * (vt @ x) / (vt @ v @ u)
        dag = DAG(expr.node)
        candidates = exploration_phase(dag)
        transpose = next(n for n in dag.nodes() if n.label() == "r(T)")
        for plan in candidates:
            assert transpose not in plan.nodes

    def test_no_matmul_no_candidates(self):
        x = matrix_input("X", 100, 100, BS)
        dag = DAG((x * 2.0 + 1.0).node)
        assert exploration_phase(dag) == []


class TestExploitation:
    def test_oversized_plan_splits(self):
        dag = gnmf_dag()
        candidates = exploration_phase(dag)
        config = make_config(task_memory_budget=60_000)
        report = ExploitationReport()
        final = exploitation_phase(candidates, config, report)
        assert len(final) > len(candidates)
        assert report.splits >= 1

    def test_roomy_budget_keeps_plans_intact_or_splits_by_cost(self):
        dag = gnmf_dag()
        candidates = exploration_phase(dag)
        config = make_config(task_memory_budget=1 << 40)
        final = exploitation_phase(candidates, config)
        # all original operators still covered exactly once
        covered = [n for plan in final for n in plan.nodes]
        assert len(covered) == len(set(covered))

    def test_split_plans_are_rooted_at_matmuls(self):
        dag = gnmf_dag()
        candidates = exploration_phase(dag)
        config = make_config(task_memory_budget=60_000)
        final = exploitation_phase(candidates, config)
        extra = [p for p in final if p.root.label() == "ba(x)"]
        assert all(isinstance(p.root, MatMulNode) for p in extra)


class TestGenerateFusionPlan:
    def test_covers_all_operators(self):
        dag = gnmf_dag()
        fp = generate_fusion_plan(dag, make_config())
        covered = set()
        for unit in fp:
            covered |= unit.plan.nodes
        assert covered == {n for n in dag.nodes() if n.is_operator}

    def test_dependency_order(self):
        dag = gnmf_dag()
        fp = generate_fusion_plan(dag, make_config())
        produced = set()
        for unit in fp:
            for dep in unit.dependencies():
                if dep.is_operator:
                    assert dep in produced
            produced.add(unit.output)

    def test_exploitation_toggle(self):
        dag = gnmf_dag()
        config_off = make_config(exploitation_phase=False,
                                 task_memory_budget=60_000)
        config_on = make_config(exploitation_phase=True,
                                task_memory_budget=60_000)
        fp_off = generate_fusion_plan(dag, config_off)
        fp_on = generate_fusion_plan(dag, config_on)
        assert len(fp_on.units) >= len(fp_off.units)

    def test_matmul_free_query_cell_fused(self):
        x = matrix_input("X", 100, 100, BS)
        y = matrix_input("Y", 100, 100, BS)
        dag = DAG((x * y + 2.0).node)
        fp = generate_fusion_plan(dag, make_config())
        assert len(fp.units) == 1
        assert fp.units[0].is_fused

    def test_fuses_more_than_gen_on_gnmf(self):
        """The Figure 10 comparison: CFG's largest unit strictly exceeds
        GEN's largest ({mul, div} = 2 operators)."""
        from repro.baselines.gen import GenPlanner

        dag = gnmf_dag()
        cfg_plan = generate_fusion_plan(dag, make_config())
        gen_plan = GenPlanner().plan(dag)
        cfg_largest = max(len(u.plan) for u in cfg_plan)
        gen_largest = max(len(u.plan) for u in gen_plan)
        assert gen_largest == 2
        assert cfg_largest > gen_largest
