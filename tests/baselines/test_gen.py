"""Tests for the GEN planner: template behaviour the paper describes."""


from repro.baselines.gen import GenPlanner
from repro.lang import DAG, log, matrix_input, nnz_mask, sq, sum_of

BS = 25


def plan_units(dag):
    return GenPlanner().plan(dag)


class TestOuterTemplate:
    def test_sparse_masked_matmul_fuses_whole_query(self):
        """X * log(U V^T + eps) with sparse X: Outer fuses everything."""
        x = matrix_input("X", 200, 150, BS, density=0.05)
        u = matrix_input("U", 200, 50, BS)
        v = matrix_input("V", 150, 50, BS)
        dag = DAG((x * log(u @ v.T + 1e-8)).node)
        fp = plan_units(dag)
        assert len(fp.units) == 1
        assert fp.units[0].plan.contains_matmul

    def test_dense_mask_blocks_outer(self):
        """GEN includes a multiplication only when sparsity exploitation is
        possible — a dense mask means no Outer template."""
        x = matrix_input("X", 200, 150, BS, density=0.9)
        u = matrix_input("U", 200, 50, BS)
        v = matrix_input("V", 150, 50, BS)
        dag = DAG((x * (u @ v.T)).node)
        fp = plan_units(dag)
        fused_mms = [u for u in fp.units if u.plan.contains_matmul and u.is_fused]
        assert not fused_mms

    def test_als_loss_fused_with_aggregation_top(self):
        x = matrix_input("X", 200, 150, BS, density=0.05)
        u = matrix_input("U", 200, 50, BS)
        v = matrix_input("V", 50, 150, BS)
        dag = DAG(sum_of(nnz_mask(x) * sq(x - u @ v)).node)
        fp = plan_units(dag)
        big = max(fp.units, key=lambda u: len(u.plan))
        assert big.plan.contains_matmul
        assert big.plan.root.label() == "ua(sum)"


class TestGnmfBehaviour:
    def test_only_elementwise_pair_fused(self):
        """Figure 10: SystemDS fuses exactly {mul, div} for GNMF."""
        x = matrix_input("X", 200, 150, BS, density=0.05)
        u = matrix_input("U", 50, 150, BS)
        v = matrix_input("V", 200, 50, BS)
        expr = u * (v.T @ x) / (v.T @ v @ u)
        dag = DAG(expr.node)
        fp = plan_units(dag)
        fused = [unit for unit in fp.units if unit.is_fused]
        assert len(fused) == 1
        labels = sorted(n.label() for n in fused[0].plan.nodes)
        assert labels == ["b(div)", "b(mul)"]

    def test_matmuls_run_standalone(self):
        x = matrix_input("X", 200, 150, BS, density=0.05)
        u = matrix_input("U", 50, 150, BS)
        v = matrix_input("V", 200, 50, BS)
        expr = u * (v.T @ x) / (v.T @ v @ u)
        dag = DAG(expr.node)
        fp = plan_units(dag)
        standalone_mms = [
            unit for unit in fp.units
            if unit.plan.contains_matmul and len(unit.plan) == 1
        ]
        assert len(standalone_mms) == 3


class TestRowTemplate:
    def test_pca_pattern_fully_fused(self):
        """Figure 2(b): (X x S)^T x X fuses into one Row unit — the rows of
        X are scanned once."""
        x = matrix_input("X", 200, 150, BS)
        s = matrix_input("S", 150, 25, BS)
        dag = DAG(((x @ s).T @ x).node)
        fp = plan_units(dag)
        assert len(fp.units) == 1
        labels = sorted(n.label() for n in fp.units[0].plan.nodes)
        assert labels == ["ba(x)", "ba(x)", "r(T)"]

    def test_wide_side_not_row_fused(self):
        """A wide right operand is not a Row candidate."""
        x = matrix_input("X", 200, 150, BS)
        s = matrix_input("S", 150, 100, BS)  # 4 blocks wide
        dag = DAG(((x @ s).T @ x).node)
        fp = plan_units(dag)
        assert len(fp.units) > 1


class TestMultiAggTemplate:
    def test_figure2d_merged(self):
        from repro.core.plan import MultiAggPlan

        x = matrix_input("X", 100, 100, BS)
        u = matrix_input("U", 100, 100, BS)
        v = matrix_input("V", 100, 100, BS)
        dag = DAG([sum_of(u * x).node, sum_of(x * v).node])
        fp = plan_units(dag)
        multi = [un for un in fp.units if isinstance(un.plan, MultiAggPlan)]
        assert len(multi) == 1


class TestCoverage:
    def test_all_operators_covered(self):
        x = matrix_input("X", 200, 150, BS, density=0.05)
        u = matrix_input("U", 200, 50, BS)
        v = matrix_input("V", 150, 50, BS)
        dag = DAG([(x * log(u @ v.T + 1e-8)).node, sum_of(x * 2.0).node])
        fp = plan_units(dag)
        covered = set()
        for unit in fp.units:
            covered |= unit.plan.nodes
        assert covered == {n for n in dag.nodes() if n.is_operator}

    def test_pure_elementwise_cell_fused(self):
        x = matrix_input("X", 100, 100, BS)
        y = matrix_input("Y", 100, 100, BS)
        dag = DAG((x * y / (x + 1.0)).node)
        fp = plan_units(dag)
        assert len(fp.units) == 1
