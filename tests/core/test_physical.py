"""Golden lowering tests: fusion plans lower to the expected unit graph."""

import pytest

from repro import DistMELikeEngine, FuseMEEngine, LocalXLAEngine
from repro.cluster import SimulatedCluster
from repro.core.physical import PhysicalPlan, UnitOp, lower_plan
from repro.errors import PlanError
from repro.execution import as_dag
from repro.lang import matrix_input
from repro.lang.dag import InputNode
from repro.matrix import rand_dense, rand_sparse
from repro.workloads.als import als_loss_query
from repro.workloads.gnmf import gnmf_updates

from tests.conftest import make_config

BS = 20


def _consumed_names(unit):
    return {
        d.name for d in unit.dependencies() if isinstance(d, InputNode)
    }


def _gnmf_lowering(graph_passes: str) -> PhysicalPlan:
    q = gnmf_updates(100, 80, 20, density=0.1, block_size=BS)
    engine = FuseMEEngine(make_config(block_size=BS, graph_passes=graph_passes))
    return engine.lower_query([q.u_update, q.v_update])


class TestGNMFLowering:
    """The two-root GNMF update DAG (Eq. 6) under the paper's CFG
    (``graph_passes="off"``): the canonical multi-unit plan."""

    @pytest.fixture
    def physical(self) -> PhysicalPlan:
        return _gnmf_lowering("off")

    def test_unit_graph_shape(self, physical):
        """Four CFO units in two dependency waves: each root's division
        chain depends on one standalone product built in wave 0."""
        assert len(physical.ops) == 4
        waves = physical.waves()
        assert [len(w) for w in waves] == [2, 2]
        assert all(op.kind == "cfo" for op in physical.ops)
        # every matmul unit carries its cuboid search outcome
        for op in physical.ops:
            assert op.pqr is not None
            assert op.optimizer_result is not None
            assert op.estimate is not None and op.estimate.seconds is not None

    def test_dependency_edges(self, physical):
        """Wave-0 units are independent; each wave-1 unit consumes exactly
        one of them (the edges derived from the query DAG)."""
        deps = [op.deps for op in physical.ops]
        assert deps[0] == () and deps[1] == ()
        assert {deps[2], deps[3]} == {(0,), (1,)}

    def test_lifetimes_release_everything_but_roots(self, physical):
        """Every intermediate and every input is released exactly once, at
        its last consumer; DAG roots are never released."""
        released = [key for op in physical.ops for key in op.releases]
        assert len(released) == len(set(released))
        root_ids = {root.node_id for root in physical.dag.roots}
        assert root_ids.isdisjoint(set(released))
        # both wave-0 intermediates die at their single consumer
        for producer in (0, 1):
            out_id = physical.ops[producer].unit.output.node_id
            consumer = next(
                op for op in physical.ops if producer in op.deps
            )
            assert out_id in consumer.releases
        # each input name is released at the *last* unit that reads it
        for name in ("X", "U", "V"):
            consumers = [
                op.index for op in physical.ops
                if name in _consumed_names(op.unit)
            ]
            releaser = next(
                op.index for op in physical.ops if name in op.releases
            )
            assert releaser == max(consumers)

    def test_render_mentions_every_unit(self, physical):
        text = physical.render()
        assert "PhysicalPlan[FuseME]" in text
        assert "2 root(s)" in text
        for op in physical.ops:
            assert f"[{op.index}] {op.kind}" in text
            assert f"pqr={op.pqr}" in text


class TestGNMFSharedLowering:
    """The same DAG at the default: each wave's two independent units read
    the same inputs, so they merge, and every later reader of an input
    reads it as local blocks."""

    @pytest.fixture
    def physical(self) -> PhysicalPlan:
        return _gnmf_lowering("all")

    def test_one_merged_unit_per_wave(self, physical):
        assert [op.kind for op in physical.ops] == ["merged", "merged"]
        assert [op.sources for op in physical.ops] == [(0, 1), (2, 3)]
        assert [op.deps for op in physical.ops] == [(), (0,)]
        # members keep the raw lowering's (P, Q, R) and search result
        raw = _gnmf_lowering("off")
        members = [m for op in physical.ops for m in op.members]
        assert [m.pqr for m in members] == [op.pqr for op in raw.ops]
        assert [m.optimizer_result.cost for m in members] == [
            op.optimizer_result.cost for op in raw.ops
        ]

    def test_each_input_consolidated_once(self, physical):
        """Only the first reader of X, U and V pays its shuffle."""
        shared = [m.shared_inputs for op in physical.ops for m in op.members]
        assert shared == [(), ("V",), ("V", "U"), ("U", "X", "V")]

    def test_lifetimes_end_at_the_last_merged_unit(self, physical):
        """Members release nothing themselves; the second merged unit
        releases both wave-0 intermediates and every input."""
        assert all(not m.releases for op in physical.ops for m in op.members)
        assert physical.ops[0].releases == ()
        wave0_ids = {
            m.unit.output.node_id for m in physical.ops[0].members
        }
        assert set(physical.ops[1].releases) == wave0_ids | {"U", "V", "X"}

    def test_explain_shows_merges_members_and_shared_reads(self, physical):
        """EXPLAIN names each merged unit's sources, lists every member
        under it, and marks the inputs each member reads as local blocks."""
        lines = physical.render().splitlines()
        units = [line for line in lines if line.startswith("  [")]
        assert len(units) == 2
        assert "merges=0,1" in units[0].split("  ")
        assert "merges=2,3" in units[1].split("  ")
        members = [line for line in lines if line.startswith("    + [")]
        assert [line[len("    + "):].split("]")[0] for line in members] == [
            "[0", "[1", "[2", "[3",
        ]
        shared = [
            [field for field in line.split("  ") if field.startswith("shared=")]
            for line in members
        ]
        assert shared == [[], ["shared=V"], ["shared=V,U"], ["shared=U,X,V"]]
        # each member line sits under its merged unit
        assert lines.index(members[1]) < lines.index(units[1])
        assert lines.index(members[2]) > lines.index(units[1])


class TestALSLowering:
    def test_single_fused_unit(self):
        """Figure 1(a)'s loss fuses to one CFO consuming all three inputs."""
        q = als_loss_query(100, 80, 20, density=0.1, block_size=BS)
        physical = FuseMEEngine(make_config(block_size=BS)).lower_query(q.expr)
        assert len(physical.ops) == 1
        (op,) = physical.ops
        assert op.kind == "cfo"
        assert op.deps == ()
        assert sorted(op.releases, key=str) == ["U", "V", "X"]


class TestBaselineLowering:
    def test_distme_lowers_every_operator_standalone(self):
        x = matrix_input("X", 100, 80, BS)
        u = matrix_input("U", 100, 20, BS)
        v = matrix_input("V", 20, 80, BS)
        physical = DistMELikeEngine(make_config(block_size=BS)).lower_query(
            x * 2.0 + u @ v
        )
        kinds = sorted(op.kind for op in physical.ops)
        assert "cuboid-mm" in kinds and "cell" in kinds
        mm = next(op for op in physical.ops if op.kind == "cuboid-mm")
        assert mm.pqr is not None

    def test_local_xla_is_one_synthetic_unit(self):
        x = matrix_input("X", 100, 80, BS)
        physical = LocalXLAEngine(make_config(block_size=BS)).lower_query(
            [x * 2.0, x + 1.0]
        )
        assert len(physical.ops) == 1
        (op,) = physical.ops
        assert op.kind == "xla-fused"
        assert op.unit is None
        assert len(op.outputs) == 2
        assert "xla-fused" in physical.render()


class TestExplain:
    def test_explain_opens_zero_stages(self):
        """EXPLAIN must plan and lower without touching the cluster."""
        q = gnmf_updates(100, 80, 20, density=0.1, block_size=BS)
        config = make_config(block_size=BS)
        engine = FuseMEEngine(config)
        cluster = SimulatedCluster(config)
        text = engine.explain([q.u_update, q.v_update])
        assert cluster.metrics.num_stages == 0
        assert engine.plan_cache.num_entries == 1  # cache warmed, not run
        assert "cfo" in text and "pqr=" in text

    def test_explain_matches_execution_plan(self):
        """The plan EXPLAIN shows is the plan execute() runs (same cache
        entry, so the cuboid search is not repeated)."""
        q = als_loss_query(100, 80, 20, density=0.1, block_size=BS)
        engine = FuseMEEngine(make_config(block_size=BS))
        shown = engine.explain(q.expr)
        inputs = {
            "X": rand_sparse(100, 80, density=0.1, block_size=BS, seed=1),
            "U": rand_dense(100, 20, BS, seed=2),
            "V": rand_dense(20, 80, BS, seed=3),
        }
        result = engine.execute(q.expr, inputs)
        assert result.physical_plan.render() == shown
        assert result.metrics.counter("plan_cache_hits") == 1


class TestPlanValidation:
    def test_forward_dependency_rejected(self):
        x = matrix_input("X", 40, 40, BS)
        dag = FuseMEEngine(make_config(block_size=BS)).prepare_dag(
            as_dag(x * 2.0)
        )
        bogus = UnitOp(
            index=0, unit=None, kind="cell", deps=(1,), outputs=(), releases=()
        )
        with pytest.raises(PlanError, match="does not precede"):
            PhysicalPlan(dag, [bogus])

    def test_lower_plan_is_deterministic(self):
        q = gnmf_updates(100, 80, 20, density=0.1, block_size=BS)
        engine = FuseMEEngine(make_config(block_size=BS))
        dag = engine.prepare_dag(as_dag([q.u_update, q.v_update]))
        fusion = engine.plan_query(dag)
        a = lower_plan(dag, fusion, engine.annotate_unit)
        b = lower_plan(dag, fusion, engine.annotate_unit)
        assert [op.deps for op in a.ops] == [op.deps for op in b.ops]
        assert [op.releases for op in a.ops] == [op.releases for op in b.ops]
        assert [op.pqr for op in a.ops] == [op.pqr for op in b.ops]
