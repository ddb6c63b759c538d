"""Inside the fused operators: BFO vs RFO vs CFO on one query.

Executes the paper's running example with all three distributed fused
operators on identical inputs and prints the trade-off Table 1 formalizes:
BFO broadcasts (low traffic while sides are small, but per-task memory fixed
at the full side matrices), RFO replicates (tiny tasks, heavy traffic), and
the CFO picks an elastic middle point (P*, Q*, R*) from the cost model.

It then shrinks the per-task memory budget until BFO dies with O.O.M. and
shows the CFO adapting its partitioning instead — the paper's core claim.

Run:  python examples/operator_comparison.py
"""

from repro import EngineConfig
from repro.cluster import SimulatedCluster
from repro.core.cfo import CuboidFusedOperator
from repro.core.plan import PartialFusionPlan
from repro.errors import TaskOutOfMemoryError
from repro.lang import DAG, log, matrix_input
from repro.matrix import rand_dense, rand_sparse
from repro.operators import BroadcastFusedOperator, ReplicationFusedOperator
from repro.utils.formatting import format_bytes, format_seconds, render_table

BLOCK = 25
ROWS, COLS, COMMON = 1000, 750, 150
DENSITY = 0.05


def build():
    x = matrix_input("X", ROWS, COLS, BLOCK, density=DENSITY)
    u = matrix_input("U", ROWS, COMMON, BLOCK)
    v = matrix_input("V", COLS, COMMON, BLOCK)
    dag = DAG((x * log(u @ v.T + 1e-8)).node)
    plan = PartialFusionPlan(set(dag.operators()), dag)
    inputs = {
        "X": rand_sparse(ROWS, COLS, DENSITY, BLOCK, seed=1),
        "U": rand_dense(ROWS, COMMON, BLOCK, seed=2),
        "V": rand_dense(COLS, COMMON, BLOCK, seed=3),
    }
    return plan, inputs


def run(op_cls, plan, inputs, config, **kwargs):
    cluster = SimulatedCluster(config)
    operator = op_cls(plan, config, **kwargs)
    try:
        operator.execute(cluster, inputs)
    except TaskOutOfMemoryError as exc:
        return operator, None, exc
    return operator, cluster.metrics, None


def main() -> None:
    plan, inputs = build()
    config = EngineConfig(block_size=BLOCK).with_cluster(
        num_nodes=4, tasks_per_node=6,
        task_memory_budget=16 * 1024 * 1024,
        input_split_bytes=64 * 1024,
    )

    rows = []
    for name, op_cls in (
        ("BFO (broadcast)", BroadcastFusedOperator),
        ("RFO (replicate)", ReplicationFusedOperator),
        ("CFO (cuboid)", CuboidFusedOperator),
    ):
        operator, metrics, failure = run(op_cls, plan, inputs, config)
        detail = ""
        if op_cls is not BroadcastFusedOperator:
            detail = f"(P,Q,R)={operator.pqr}"
        rows.append([
            name,
            "O.O.M." if failure else format_seconds(metrics.elapsed_seconds),
            "-" if failure else format_bytes(metrics.comm_bytes),
            "-" if failure else format_bytes(metrics.peak_task_memory),
            detail,
        ])
    print("query: X * log(U x V^T + eps), "
          f"X {ROWS}x{COLS} d={DENSITY}, factors {COMMON}\n")
    print(render_table(
        ["operator", "elapsed", "communication", "peak task memory", ""],
        rows,
    ))

    # now starve the tasks: BFO cannot adapt, the CFO repartitions
    print("\nshrinking the per-task budget to 1 MB ...")
    tight = config.with_cluster(task_memory_budget=1024 * 1024)
    for name, op_cls in (
        ("BFO", BroadcastFusedOperator),
        ("CFO", CuboidFusedOperator),
    ):
        operator, metrics, failure = run(op_cls, plan, inputs, tight)
        if failure:
            print(f"  {name}: O.O.M. ({format_bytes(failure.used_bytes)} "
                  f"needed by one task)")
        else:
            pqr = getattr(operator, "pqr", None)
            print(f"  {name}: survived with (P,Q,R)={pqr}, "
                  f"peak task memory "
                  f"{format_bytes(metrics.peak_task_memory)}")


if __name__ == "__main__":
    main()
