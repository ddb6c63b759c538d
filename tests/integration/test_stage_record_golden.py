"""Every stage every engine opens, pinned.

FuseME, SystemDS, MatFast and DistME each run one GNMF iteration, the ALS
loss and one autoencoder step (the shapes of ``test_data_plane_counts``) on
the conftest cluster and on the Figure-14 cluster, under the default
planner and the paper's CFG (``graph_passes="off"``).  For every stage the
golden file holds its ``name``, ``num_tasks``, ``consolidation_bytes``,
``aggregation_bytes``, ``flops``, ``peak_task_memory``, ``aborted`` flag
and ``unit``; per run it also holds a digest of every memory-ledger event
in order (task, ``receive`` / ``receive_local`` / ``hold_output`` /
``release``, bytes) and the error a run raised, if any.  Operator code may
be rearranged freely; it may not move one of these numbers.

The outputs are not pinned by a digest: how a BLAS build rounds a GEMM
(its thread count, its kernels) moves their last bits.  Instead a run's
outputs must equal the reference interpreter's within the suite's
tolerance, and equal a second run of the same case on a fresh engine bit
for bit.  Re-capture (only when a modeled number is meant to change)
with::

    PYTHONPATH=src:. python tests/integration/test_stage_record_golden.py
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro import (
    DistMELikeEngine,
    FuseMEEngine,
    MatFastLikeEngine,
    SystemDSLikeEngine,
)
from repro.cluster import SimulatedCluster
from repro.cluster.task import TaskContext
from repro.errors import ReproError
from repro.execution import as_dag
from repro.lang import evaluate_many

from tests.conftest import make_config
from tests.integration.test_data_plane_counts import (
    als_step,
    autoencoder_step,
    fig14_config,
    gnmf_step,
)

GOLDEN = Path(__file__).with_name("stage_record_golden.json")

ENGINES = {
    "FuseME": FuseMEEngine,
    "SystemDS": SystemDSLikeEngine,
    "MatFast": MatFastLikeEngine,
    "DistME": DistMELikeEngine,
}
WORKLOADS = {"gnmf": gnmf_step, "als": als_step, "autoencoder": autoencoder_step}
CLUSTERS = {"conftest": make_config, "fig14": fig14_config}
PASSES = ("all", "off")
FIELDS = (
    "name", "num_tasks", "consolidation_bytes", "aggregation_bytes", "flops",
    "peak_task_memory", "aborted", "unit",
)

CASES = [
    f"{engine}:{workload}:{cluster}:{passes}"
    for engine in ENGINES
    for workload in WORKLOADS
    for cluster in CLUSTERS
    for passes in PASSES
]


LEDGER = ("receive", "receive_local", "hold_output", "release")


@contextmanager
def ledger_events():
    """Every memory-ledger event while the block runs, in order."""
    events = []
    originals = {name: getattr(TaskContext, name) for name in LEDGER}

    def logged(name, original):
        def method(self, item, *args, **kwargs):
            size = item if isinstance(item, int) else item.nbytes
            events.append((self.task_id, name, size))
            return original(self, item, *args, **kwargs)
        return method

    for name, original in originals.items():
        setattr(TaskContext, name, logged(name, original))
    try:
        yield events
    finally:
        for name, original in originals.items():
            setattr(TaskContext, name, original)


def run(case: str):
    """One run on a fresh engine: its pinned snapshot (stage records,
    ledger digest, error) and its dense outputs (None if it raised)."""
    engine_name, workload, cluster_name, passes = case.split(":")
    engine = ENGINES[engine_name](CLUSTERS[cluster_name](graph_passes=passes))
    query, inputs, _ = WORKLOADS[workload]()
    cluster = SimulatedCluster(engine.config)
    outputs, error = None, None
    with ledger_events() as events:
        try:
            result = engine.execute(query, inputs, cluster=cluster)
        except ReproError as exc:
            error = type(exc).__name__
        else:
            outputs = [
                result.outputs[root].to_numpy() for root in result.dag.roots
            ]
    stages = [
        [getattr(stage, field) for field in FIELDS]
        for stage in cluster.metrics.stages
    ]
    ledger = hashlib.sha256(repr(events).encode()).hexdigest()
    return {"stages": stages, "ledger": ledger, "error": error}, outputs


def reference(case: str) -> list:
    """The case's outputs from the numpy reference interpreter."""
    query, inputs, _ = WORKLOADS[case.split(":")[1]]()
    dense = {name: matrix.to_numpy() for name, matrix in inputs.items()}
    return evaluate_many(as_dag(query).roots, dense)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES)
def test_stage_records_match_the_golden(case, golden):
    snapshot, outputs = run(case)
    assert snapshot == golden[case]
    if outputs is None:
        return
    for got, want in zip(outputs, reference(case), strict=True):
        # the suite's rtol, with atol scaled to the output: these outputs
        # run to ~3e-3, where a fixed 1e-8 would pass a 1e-6 relative error
        scale = float(np.abs(want).max())
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * scale)
    _, again = run(case)
    for got, same in zip(outputs, again, strict=True):
        assert got.tobytes() == same.tobytes()


if __name__ == "__main__":
    # one stage record per line
    cases = []
    for case in CASES:
        snap, _ = run(case)
        stages = ",\n".join(json.dumps(stage) for stage in snap["stages"])
        cases.append(
            f'{json.dumps(case)}: {{"ledger": {json.dumps(snap["ledger"])}, '
            f'"error": {json.dumps(snap["error"])}, "stages": [\n{stages}]}}'
        )
    GOLDEN.write_text("{\n" + ",\n".join(cases) + "\n}\n")
    print(f"wrote {GOLDEN}")
