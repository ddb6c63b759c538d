"""Every stage every engine opens, pinned.

FuseME, SystemDS, MatFast and DistME each run one GNMF iteration, the ALS
loss and one autoencoder step (the shapes of ``test_data_plane_counts``) on
the conftest cluster and on the Figure-14 cluster, under the default
planner and the paper's CFG (``graph_passes="off"``).  For every stage the
golden file holds its ``name``, ``num_tasks``, ``consolidation_bytes``,
``aggregation_bytes``, ``flops``, ``peak_task_memory``, ``aborted`` flag
and ``unit``; per run it also holds a digest of the outputs' bytes, a
digest of every memory-ledger event in order (task, ``receive`` /
``receive_local`` / ``hold_output`` / ``release``, bytes) and the error a
run raised, if any.  Operator code may be rearranged freely; it may not
move one of these numbers.  Re-capture (only when a modeled number
is meant to change) with::

    PYTHONPATH=src:. python tests/integration/test_stage_record_golden.py
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from pathlib import Path

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


def snapshot(case: str) -> dict:
    """The stage records, digests and error of one run."""
    engine_name, workload, cluster_name, passes = case.split(":")
    engine = ENGINES[engine_name](CLUSTERS[cluster_name](graph_passes=passes))
    query, inputs, _ = WORKLOADS[workload]()
    cluster = SimulatedCluster(engine.config)
    digest, error = None, None
    with ledger_events() as events:
        try:
            result = engine.execute(query, inputs, cluster=cluster)
        except ReproError as exc:
            error = type(exc).__name__
        else:
            sha = hashlib.sha256()
            for root in result.dag.roots:
                sha.update(result.outputs[root].to_numpy().tobytes())
            digest = sha.hexdigest()
    stages = [
        [getattr(stage, field) for field in FIELDS]
        for stage in cluster.metrics.stages
    ]
    ledger = hashlib.sha256(repr(events).encode()).hexdigest()
    return {"stages": stages, "digest": digest, "ledger": ledger, "error": error}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES)
def test_stage_records_match_the_golden(case, golden):
    assert snapshot(case) == golden[case]


if __name__ == "__main__":
    # one stage record per line
    cases = []
    for case in CASES:
        snap = snapshot(case)
        stages = ",\n".join(json.dumps(stage) for stage in snap["stages"])
        cases.append(
            f'{json.dumps(case)}: {{"digest": {json.dumps(snap["digest"])}, '
            f'"ledger": {json.dumps(snap["ledger"])}, '
            f'"error": {json.dumps(snap["error"])}, "stages": [\n{stages}]}}'
        )
    GOLDEN.write_text("{\n" + ",\n".join(cases) + "\n}\n")
    print(f"wrote {GOLDEN}")
