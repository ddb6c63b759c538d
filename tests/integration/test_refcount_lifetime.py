"""Lifetime gate: a query's data is freed by refcount, not by the collector.

A task body keeps its intermediates as bare payloads in a slab program's
slots and drops them after their last reader, and an ``ExecutionResult``
and the profile it carries point at each other in one direction only.  So
with the cyclic garbage collector switched off, dropping a result frees its
outputs — and with them the slabs and blocks they pinned — immediately, and
a step leaves no data-plane object behind for the collector to find.

Both count-gate workloads run in steady state (plan cached, the previous
step's outputs re-bound), exactly as ``test_data_plane_counts.py`` runs them.
"""

import gc
import weakref
from collections import Counter

import pytest

from repro import FuseMEEngine
from repro.blocks.block import Block
from repro.core.fused_eval import SliceEnv
from repro.execution import ExecutionResult
from repro.lang import evaluate_many
from repro.matrix.distributed import BlockedMatrix
from repro.obs import QueryProfile

from tests.integration.test_data_plane_counts import (
    autoencoder_step,
    fig14_config,
    gnmf_step,
)

#: Types whose instances must never be left to the cyclic collector.
DATA_PLANE = (Block, SliceEnv, BlockedMatrix, ExecutionResult, QueryProfile)


@pytest.fixture
def collector_off():
    """Cyclic GC disabled for the test body; restored (and emptied) after."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
        gc.collect()


@pytest.mark.parametrize("build", [gnmf_step, autoencoder_step],
                         ids=["gnmf", "autoencoder"])
def test_dropped_result_is_freed_without_the_collector(build, collector_off):
    query, inputs, updated = build()
    engine = FuseMEEngine(fig14_config())
    first = engine.execute(query, inputs)
    for key, root in zip(updated, first.dag.roots):
        inputs[key] = first.outputs[root]
    del first
    gc.collect()  # step 1's planning garbage is not this test's subject

    result = engine.execute(query, inputs)
    assert result.profile is not None  # telemetry on: the profile exists
    outputs = [weakref.ref(matrix) for matrix in result.outputs.values()]
    del result
    assert all(ref() is None for ref in outputs), "an output outlived its result"

    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.collect()
    leaked = Counter(
        type(obj).__name__ for obj in gc.garbage if isinstance(obj, DATA_PLANE)
    )
    assert not leaked, f"left to the cyclic collector: {dict(leaked)}"


def test_a_query_and_its_reference_check_leave_no_cyclic_garbage(
    collector_off,
):
    """Not one cycle, of any type: planning's DAG walks, the engine and the
    reference interpreter all free what they built by refcount.  (A
    recursive closure refers to itself through its own cell, so every call
    of one used to leave a cycle — the interpreter's holding its memo of
    dense intermediates until the next collector pass.)"""
    query, inputs, _ = gnmf_step()
    engine = FuseMEEngine(fig14_config())
    roots = [expr.node for expr in query]
    dense = {name: matrix.to_numpy() for name, matrix in inputs.items()}
    engine.execute(query, inputs)  # warm-up: the plan is cached after this
    evaluate_many(roots, dense)
    gc.collect()

    engine.execute(query, inputs)
    evaluate_many(roots, dense)
    assert gc.collect() == 0
