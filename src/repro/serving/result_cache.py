"""Result cache: identical repeated queries are served without re-execution.

Dashboards and iterative analysts re-issue the *same* query over unchanged
inputs constantly — the cheapest execution is none at all.  A finished
:class:`~repro.execution.ExecutionResult` is cached under a key with three
parts:

* the engine's :meth:`~repro.execution.Engine.planning_signature` — any
  config knob that could change modeled metrics (cluster shape, bandwidths,
  sparsity flags) makes a different key;
* :func:`~repro.core.plan_cache.dag_fingerprint` of the query DAG — two
  independently built but structurally identical queries share an entry;
* the *bound-input versions*: for every input name, ``(name, id(matrix),
  matrix.version)``.  Re-binding a name to a new matrix changes the ``id``;
  mutating a bound matrix in place (``set_block``) bumps its ``version`` —
  either way the key changes and a stale result can never be served.

:class:`ResultCache` is a :class:`~repro.cluster.slice_cache.BoundedCache`
(LRU, bounded in entries and in summed output bytes) that records each
result as reading its bound matrices at the keyed versions, so a re-bound
factor is freed with its last binding, together with its slabs in the
slice cache.  Blocks are immutable, so a cached result's outputs are
safely shared across tenants.
"""

from __future__ import annotations

from typing import Hashable, Mapping

from repro.cluster.slice_cache import BoundedCache
from repro.core.plan_cache import dag_fingerprint
from repro.execution import ExecutionResult
from repro.lang.dag import DAG
from repro.matrix.distributed import BlockedMatrix


def result_key(
    signature: tuple, dag: DAG, bound: Mapping[str, BlockedMatrix]
) -> Hashable:
    """The cache key for *dag* executed over *bound* under *signature*."""
    bindings = tuple(sorted(
        (name, id(matrix), matrix.version) for name, matrix in bound.items()
    ))
    return (signature, dag_fingerprint(dag), bindings)


class ResultCache(BoundedCache):
    """Finished executions, keyed by :func:`result_key`."""

    def put(  # type: ignore[override]
        self,
        key: Hashable,
        result: ExecutionResult,
        inputs: Mapping[str, BlockedMatrix],
    ) -> None:
        """Store *result* under *key*, computed over the bound *inputs*."""
        nbytes = sum(m.nbytes for m in result.outputs.values())
        # each matrix at the version in the key, which is what the result read
        reads = [(inputs[name], version) for name, _, version in key[-1]]
        super().put(key, result, nbytes, reads)
