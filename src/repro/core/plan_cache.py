"""Fusion-plan caching: skip planning when the same query shape comes back.

Iterative workloads (GNMF, ALS, the autoencoder) re-execute a structurally
identical DAG every iteration: same operators, same shapes, same block sizes,
same densities — only the bound matrices' *values* change.  CFG plan
generation and the ``(P, Q, R)`` parameter search depend exclusively on that
structure (plus the planner-relevant config knobs), so iterations 2..N can
reuse iteration 1's lowered plan wholesale.

:func:`dag_fingerprint` canonicalizes a DAG into a hashable tuple: nodes in
topological order, each reduced to its operator kind, kernel/scalar payload,
shape, block size, density, and child *ordinals* (positions in the topo
order, never the process-unique ``node_id``).  Two DAGs built independently
from the same program text therefore collide exactly when a fused execution
cannot tell them apart.  The engine pairs the fingerprint with its
:meth:`~repro.execution.Engine.planning_signature` — any config knob that
could steer planning (cluster shape, bandwidths, memory budget, sparsity
flags, optimizer method) — so a changed knob is a miss, never a wrong hit.

:class:`PlanCache` is a 64-entry
:class:`~repro.cluster.slice_cache.BoundedCache`.  Its entries read no
matrix, so only the LRU bound and calibration's :meth:`PlanCache.invalidate`
drop one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional

from repro.cluster.slice_cache import DEFAULT_MAX_BYTES, BoundedCache
from repro.lang.dag import (
    AggNode,
    BinaryNode,
    DAG,
    InputNode,
    Node,
    UnaryNode,
)

#: Plans kept per engine.
PLAN_CACHE_ENTRIES = 64


def _node_payload(node: Node) -> tuple:
    """The operator-specific part of a node's fingerprint."""
    if isinstance(node, InputNode):
        return ("name", node.name)
    if isinstance(node, (UnaryNode, AggNode)):
        return ("kernel", node.kernel)
    if isinstance(node, BinaryNode):
        return ("kernel", node.kernel, node.scalar, node.scalar_on_left)
    return ()


def dag_fingerprint(dag: DAG) -> tuple:
    """A canonical, hashable description of the DAG's planning-relevant
    structure.  Node identity is positional (topological ordinals), so two
    independently built DAGs with the same shape fingerprint identically.
    Densities enter the key exactly: a query declaring other densities
    is planned afresh.
    """
    ordinals: Dict[Node, int] = {}
    entries = []
    for ordinal, node in enumerate(dag.nodes()):
        ordinals[node] = ordinal
        meta = node.meta
        entries.append((
            type(node).__name__,
            node.op_type.name,
            tuple(ordinals[child] for child in node.inputs),
            meta.shape,
            meta.block_size,
            meta.density,
            _node_payload(node),
        ))
    roots = tuple(ordinals[root] for root in dag.roots)
    return (roots, tuple(entries))


@dataclass(frozen=True)
class PlanCacheEntry:
    """One lowered plan, ready to re-execute: a hit skips planning, lowering
    *and* every parameter search.  The plan's units hold identity-hashed
    nodes of ``physical.dag``, so a hit executes against that DAG (inputs
    bind by name, which the fingerprint includes)."""

    physical: "PhysicalPlan"  # noqa: F821 - avoids an import cycle
    #: Calibration-store generation this entry was planned at (``None`` when
    #: planned without calibration).  Adaptive re-planning evicts an entry
    #: only when its observed error crosses the threshold *and* the store
    #: has advanced past this generation — re-planning with the same
    #: coefficients would reproduce the same plan.
    fit_generation: Optional[int] = None


class PlanCache(BoundedCache):
    """``(planning signature, dag fingerprint) -> PlanCacheEntry``."""

    def __init__(
        self,
        max_entries: int = PLAN_CACHE_ENTRIES,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ):
        super().__init__(max_entries, max_bytes)
        self.invalidations = 0

    def invalidate(self, key: Hashable) -> bool:
        """Evict *key* (error-triggered re-planning); True when present."""
        if not self.pop(key):
            return False
        self.invalidations += 1
        return True

    def clear(self) -> None:
        super().clear()
        self.invalidations = 0

    def stats(self) -> dict:
        return {**super().stats(), "invalidations": self.invalidations}
