"""Fusion-plan caching: skip planning when the same query shape comes back.

Iterative workloads (GNMF, ALS, the autoencoder) re-execute a structurally
identical DAG every iteration: same operators, same shapes, same block sizes,
same densities — only the bound matrices' *values* change.  CFG plan
generation and the ``(P, Q, R)`` parameter search depend exclusively on that
structure (plus the planner-relevant config knobs), so iterations 2..N can
reuse iteration 1's :class:`~repro.core.plan.FusionPlan` wholesale.

:func:`dag_fingerprint` canonicalizes a DAG into a hashable tuple: nodes in
topological order, each reduced to its operator kind, kernel/scalar payload,
shape, block size, density, and child *ordinals* (positions in the topo
order, never the process-unique ``node_id``).  Two DAGs built independently
from the same program text therefore collide exactly when a fused execution
cannot tell them apart.  The engine pairs the fingerprint with its
:meth:`~repro.execution.Engine.planning_signature` — any config knob that
could steer planning (cluster shape, bandwidths, memory budget, sparsity
flags, optimizer method) — so a changed knob is a miss, never a wrong hit.

A cache *entry* keeps the planned DAG alongside the plan: plan units hold
identity-hashed nodes of the DAG they were planned against, so on a hit the
engine executes against the cached DAG (bindings resolve by input *name*,
which the fingerprint includes).  ``unit_hints`` carries each unit's
:class:`~repro.core.optimizer.OptimizerResult` so the per-unit ``(P, Q, R)``
search is skipped too.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Hashable, Optional

from repro.lang.dag import (
    AggNode,
    BinaryNode,
    DAG,
    InputNode,
    Node,
    UnaryNode,
)


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


@dataclass
class PlanCacheEntry:
    """One finished planning outcome, ready to re-execute.

    ``unit_hints`` maps unit index -> that unit's
    :class:`~repro.core.optimizer.OptimizerResult` (only units that ran a
    parameter search have one).  ``physical`` is the lowered
    :class:`~repro.core.physical.PhysicalPlan` — complete at planning time,
    so a hit skips planning, lowering *and* every parameter search.
    """

    dag: DAG
    fusion_plan: "FusionPlan"  # noqa: F821 - avoids an import cycle
    unit_hints: Dict[int, object] = field(default_factory=dict)
    physical: "Optional[PhysicalPlan]" = None  # noqa: F821 - import cycle
    #: Calibration-store generation this entry was planned at (``None`` when
    #: planned without calibration).  Adaptive re-planning evicts an entry
    #: only when its observed error crosses the threshold *and* the store
    #: has advanced past this generation — re-planning with the same
    #: coefficients would reproduce the same plan.
    fit_generation: Optional[int] = None


class PlanCache:
    """A small LRU of ``(planning signature, dag fingerprint) -> entry``.

    ``capacity=0`` disables the cache (every lookup misses and nothing is
    stored) — the ``EngineConfig(plan_cache_size=0)`` baseline mode.
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError("plan cache capacity cannot be negative")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self._entries: "OrderedDict[Hashable, PlanCacheEntry]" = OrderedDict()

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def get(self, key: Hashable) -> Optional[PlanCacheEntry]:
        if not self.enabled:
            return None
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def peek(self, key: Hashable) -> Optional[PlanCacheEntry]:
        """Look up *key* without touching LRU order or hit/miss counters
        (calibration feedback inspects the entry it just executed)."""
        if not self.enabled:
            return None
        return self._entries.get(key)

    def invalidate(self, key: Hashable) -> bool:
        """Evict *key* (error-triggered re-planning); True when present."""
        if self._entries.pop(key, None) is None:
            return False
        self.invalidations += 1
        return True

    def put(self, key: Hashable, entry: PlanCacheEntry) -> None:
        if not self.enabled:
            return
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    @property
    def num_entries(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, object]:
        """Hit/miss counts and occupancy as a plain dict (for status pages)."""
        total = self.hits + self.misses
        return {
            "capacity": self.capacity,
            "entries": self.num_entries,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
            "invalidations": self.invalidations,
        }

    def __repr__(self) -> str:
        return (
            f"PlanCache(capacity={self.capacity}, entries={self.num_entries}, "
            f"hits={self.hits}, misses={self.misses})"
        )
