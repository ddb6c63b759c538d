"""The CFO cost model: ``MemEst``, ``NetEst``, ``ComEst`` and ``Cost``.

Implements Section 3.3 faithfully:

* Eq. 3 — per-task memory of a materialized matrix ``v``: its size divided by
  the number of partitions of the space it lives in (``P*R`` for L-space,
  ``Q*R`` for R-space, ``P*Q`` for O-space).
* Eq. 4 — network traffic: ``Q * size(v)`` for L-space members (each L slab
  is replicated to the ``Q`` tasks sharing its ``(p, r)`` indices), ``P *
  size(v)`` for R-space, ``R * size(v)`` for O-space.
* Eq. 5 — computation: operators in L-, R-, O-space are recomputed ``Q``,
  ``P``, ``R`` times respectively; the main multiplication exactly once.
* Eq. 2 — ``Cost = max(NetEst / (N*Bn), ComEst / (N*Bc))``, communication and
  computation overlapping at block granularity: :func:`price`, which calls
  the simulator's own :func:`repro.cluster.simulation.eq2`.
* Algorithm 1 — nested multiplications recurse with the confined parameters
  ``(P,1,R)`` / ``(1,Q,R)`` / ``(P,Q,1)``; their network and computation
  contributions additionally scale with the replication factor of the space
  containing them (the paper's Figure 11 walk-through: the farther a nested
  multiplication sits from the main one, the larger its accumulated factor —
  which is exactly why Algorithm 3 splits distant multiplications first).

The walks are *array-polymorphic*: ``P``, ``Q`` and ``R`` may each be a
Python int or a float64 array that broadcasts against the others, and the
same code prices one candidate or a whole ``(Q, R)`` grid.  Grid evaluation
is exact, not approximate.  Every partition count (and every product of
them below 2**53) is exactly representable in float64; the only
conversions are int -> float64 of exact values; and a walk adds its terms
in the same order whatever the operand types.  Each grid cell is therefore
produced by the same sequence of IEEE-754 operations as the scalar call at
that cell, so the two compare ``==`` and a search that reads costs off the
grid takes every comparison and tie-break exactly as a scalar search would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cluster.simulation import eq2
from repro.config import EngineConfig
from repro.core.calibration import KernelCalibration
from repro.core.plan import PartialFusionPlan
from repro.core.spaces import SpaceKind, SpaceTree, find_sparsity_mask
from repro.lang.dag import InputNode


def _env_key(node):
    """The runtime environment key of a frontier matrix (mirrors
    ``repro.core.physical.env_key_of``, duplicated to avoid an import
    cycle through the optimizer)."""
    return node.name if isinstance(node, InputNode) else node.node_id

#: Marker cost for an infeasible plan (cannot fit the memory budget).
INFEASIBLE = float("inf")

#: ``(P, Q, R)``: each an int, or a float64 array broadcastable against the
#: other two.  Results are floats for all-int input, arrays otherwise.
Pqr = tuple


def price(
    config: EngineConfig,
    net,
    flops,
    calibration: Optional[KernelCalibration] = None,
):
    """Seconds for cluster-wide *net* bytes and *flops*: Eq. 2
    (:func:`repro.cluster.simulation.eq2`) with the paper constants, or
    the fitted throughputs when *calibration* is given.  Array-polymorphic
    like the estimates it prices."""
    if calibration is not None:
        return calibration.predict_seconds(net, flops)
    return eq2(config.cluster, net, flops)[2]


@dataclass(frozen=True)
class PlanCost:
    """Estimated cost of one ``(P, Q, R)`` choice for one partial plan."""

    pqr: tuple[int, int, int]
    mem_bytes_per_task: float
    net_bytes: float
    com_flops: float
    cost_seconds: float
    feasible: bool

    def __lt__(self, other: "PlanCost") -> bool:
        return self.cost_seconds < other.cost_seconds


class CostModel:
    """Evaluates Mem/Net/Com/Cost for a partial fusion plan's space tree.

    Stateless between calls: every estimate is a fresh walk of the tree.
    ``pqr`` components are ints for one candidate or broadcastable float64
    arrays for many (see the module docstring for why the two agree bit
    for bit); :meth:`evaluate` is the scalar-only entry point that packs
    one candidate into a :class:`PlanCost`.

    With a *calibration* (a fitted :class:`~repro.core.calibration.
    KernelCalibration` for this plan's kernel class), ``cost_seconds``
    prices the same Net/Com estimates with the machine's measured effective
    throughputs instead of the paper constants — Mem/Net/Com themselves are
    untouched, so memory feasibility and the pruned search's monotone
    bounds are identical either way.
    """

    def __init__(
        self,
        config: EngineConfig,
        calibration: Optional[KernelCalibration] = None,
        free_sources=None,
    ):
        self.config = config
        self.calibration = calibration
        #: Environment keys whose consolidation is already paid elsewhere
        #: (graph-pass sharing): their Eq. 4 traffic is skipped, their
        #: Eq. 3 memory still charged (the slabs are resident either way).
        self.free_sources = frozenset(free_sources or ())

    # -- public entry points ------------------------------------------------

    def evaluate(
        self,
        plan: PartialFusionPlan,
        tree: SpaceTree,
        pqr: tuple[int, int, int],
    ) -> PlanCost:
        """Full cost of executing *plan* with one integer partitioning."""
        mem = self.mem_est(plan, tree, pqr)
        net = self._full_net(plan, tree, pqr)
        com = self.com_est(tree, pqr)
        feasible = mem <= self.config.cluster.task_memory_budget
        return PlanCost(
            pqr=pqr,
            mem_bytes_per_task=mem,
            net_bytes=net,
            com_flops=com,
            cost_seconds=(
                float(price(self.config, net, com, self.calibration))
                if feasible else INFEASIBLE
            ),
            feasible=feasible,
        )

    def full_seconds(self, plan: PartialFusionPlan, tree: SpaceTree, pqr: Pqr):
        """Cost with the aggregation shuffle, ignoring memory feasibility:
        ``evaluate(...).cost_seconds`` of every feasible candidate in *pqr*."""
        return price(
            self.config,
            self._full_net(plan, tree, pqr),
            self.com_est(tree, pqr),
            self.calibration,
        )

    def raw_seconds(self, tree: SpaceTree, pqr: Pqr):
        """Cost ignoring memory feasibility (the pruned search's bounds).

        Consolidation traffic only (Eq. 4 exactly) — a *lower* bound on the
        full evaluation under either pricing, since both are non-decreasing
        in net and com.
        """
        return price(
            self.config,
            self.net_est(tree, pqr),
            self.com_est(tree, pqr),
            self.calibration,
        )

    # -- MemEst (Algorithm 1) --------------------------------------------------

    def mem_est(self, plan: PartialFusionPlan, tree: SpaceTree, pqr: Pqr):
        """Estimated memory per task, Algorithm 1 + the plan output tile."""
        total = self._mem_tree(tree, pqr)
        if tree.produces_output:
            p, q, _ = pqr
            total = total + plan.root.meta.estimated_bytes / (p * q)
        return total

    def _mem_tree(self, tree: SpaceTree, pqr: Pqr):
        p, q, r = pqr
        divisors = {SpaceKind.L: p * r, SpaceKind.R: q * r, SpaceKind.O: p * q}
        total = 0.0
        for kind, space in tree.spaces.items():
            divisor = divisors[kind]
            for consumer, index in space.materialized:
                size = consumer.inputs[index].meta.estimated_bytes
                total = total + size / divisor
            confined = self._confined(kind, pqr)
            for nested in space.nested:
                total = total + self._mem_tree(nested, confined)
        return total

    # -- NetEst (Eq. 4) ------------------------------------------------------------

    def net_est(
        self,
        tree: SpaceTree,
        pqr: Pqr,
        include_aggregation: bool = False,
        outer_output_bytes: Optional[float] = None,
    ):
        """Estimated network traffic for the whole cluster.

        With ``include_aggregation=False`` this is exactly Eq. 4 / Table 1
        (consolidation only).  With ``True`` the matrix-aggregation shuffle
        is added: ``(R - 1)`` partial product tiles per output tile move to
        their owner task.  The optimizer uses the full estimate — it is what
        makes it "determine R as a value as small as possible" (Section 3.2)
        instead of collapsing parallelism into single-reducer shuffles.
        ``outer_output_bytes`` overrides the outer product's tile volume
        (used when a sparsity mask makes the partials sparse).
        """
        return self._net_tree(tree, pqr, multiplier=1.0,
                              include_aggregation=include_aggregation,
                              output_bytes=outer_output_bytes)

    def _full_net(self, plan: PartialFusionPlan, tree: SpaceTree, pqr: Pqr):
        """Eq. 4 plus the aggregation shuffle of *plan*'s (possibly masked)
        partial product tiles — the traffic :meth:`evaluate` charges."""
        return self.net_est(
            tree, pqr,
            include_aggregation=True,
            outer_output_bytes=self._aggregated_tile_bytes(plan, tree),
        )

    def _aggregated_tile_bytes(
        self, plan: PartialFusionPlan, tree: SpaceTree
    ) -> float:
        """Total volume of the partial product tiles shuffled along k.

        When an Outer-style sparsity mask covers the main product, partials
        carry values only at the mask's non-zero cells.
        """
        full = tree.mm.meta.estimated_bytes
        if self.config.sparsity_exploitation:
            mask = find_sparsity_mask(plan, tree.mm, tree)
            if mask is not None:
                driver = mask.mask_mul.inputs[mask.mask_operand_index]
                full = min(full, driver.meta.estimated_bytes)
        return full

    def _net_tree(
        self,
        tree: SpaceTree,
        pqr: Pqr,
        multiplier,
        include_aggregation: bool = False,
        output_bytes: Optional[float] = None,
    ):
        p, q, r = pqr
        factors = {SpaceKind.L: q, SpaceKind.R: p, SpaceKind.O: r}
        total = 0.0
        if include_aggregation:
            tile_volume = (
                output_bytes if output_bytes is not None
                else tree.mm.meta.estimated_bytes
            )
            # no ``r > 1`` branch: at r == 1 the term is exactly +0.0
            total = total + multiplier * (r - 1) * tile_volume
        for kind, space in tree.spaces.items():
            factor = factors[kind]
            for consumer, index in space.materialized:
                source = consumer.inputs[index]
                if self.free_sources and _env_key(source) in self.free_sources:
                    continue
                total = total + multiplier * factor * source.meta.estimated_bytes
            confined = self._confined(kind, pqr)
            for nested in space.nested:
                total = total + self._net_tree(
                    nested, confined, multiplier * factor,
                    include_aggregation=include_aggregation,
                )
        return total

    # -- ComEst (Eq. 5) --------------------------------------------------------------

    def com_est(self, tree: SpaceTree, pqr: Pqr):
        """Estimated floating point operations for the whole cluster."""
        return self._com_tree(tree, pqr, multiplier=1.0)

    def _com_tree(self, tree: SpaceTree, pqr: Pqr, multiplier):
        p, q, r = pqr
        factors = {SpaceKind.L: q, SpaceKind.R: p, SpaceKind.O: r}
        total = multiplier * tree.mm.estimated_flops()  # v_mm computed once
        for kind, space in tree.spaces.items():
            factor = factors[kind]
            for node in space.operators:
                total = total + multiplier * factor * node.estimated_flops()
            confined = self._confined(kind, pqr)
            for nested in space.nested:
                total = total + self._com_tree(
                    nested, confined, multiplier * factor
                )
        return total

    # -- helpers -------------------------------------------------------------------------

    @staticmethod
    def _confined(kind: SpaceKind, pqr: Pqr) -> Pqr:
        """Algorithm 1 line 4: the partitioning a space passes to nested
        multiplications — ``(P,1,R)`` for L, ``(1,Q,R)`` for R, ``(P,Q,1)``
        for O."""
        p, q, r = pqr
        if kind is SpaceKind.L:
            return (p, 1, r)
        if kind is SpaceKind.R:
            return (1, q, r)
        return (p, q, 1)
