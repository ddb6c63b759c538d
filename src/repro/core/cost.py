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

    Stateless between calls.  A tree's Eq. 3/4/5 walks are compiled once
    into term lists (:class:`TreeTerms`, kept on the tree, which the plan
    keeps through its layout), so an estimate is a pass over a few dozen
    ``(monomial, size)`` pairs.  ``pqr`` components are ints for one
    candidate or broadcastable float64 arrays for many (see the module
    docstring for why the two agree bit for bit); :meth:`evaluate` is the
    scalar-only entry point that packs one candidate into a
    :class:`PlanCost`.

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
        net, com = self._net_com(plan, tree, pqr)
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
            self.config, *self._net_com(plan, tree, pqr), self.calibration
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

    def _net_com(self, plan: PartialFusionPlan, tree: SpaceTree, pqr: Pqr):
        """Eq. 4 plus the aggregation shuffle of *plan*'s partial product
        tiles (sparse under a sparsity mask), and Eq. 5: what
        :meth:`evaluate` charges."""
        terms = tree_terms(tree)
        mono = _monomials(pqr, terms.masks)
        net = _net_sum(
            terms.net, mono, pqr[2] - 1, self.free_sources,
            float(self._aggregated_tile_bytes(plan, tree)),
        )
        return net, _com_sum(terms.com, mono)

    # -- MemEst (Algorithm 1) --------------------------------------------------

    def mem_est(self, plan: PartialFusionPlan, tree: SpaceTree, pqr: Pqr):
        """Estimated memory per task, Algorithm 1 + the plan output tile."""
        terms = tree_terms(tree)
        total = _mem_sum(terms.mem, _monomials(pqr, terms.masks))
        if tree.produces_output:
            p, q, _ = pqr
            total = total + plan.root.meta.estimated_bytes / (p * q)
        return total

    # -- NetEst (Eq. 4) ------------------------------------------------------------

    def net_est(
        self, tree: SpaceTree, pqr: Pqr, include_aggregation: bool = False
    ):
        """Estimated network traffic for the whole cluster.

        With ``include_aggregation=False`` this is exactly Eq. 4 / Table 1
        (consolidation only).  With ``True`` the matrix-aggregation shuffle
        is added: ``(R - 1)`` partial product tiles per output tile move to
        their owner task.  The optimizer uses the full estimate — it is what
        makes it "determine R as a value as small as possible" (Section 3.2)
        instead of collapsing parallelism into single-reducer shuffles.
        """
        terms = tree_terms(tree)
        return _net_sum(
            terms.net, _monomials(pqr, terms.masks),
            pqr[2] - 1 if include_aggregation else None, self.free_sources,
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

    # -- ComEst (Eq. 5) --------------------------------------------------------------

    def com_est(self, tree: SpaceTree, pqr: Pqr):
        """Estimated floating point operations for the whole cluster."""
        terms = tree_terms(tree)
        return _com_sum(terms.com, _monomials(pqr, terms.masks))


# ---------------------------------------------------------------------------
# compiled walks
# ---------------------------------------------------------------------------
#
# Algorithm 1 walks the space tree with the partitioning ``(P, Q, R)``
# confined at every nesting level — ``(P,1,R)`` below L, ``(1,Q,R)`` below R,
# ``(P,Q,1)`` below O — and scales a nested tree's Eq. 4/5 terms by the
# replication factors of the spaces above it.  Every divisor and multiplier
# is therefore a product of distinct outer parameters: a *monomial*, written
# as a bitmask over ``P``, ``Q``, ``R``.  Compiling a tree resolves each
# term's monomial and size once; evaluating adds the terms, each one nested
# tree's into a subtotal of its own, in the walk's order.  Products of
# partition counts are exact, so each term — and each sum — is the same
# IEEE-754 operation on the same operands as in the recursive walk.

_P, _Q, _R = 1, 2, 4
#: A term whose "monomial" is a nested tree's program.
_NEST = -1


@dataclass(frozen=True)
class TreeTerms:
    """One :class:`SpaceTree`'s Eq. 3/4/5 walks as term lists.

    * ``mem``: ``(divisor, size)``, or ``(_NEST, nested mem)``;
    * ``net``: ``(aggregation, terms)`` — ``aggregation`` is the
      ``(multiplier, tile bytes)`` of the ``(R - 1)`` shuffle, ``None``
      where the confined ``R`` is 1 (the term is exactly ``+0.0``); terms
      are ``(multiplier, bytes, env key)`` or ``(_NEST, nested net, None)``;
    * ``com``: ``((multiplier, flops of v_mm), terms)`` with terms
      ``(multiplier, flops)`` or ``(_NEST, nested com)``;
    * ``masks``: the multi-parameter monomials any term uses.
    """

    mem: tuple
    net: tuple
    com: tuple
    masks: tuple


def tree_terms(tree: SpaceTree) -> TreeTerms:
    """*tree*'s compiled terms, built on first use and kept on the tree."""
    terms = tree.terms
    if terms is None:
        masks: set[int] = set()
        mem, net, com = _compile(tree, (_P, _Q, _R), 0, masks)
        terms = tree.terms = TreeTerms(
            mem, net, com, tuple(sorted(m for m in masks if m & (m - 1)))
        )
    return terms


def _compile(tree: SpaceTree, params: tuple, multiplier: int, masks: set):
    """The three programs of *tree* under confined *params* (a bit per
    parameter, 0 where it is confined to 1) and replication *multiplier*."""
    p, q, r = params
    divisors = {SpaceKind.L: p | r, SpaceKind.R: q | r, SpaceKind.O: p | q}
    factors = {SpaceKind.L: q, SpaceKind.R: p, SpaceKind.O: r}
    confined = {
        SpaceKind.L: (p, 0, r), SpaceKind.R: (0, q, r), SpaceKind.O: (p, q, 0),
    }
    mem, net, com = [], [], []
    masks.add(multiplier)
    for kind, space in tree.spaces.items():
        factor = multiplier | factors[kind]
        masks.update((divisors[kind], factor))
        for consumer, index in space.materialized:
            source = consumer.inputs[index]
            size = source.meta.estimated_bytes
            mem.append((divisors[kind], size))
            net.append((factor, float(size), _env_key(source)))
        for node in space.operators:
            com.append((factor, float(node.estimated_flops())))
        for nested in space.nested:
            sub_mem, sub_net, sub_com = _compile(
                nested, confined[kind], factor, masks
            )
            mem.append((_NEST, sub_mem))
            net.append((_NEST, sub_net, None))
            com.append((_NEST, sub_com))
    aggregation = (
        (multiplier, float(tree.mm.meta.estimated_bytes)) if r else None
    )
    head = (multiplier, float(tree.mm.estimated_flops()))
    return tuple(mem), (aggregation, tuple(net)), (head, tuple(com))


def _monomials(pqr: Pqr, masks: tuple) -> list:
    """Every monomial value a program may index, for one ``(P, Q, R)``."""
    p, q, r = pqr
    mono = [1.0, p, q, None, r, None, None, None]
    for mask in masks:
        if mask == _P | _Q:
            mono[mask] = p * q
        elif mask == _P | _R:
            mono[mask] = p * r
        elif mask == _Q | _R:
            mono[mask] = q * r
        else:
            mono[mask] = p * q * r
    return mono


def _mem_sum(program: tuple, mono: list):
    total = 0.0
    for divisor, size in program:
        if divisor == _NEST:
            total = total + _mem_sum(size, mono)
        else:
            total = total + size / mono[divisor]
    return total


def _net_sum(program: tuple, mono: list, r_minus_1, free, tile=None):
    """Eq. 4; with *r_minus_1* (``R - 1``) the aggregation shuffle too, the
    outermost tile volume overridden by *tile*."""
    aggregation, terms = program
    total = 0.0
    if r_minus_1 is not None and aggregation is not None:
        multiplier, volume = aggregation
        total = total + mono[multiplier] * r_minus_1 * (
            volume if tile is None else tile
        )
    for multiplier, size, key in terms:
        if multiplier == _NEST:
            total = total + _net_sum(size, mono, r_minus_1, free)
        elif not (free and key in free):
            total = total + mono[multiplier] * size
    return total


def _com_sum(program: tuple, mono: list):
    (multiplier, flops), terms = program
    total = mono[multiplier] * flops  # v_mm computed once
    for multiplier, flops in terms:
        if multiplier == _NEST:
            total = total + _com_sum(flops, mono)
        else:
            total = total + mono[multiplier] * flops
    return total
