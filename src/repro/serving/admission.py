"""Admission control: bounded queueing, fair scheduling, load shedding.

The service never starts a query the cluster cannot hold: every submitted
query carries a footprint estimate (:func:`estimate_query_bytes`), and the
:class:`AdmissionController` sheds any query whose estimate exceeds the
service memory budget.  The dispatcher runs one query at a time, picking
each next query with :meth:`AdmissionController.next_ticket`; until then it
waits in a bounded per-tenant queue:

* **bounded** — once ``max_queue_depth`` queries are waiting, further
  submits are shed with :class:`~repro.errors.ServiceOverloadedError`
  instead of queueing unboundedly; a single query whose estimate exceeds
  the whole budget is shed immediately (it could never start without
  O.O.M.-ing mid-flight);
* **FIFO** — within one tenant, queries dequeue in submission order;
* **fair** — across tenants, picks follow *deficit round-robin*: each
  tenant banks :data:`DRR_QUANTUM_BYTES` of credit per scheduling round and
  admits queued queries while its credit covers their estimated cost, so
  one chatty tenant cannot starve the others no matter how fast it
  submits;
* **impatient** — a queued query that waits longer than the configured
  queue timeout is failed with :class:`~repro.errors.QueryTimeoutError`
  the next time the dispatcher looks at the queue.

The controller is *not* thread-safe on its own: the owning
:class:`~repro.serving.service.MatrixService` calls every method under its
dispatch lock.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Mapping, Optional

from repro.config import ELEMENT_BYTES, ServiceConfig
from repro.errors import ServiceOverloadedError

if TYPE_CHECKING:
    from repro.lang.dag import DAG
    from repro.matrix.distributed import BlockedMatrix
    from repro.serving.service import QueryTicket

#: Deficit round-robin quantum: bytes of footprint each tenant may admit
#: per scheduling round — one mid-sized query per tenant per round.
DRR_QUANTUM_BYTES = 32 * 1024 * 1024


def estimate_query_bytes(
    dag: "DAG", bound: Mapping[str, "BlockedMatrix"]
) -> int:
    """Upper-bound memory footprint of running *dag* on *bound* inputs.

    The sum of the distinct bound input matrices' stored bytes (a matrix
    bound under two names counts once) plus a dense upper bound for every
    root's materialized output.  Deliberately conservative and cheap: the
    estimate gates *admission*, the per-task ledger inside the cluster
    still enforces ``theta_t`` exactly.
    """
    seen = set()
    total = 0
    for leaf in dag.inputs():
        matrix = bound.get(leaf.name)
        if matrix is None or id(matrix) in seen:
            continue
        seen.add(id(matrix))
        total += matrix.nbytes
    for root in dag.roots:
        rows, cols = root.meta.shape
        total += rows * cols * ELEMENT_BYTES
    return total


class AdmissionController:
    """Bounded per-tenant FIFO queues drained by deficit round-robin."""

    def __init__(self, config: ServiceConfig, memory_budget: int):
        if memory_budget <= 0:
            raise ValueError("memory_budget must be positive")
        self.config = config
        self.memory_budget = memory_budget
        self._queues: Dict[str, Deque["QueryTicket"]] = {}
        self._deficits: Dict[str, float] = {}
        #: Tenants with queued work, in round-robin order.
        self._active: deque = deque()
        #: The tenant at the head of ``_active`` whose round-robin turn is
        #: in progress (its quantum is banked); None between turns.
        self._turn: Optional[str] = None
        self._depth = 0

    @property
    def depth(self) -> int:
        """Total queued queries across all tenants."""
        return self._depth

    # -- enqueue ----------------------------------------------------------

    def offer(self, ticket: "QueryTicket") -> None:
        """Queue *ticket* or shed it (raises ServiceOverloadedError)."""
        if ticket.cost > self.memory_budget:
            raise ServiceOverloadedError(
                f"query {ticket.query_id} needs an estimated {ticket.cost} "
                f"bytes, above the service memory budget of "
                f"{self.memory_budget} bytes — it could never be admitted"
            )
        if self._depth >= self.config.max_queue_depth:
            raise ServiceOverloadedError(
                f"admission queue is full ({self._depth} queued, "
                f"max_queue_depth={self.config.max_queue_depth})"
            )
        queue = self._queues.get(ticket.tenant)
        if queue is None:
            queue = self._queues[ticket.tenant] = deque()
        if not queue:
            if ticket.tenant not in self._active:
                self._active.append(ticket.tenant)
        queue.append(ticket)
        self._depth += 1

    # -- dequeue ----------------------------------------------------------

    def expire(self, now: float) -> List["QueryTicket"]:
        """Remove and return every queued ticket past the queue timeout."""
        timeout = self.config.queue_timeout_seconds
        if timeout is None or self._depth == 0:
            return []
        expired: List["QueryTicket"] = []
        for tenant in list(self._queues):
            queue = self._queues[tenant]
            keep = deque(
                ticket for ticket in queue
                if now - ticket.enqueued_at <= timeout
            )
            if len(keep) == len(queue):
                continue
            expired.extend(
                ticket for ticket in queue
                if now - ticket.enqueued_at > timeout
            )
            self._depth -= len(queue) - len(keep)
            if keep:
                self._queues[tenant] = keep
            else:
                self._retire(tenant)
        return expired

    def next_ticket(self) -> Optional["QueryTicket"]:
        """Admit the next query in deficit round-robin order, or None.

        A tenant's turn starts by banking one quantum of credit (capped at
        one quantum beyond its head query, so idle tenants cannot hoard
        unbounded credit) and lasts across calls while the credit covers
        its head query; then the turn passes to the next tenant.  Credit
        grows every turn, so an expensive head is admitted after banking
        enough of it.
        """
        quantum = DRR_QUANTUM_BYTES
        while self._active:
            tenant = self._active[0]
            queue = self._queues[tenant]
            head = queue[0]
            if self._turn != tenant:
                self._turn = tenant
                self._deficits[tenant] = min(
                    self._deficits.get(tenant, 0.0) + quantum,
                    max(quantum, head.cost) + quantum,
                )
            if head.cost > self._deficits[tenant]:
                self._active.rotate(-1)
                self._turn = None
                continue
            queue.popleft()
            self._depth -= 1
            self._deficits[tenant] -= head.cost
            if not queue:
                self._retire(tenant)
            return head
        return None

    def drain(self) -> List["QueryTicket"]:
        """Remove and return everything queued (non-draining shutdown)."""
        leftovers: List["QueryTicket"] = []
        for tenant in list(self._queues):
            leftovers.extend(self._queues[tenant])
            self._retire(tenant)
        self._depth = 0
        return leftovers

    def _retire(self, tenant: str) -> None:
        """Forget a tenant whose queue emptied (credit does not persist)."""
        self._queues.pop(tenant, None)
        self._deficits.pop(tenant, None)
        if self._turn == tenant:
            self._turn = None
        try:
            self._active.remove(tenant)
        except ValueError:
            pass

    def __repr__(self) -> str:
        return (
            f"AdmissionController(depth={self._depth}, "
            f"tenants={len(self._queues)}, budget={self.memory_budget})"
        )
