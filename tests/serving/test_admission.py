"""Admission control: bounded queues, DRR fairness, shedding, timeouts."""

import pytest

from repro.config import ServiceConfig
from repro.errors import ServiceOverloadedError
from repro.lang import matrix_input, sum_of, sq
from repro.matrix import rand_dense
from repro.execution import as_dag
from repro.serving import admission
from repro.serving.admission import AdmissionController, estimate_query_bytes


class FakeTicket:
    """The minimum surface AdmissionController needs from a ticket."""

    def __init__(self, tenant, cost, enqueued_at=0.0, query_id="q"):
        self.tenant = tenant
        self.cost = cost
        self.enqueued_at = enqueued_at
        self.query_id = query_id


@pytest.fixture(autouse=True)
def small_quantum(monkeypatch):
    """A 10-byte DRR quantum, so a few small fake tickets span rounds."""
    monkeypatch.setattr(admission, "DRR_QUANTUM_BYTES", 10)


def controller(budget=1000, **options):
    defaults = dict(max_queue_depth=16, queue_timeout_seconds=1.0)
    defaults.update(options)
    return AdmissionController(ServiceConfig(**defaults), budget)


class TestEstimate:
    def test_counts_inputs_and_dense_outputs(self):
        x = matrix_input("X", 100, 50, 25)
        dag = as_dag(x * 2.0)
        matrix = rand_dense(100, 50, 25, seed=1)
        estimate = estimate_query_bytes(dag, {"X": matrix})
        assert estimate == matrix.nbytes + 100 * 50 * 8

    def test_shared_matrix_counted_once(self):
        x = matrix_input("X", 50, 50, 25)
        y = matrix_input("Y", 50, 50, 25)
        dag = as_dag(x + y)
        matrix = rand_dense(50, 50, 25, seed=2)
        both = estimate_query_bytes(dag, {"X": matrix, "Y": matrix})
        assert both == matrix.nbytes + 50 * 50 * 8

    def test_aggregation_output_is_cheap(self):
        x = matrix_input("X", 100, 100, 25)
        dag = as_dag(sum_of(sq(x)))
        matrix = rand_dense(100, 100, 25, seed=3)
        estimate = estimate_query_bytes(dag, {"X": matrix})
        # the scalar root adds 8 bytes, not a full dense matrix
        assert estimate == matrix.nbytes + 8


class TestShedding:
    def test_query_over_budget_is_shed_immediately(self):
        c = controller(budget=100)
        with pytest.raises(ServiceOverloadedError, match="memory budget"):
            c.offer(FakeTicket("a", cost=101))
        assert c.depth == 0

    def test_full_queue_sheds(self):
        c = controller(max_queue_depth=2)
        c.offer(FakeTicket("a", 10))
        c.offer(FakeTicket("a", 10))
        with pytest.raises(ServiceOverloadedError, match="queue is full"):
            c.offer(FakeTicket("b", 10))
        assert c.depth == 2

    def test_query_exactly_at_budget_is_queued(self):
        c = controller(budget=100)
        c.offer(FakeTicket("a", 100))
        assert c.depth == 1


def picks(c):
    """Drain *c* one :meth:`next_ticket` at a time, as the dispatcher does."""
    out = []
    while (ticket := c.next_ticket()) is not None:
        out.append(ticket)
    return out


class TestWaves:
    """The order successive single picks dispatch queued queries in."""

    def test_deficit_round_robin_interleaves_tenants(self):
        """A tenant that submitted first cannot monopolize the dispatcher."""
        c = controller()
        for i in range(4):
            c.offer(FakeTicket("alice", 10, query_id=f"a{i}"))
        for i in range(4):
            c.offer(FakeTicket("bob", 10, query_id=f"b{i}"))
        tenants = [t.tenant for t in picks(c)]
        assert tenants == ["alice", "bob"] * 4
        assert c.depth == 0

    def test_turn_spans_picks_while_credit_lasts(self, monkeypatch):
        """A tenant keeps its turn across calls until its credit runs out."""
        monkeypatch.setattr(admission, "DRR_QUANTUM_BYTES", 20)
        c = controller()
        for i in range(3):
            c.offer(FakeTicket("alice", 10, query_id=f"a{i}"))
            c.offer(FakeTicket("bob", 10, query_id=f"b{i}"))
        assert [t.query_id for t in picks(c)] == [
            "a0", "a1", "b0", "b1", "a2", "b2",
        ]

    def test_large_query_accumulates_credit(self):
        """A query costing many quanta is admitted after banking credit,
        not starved forever."""
        c = controller(budget=1000)
        c.offer(FakeTicket("a", 95, query_id="big"))
        c.offer(FakeTicket("b", 10, query_id="small"))
        # "small" goes first while "big" banks credit, then "big" runs
        assert [t.query_id for t in picks(c)] == ["small", "big"]

    def test_fifo_among_equal_priorities(self):
        """Within one tenant, queries dequeue in submission order."""
        c = controller()
        c.offer(FakeTicket("a", 10, query_id="first"))
        c.offer(FakeTicket("a", 10, query_id="second"))
        assert [t.query_id for t in picks(c)] == ["first", "second"]

    def test_empty_controller_yields_none(self):
        assert controller().next_ticket() is None


class TestExpiry:
    def test_expired_tickets_are_removed(self):
        c = controller(queue_timeout_seconds=1.0)
        c.offer(FakeTicket("a", 10, enqueued_at=0.0, query_id="old"))
        c.offer(FakeTicket("a", 10, enqueued_at=5.0, query_id="fresh"))
        expired = c.expire(now=4.0)
        assert [t.query_id for t in expired] == ["old"]
        assert c.depth == 1
        assert [t.query_id for t in picks(c)] == ["fresh"]

    def test_no_timeout_configured(self):
        c = controller(queue_timeout_seconds=None)
        c.offer(FakeTicket("a", 10, enqueued_at=0.0))
        assert c.expire(now=1e9) == []
        assert c.depth == 1

    def test_drain_empties_everything(self):
        c = controller()
        c.offer(FakeTicket("a", 10))
        c.offer(FakeTicket("b", 10))
        assert len(c.drain()) == 2
        assert c.depth == 0
        assert c.next_ticket() is None
