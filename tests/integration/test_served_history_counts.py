"""Count gate: per-query work on a long-lived cluster is O(this query).

A :class:`MatrixService` keeps one :class:`SimulatedCluster` for its whole
life, so the cluster's stage list grows with every query served.  The
engine's per-query bookkeeping (the metrics baseline, the timeout check)
must not re-walk that history: the number of
``StageRecord``\\ s a query walks is a property of the query, not of how
many queries came before it.  No clock is read — the gate counts records.

The same holds for what the service keeps between queries: its result
cache and the engine's slice cache hold only entries a later lookup can
still hit, so a loop of re-binds and writes holds a constant number of
them.
"""

from repro import FuseMEEngine, MatrixService, ServiceConfig
from repro.blocks.block import Block
from repro.cluster.metrics import MetricsCollector
from repro.lang import matrix_input, sq, sum_of
from repro.matrix import rand_dense, rand_sparse
from repro.workloads import GNMF

from tests.conftest import make_config

BS = 25
QUERIES = 200


def count_walked_records(monkeypatch):
    """Wrap every collector read that hands out stage records; returns the
    one-element running total of records handed out."""
    walked = [0]

    def counting(name, size):
        original = getattr(MetricsCollector, name)

        def wrapper(self, *args, **kwargs):
            out = original(self, *args, **kwargs)
            walked[0] += size(out)
            return out

        monkeypatch.setattr(MetricsCollector, name, wrapper)

    counting("_stages_view", len)
    counting("diff_since", lambda collector: len(collector.stages))
    return walked


def test_stage_records_walked_per_query_do_not_grow(monkeypatch):
    query = sum_of(sq(
        matrix_input("A", 75, 50, BS) @ matrix_input("B", 50, 75, BS)
    ))
    inputs = {
        "A": rand_dense(75, 50, BS, seed=1),
        "B": rand_dense(50, 75, BS, seed=2),
    }
    reference = FuseMEEngine(make_config()).execute(query, inputs)
    assert reference.metrics.num_stages >= 2

    walked = count_walked_records(monkeypatch)
    per_query = []
    service = MatrixService(
        FuseMEEngine(make_config()), ServiceConfig(result_cache_entries=0)
    )
    with service:
        session = service.open_session("alice").bind_many(inputs)
        for _ in range(QUERIES):
            before = walked[0]
            served = session.execute(query, timeout=60.0)
            per_query.append(walked[0] - before)
            assert not served.from_cache
        history = service.cluster.metrics.num_stages

    assert history == QUERIES * reference.metrics.num_stages
    assert per_query[QUERIES - 1] == per_query[4], (
        f"query {QUERIES} walked {per_query[QUERIES - 1]} stage records, "
        f"query 5 walked {per_query[4]}: per-query work grows with history"
    )
    assert served.metrics.totals() == reference.metrics.totals()


def test_caches_stay_bounded_under_rebinds_and_writes():
    """Each round re-binds fresh factors (the old ones die), repeats the
    query (a result-cache hit) and writes one block of X (its older
    version can never be read again).  From round 2 on the caches hold the
    same entries and bytes every round; before entries followed their
    inputs' liveness, both grew every round.  The hit and miss counts are
    the ones the pinning caches produced: dropping dead entries loses no
    hit."""
    gnmf = GNMF(100, 75, 10, 0.1, BS)
    x = rand_sparse(100, 75, 0.1, BS, seed=3)
    query = [gnmf.query.u_update, gnmf.query.v_update]
    held = []
    with MatrixService(FuseMEEngine(make_config())) as service:
        session = service.open_session("alice").bind("X", x)
        for seed in range(6):
            u, v = gnmf.initial_factors(seed=seed)
            session.bind_many({"U": u, "V": v})
            del u, v
            assert not session.execute(query, timeout=60.0).from_cache
            assert session.execute(query, timeout=60.0).from_cache
            x.set_block(0, 0, Block(x.get_block(0, 0).to_numpy() * 1.5))
            assert not session.execute(query, timeout=60.0).from_cache
            status = service.status()
            results, slabs = status["result_cache"], status["slice_cache"]
            held.append((results["entries"], slabs["entries"], slabs["bytes"]))
    assert held[1:] == [held[1]] * 5, held
    assert (results["hits"], results["misses"]) == (6, 24)
    assert (slabs["hits"], slabs["misses"]) == (1035, 177)
