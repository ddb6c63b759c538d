"""The ledger's four workloads.

Every workload is a closed loop of *ops* grouped into fixed-size *cycles*:
a pass always runs whole cycles, so two passes of different length still
measure the same op mix and a median is comparable between them.  Inputs are
generated here from the seed; the engine only ever receives the generated
matrices and query objects.

Correctness is checked inside the run but outside the timed window: each
op's outputs are compared against :mod:`repro.lang.interpreter` on dense
bindings — never against another engine path.

The cluster shapes are copied (not imported) from the paper-figure benchmarks
so later PRs can delete those without moving this benchmark's baseline.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.lang
from repro import (
    ClusterConfig,
    EngineConfig,
    FuseMEEngine,
    MatrixService,
    matrix_input,
)
from repro.blocks import Block
from repro.execution import as_dag
from repro.lang.interpreter import evaluate_many
from repro.matrix.generators import rand_dense, rand_sparse
from repro.workloads import (
    GNMF,
    AutoEncoder,
    AutoEncoderShapes,
    als_loss_query,
    gnmf_updates,
    kl_divergence_query,
    nmf_query,
    pca_covariance_query,
)

#: Block size of the executing workloads (the paper's 1000, scaled).
BLOCK = 25
RTOL = 1e-8
ATOL = 1e-12


def fig14_config(**options) -> EngineConfig:
    """The Figure-14 cluster: 4 nodes x 6 tasks, 6 MiB per task, block 25.
    Everything else is the engine's default — what users get."""
    cluster = ClusterConfig(
        num_nodes=4,
        tasks_per_node=6,
        task_memory_budget=6 * 1024 * 1024,
        input_split_bytes=36 * 1024,
    )
    return EngineConfig(cluster=cluster, block_size=BLOCK, **options)


@dataclass
class Sample:
    """One op as the caller saw it, plus what the check learned about it."""

    index: int
    #: the end-to-end latency of the op (serving: submit -> result)
    wall: float
    #: the whole op including client-side glue the tracer's root span covers
    #: (serving: the re-bind or block write before the submit)
    op_wall: float = 0.0
    ok: bool = True
    modeled_s: float = 0.0
    comm_bytes: float = 0.0
    #: seconds the reference interpreter took on the same op (0: none ran)
    reference_s: float = 0.0
    #: serving: seconds the query sat queued, as the service reports it
    queue_wait_s: float = 0.0
    #: deterministic counts the program exposes (metrics, plan, cache stats)
    counts: Dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None

    def __post_init__(self) -> None:
        self.op_wall = self.op_wall or self.wall


def _close(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and bool(
        np.allclose(got, want, rtol=RTOL, atol=ATOL)
    )


def _execute_counts(result) -> Dict[str, float]:
    """Counts of one ``engine.execute`` from what the result exposes."""
    metrics, plan = result.metrics, result.physical_plan
    counters = metrics.counters
    return {
        "lang.dag_nodes": len(list(result.dag.nodes())),
        "cluster.stages": metrics.num_stages,
        "cluster.tasks": metrics.num_tasks,
        "cluster.flops": metrics.flops,
        "physical.units": len(plan.ops),
        "physical.waves": len(plan.waves()),
        "plan_cache.hits": counters.get("plan_cache_hits", 0),
        "plan_cache.misses": counters.get("plan_cache_misses", 0),
        "slice_cache.hits": counters.get("slice_cache_hits", 0),
        "slice_cache.misses": counters.get("slice_cache_misses", 0),
    }


class Workload:
    """One client, one engine.  Subclasses provide ``begin_cycle``, ``op``
    and ``check``; :meth:`run_cycle` times ops and interleaves the checks."""

    name = ""
    why = ""
    #: ops per cycle (per client)
    cycle = 1
    #: cycles in the traced pass (fixed, so counts repeat exactly)
    traced_cycles = 1
    clients = 1

    engine: FuseMEEngine

    def __init__(self, seed: int):
        self.seed = seed
        #: (query, inputs) of the last executed op, for the telemetry A/B
        self._last_call: Optional[tuple] = None
        self._twin: Optional[FuseMEEngine] = None

    def warm_up(self) -> float:
        """Execute every distinct query shape once (plan cache, lazy
        imports); returns that first — cold — query's wall seconds.  The
        op's outputs are dropped, so op 0 of the timed pass repeats it."""
        self.begin_cycle(0)
        start = time.perf_counter()
        self.op(0)
        return time.perf_counter() - start

    def begin_cycle(self, cycle: int) -> None:
        """Untimed per-cycle input preparation."""

    def op(self, index: int):
        raise NotImplementedError

    def check(self, index: int, out, wall: float) -> Sample:
        raise NotImplementedError

    def run_cycle(
        self, cycle: int, tracer, between: Callable[[], None] = lambda: None
    ) -> Tuple[List[Sample], float]:
        """Run one cycle; returns its samples and the timed wall seconds
        (checks and *between* — the host yardstick — are outside it)."""
        self.begin_cycle(cycle)
        samples: List[Sample] = []
        for k in range(self.cycle):
            index = cycle * self.cycle + k
            out, error = None, None
            start = time.perf_counter()
            try:
                with tracer.op(index):
                    out = self.op(index)
            except Exception as exc:  # noqa: BLE001 - a failed op is a data point
                error = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
            if error is None:
                sample = self.check(index, out, wall)
            else:
                sample = Sample(index, wall, ok=False, error=error)
            samples.append(sample)
            between()
        return samples, sum(s.wall for s in samples)

    def telemetry_off_wall(self) -> Optional[float]:
        """Wall seconds of the last op's query on a twin engine built with
        ``EngineConfig(telemetry=False)`` (same inputs, outputs dropped);
        None for workloads whose ops never build a query profile."""
        if self._last_call is None:
            return None
        if self._twin is None:
            self._twin = FuseMEEngine(fig14_config(telemetry=False))
            self._twin.execute(*self._last_call)
        start = time.perf_counter()
        self._twin.execute(*self._last_call)
        return time.perf_counter() - start

    def service_counts(self) -> Dict[str, int]:
        """Cumulative serving counters (``service.status()``); empty here."""
        return {}

    def close(self) -> None:
        self.engine.close()


# ---------------------------------------------------------------------------
# gnmf_iter
# ---------------------------------------------------------------------------


class GnmfIter(Workload):
    name = "gnmf_iter"
    why = (
        "The paper's macro-benchmark: plan-cache hit every op, X slabs hit the "
        "slice cache while U/V slabs miss; masked sparse kernels and k-axis "
        "aggregation do the work, planning does none."
    )
    cycle = 20  # factors are re-seeded every cycle
    traced_cycles = 2

    USERS, ITEMS, FACTORS, DENSITY = 975, 600, 50, 0.05

    def __init__(self, seed: int):
        super().__init__(seed)
        self.gnmf = GNMF(self.USERS, self.ITEMS, self.FACTORS, self.DENSITY, BLOCK)
        self.x = rand_sparse(
            self.USERS, self.ITEMS, self.DENSITY, BLOCK, seed=seed
        )
        self.x_dense = self.x.to_numpy()
        self.query = [self.gnmf.query.u_update, self.gnmf.query.v_update]
        self.roots = [expr.node for expr in self.query]
        self.engine = FuseMEEngine(fig14_config())
        self.u = self.v = None

    def begin_cycle(self, cycle: int) -> None:
        self.u, self.v = self.gnmf.initial_factors(
            seed=self.seed * 1000 + cycle * 2
        )

    def op(self, index: int):
        self._last_call = (self.query, {"X": self.x, "U": self.u, "V": self.v})
        result = self.engine.execute(*self._last_call)
        roots = list(result.dag.roots)
        return result, result.outputs[roots[0]], result.outputs[roots[1]]

    def check(self, index: int, out, wall: float) -> Sample:
        result, new_u, new_v = out
        dense = {
            "X": self.x_dense,
            "U": self.u.to_numpy(),
            "V": self.v.to_numpy(),
        }
        start = time.perf_counter()
        want_u, want_v = evaluate_many(self.roots, dense)
        reference_s = time.perf_counter() - start
        ok = _close(new_u.to_numpy(), want_u) and _close(new_v.to_numpy(), want_v)
        self.u, self.v = new_u, new_v  # the next iteration re-binds these
        return Sample(
            index,
            wall,
            ok=ok,
            modeled_s=result.metrics.elapsed_seconds,
            comm_bytes=result.metrics.comm_bytes,
            reference_s=reference_s,
            counts=_execute_counts(result),
        )


# ---------------------------------------------------------------------------
# autoencoder_dense
# ---------------------------------------------------------------------------


class AutoencoderDense(Workload):
    name = "autoencoder_dense"
    why = (
        "All-dense BLAS blocks, no mask, 12 units in 9 waves and every slab "
        "new each step: per-unit driver/stage/span bookkeeping is a large "
        "share and the slice cache mostly misses — taxes on the dense/miss "
        "path show here."
    )
    BATCHES = 8
    cycle = BATCHES  # one pass over the data
    traced_cycles = 4

    FEATURES, H1, H2, BATCH = 500, 250, 25, 250
    WEIGHTS = ("W1", "W2", "W3", "W4")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.model = AutoEncoder(
            AutoEncoderShapes(self.FEATURES, self.H1, self.H2),
            self.BATCH,
            block_size=BLOCK,
        )
        self.data = rand_dense(
            self.BATCH * self.BATCHES, self.FEATURES, BLOCK, seed=seed
        )
        self.roots = [expr.node for expr in self.model.step_exprs]
        self.engine = FuseMEEngine(fig14_config())
        self.weights = self.model.initial_weights(seed=seed + 1)

    def op(self, index: int):
        # slicing the next batch is part of the step, as in run_epoch
        per_batch = self.BATCH // BLOCK
        row0 = (index % self.BATCHES) * per_batch
        batch = self.data.block_slice(
            (row0, row0 + per_batch), (0, self.data.block_grid[1])
        )
        self._last_call = (self.model.step_exprs, {"B": batch, **self.weights})
        result = self.engine.execute(*self._last_call)
        roots = list(result.dag.roots)
        return result, {
            name: result.outputs[root] for name, root in zip(self.WEIGHTS, roots)
        }

    def check(self, index: int, out, wall: float) -> Sample:
        result, updated = out
        dense = {name: m.to_numpy() for name, m in self._last_call[1].items()}
        start = time.perf_counter()
        want = evaluate_many(self.roots, dense)
        reference_s = time.perf_counter() - start
        ok = all(
            _close(updated[name].to_numpy(), ref)
            for name, ref in zip(self.WEIGHTS, want)
        )
        self.weights = updated
        return Sample(
            index,
            wall,
            ok=ok,
            modeled_s=result.metrics.elapsed_seconds,
            comm_bytes=result.metrics.comm_bytes,
            reference_s=reference_s,
            counts=_execute_counts(result),
        )


# ---------------------------------------------------------------------------
# plan_cold
# ---------------------------------------------------------------------------

#: Table 2 of the paper: (users, items, non-zeros).
_TABLE2 = {
    "MovieLens": (283_228, 58_098, 27_753_444),
    "Netflix": (480_189, 17_770, 100_480_507),
    "YahooMusic": (1_823_179, 136_736, 717_872_016),
}

PAPER_BLOCK = 1000

Jitter = Callable[[int], int]


def parse_expression(text: str, names):
    # looked up through the package at call time: the traced pass patches
    # the name in repro's own modules, not in this one
    return repro.lang.parse_expression(text, names)


def _gnmf_template(dataset: str, shrink: int, factors: int, dml: bool):
    users, items, nnz = _TABLE2[dataset]
    density = nnz / (users * items)

    def build(jitter: Jitter):
        u, i = jitter(users // shrink), jitter(items // shrink)
        if not dml:
            q = gnmf_updates(u, i, factors, density, PAPER_BLOCK)
            return [q.u_update, q.v_update]
        names = {
            "X": matrix_input("X", u, i, PAPER_BLOCK, density=density),
            "U": matrix_input("U", factors, i, PAPER_BLOCK),
            "V": matrix_input("V", u, factors, PAPER_BLOCK),
        }
        return [
            parse_expression(
                "U * (t(V) %*% X) / (t(V) %*% V %*% U + 1e-9)", names
            ),
            parse_expression(
                "V * (X %*% t(U)) / (V %*% U %*% t(U) + 1e-9)", names
            ),
        ]

    return build


def _factor_template(kind: str, side: int, common: int, dml: bool):
    """Table-3 style ``side x common x side`` single-multiplication queries
    (the common-large-dimension regime, density 0.2)."""
    density = 0.2

    def build(jitter: Jitter):
        rows, cols, k = jitter(side), jitter(side), jitter(common)
        if kind == "als":
            return als_loss_query(rows, cols, k, density, PAPER_BLOCK).expr
        if kind == "nmf" and not dml:
            return nmf_query(rows, cols, k, density, PAPER_BLOCK).expr
        if kind == "kl" and not dml:
            return kl_divergence_query(
                rows, cols, k, density, PAPER_BLOCK
            ).masked_term
        x = matrix_input("X", rows, cols, PAPER_BLOCK, density=density)
        if kind == "nmf":
            names = {
                "X": x,
                "U": matrix_input("U", rows, k, PAPER_BLOCK),
                "V": matrix_input("V", cols, k, PAPER_BLOCK),
            }
            return parse_expression("X * log(U %*% t(V) + 1e-8)", names)
        names = {
            "X": x,
            "W": matrix_input("W", rows, k, PAPER_BLOCK),
            "H": matrix_input("H", k, cols, PAPER_BLOCK),
        }
        return parse_expression(
            "sum(X * log((X + 1e-12) / (W %*% H + 1e-12)))", names
        )

    return build


def _pca_template(rows: int, cols: int, dml: bool):
    def build(jitter: Jitter):
        r, c = jitter(rows), jitter(cols)
        if not dml:
            return pca_covariance_query(r, c, 10, PAPER_BLOCK).expr
        names = {
            "X": matrix_input("X", r, c, PAPER_BLOCK, density=1.0),
            "S": matrix_input("S", c, 10, PAPER_BLOCK),
        }
        return parse_expression("t(X %*% S) %*% X", names)

    return build


def _autoencoder_template(features: int, batch: int, hidden1: int):
    def build(jitter: Jitter):
        model = AutoEncoder(
            AutoEncoderShapes(jitter(features), jitter(hidden1), 2),
            jitter(batch),
            block_size=PAPER_BLOCK,
        )
        return model.step_exprs

    return build


#: One cycle of plan_cold: GNMF / NMF / ALS / KL / PCA / autoencoder at
#: Table-2 / Table-3 paper-scale metas, half of the parseable ones written
#: as DML.  Sized on the 2-core sizing host so a cycle costs ~2 s with the
#: median op near 0.08 s and none above ~0.3 s (the ISSUE's 0.3 s / 2 s
#: shrunk uniformly: the contract's time cap allows ~20 s of timed ops, and
#: the quiet-quartile statistics want about ten cycles of them).
PLAN_COLD_TEMPLATES: Sequence[Tuple[str, Callable]] = (
    ("gnmf:MovieLens/2:k2000", _gnmf_template("MovieLens", 2, 2000, False)),
    ("gnmf:MovieLens/2:k200:dml", _gnmf_template("MovieLens", 2, 200, True)),
    ("gnmf:MovieLens/4:k5000", _gnmf_template("MovieLens", 4, 5000, False)),
    ("gnmf:Netflix/2:k5000:dml", _gnmf_template("Netflix", 2, 5000, True)),
    ("gnmf:Netflix/2:k2000", _gnmf_template("Netflix", 2, 2000, False)),
    ("gnmf:Netflix/2:k200:dml", _gnmf_template("Netflix", 2, 200, True)),
    ("gnmf:Netflix/4:k2000:dml", _gnmf_template("Netflix", 4, 2000, True)),
    ("gnmf:YahooMusic/16:k200", _gnmf_template("YahooMusic", 16, 200, False)),
    ("nmf:100Kx20K", _factor_template("nmf", 100_000, 20_000, False)),
    ("nmf:100Kx50K:dml", _factor_template("nmf", 100_000, 50_000, True)),
    ("nmf:200Kx20K:dml", _factor_template("nmf", 200_000, 20_000, True)),
    ("als:300Kx20K", _factor_template("als", 300_000, 20_000, False)),
    ("als:100Kx50K", _factor_template("als", 100_000, 50_000, False)),
    ("als:200Kx20K", _factor_template("als", 200_000, 20_000, False)),
    ("kl:100Kx20K:dml", _factor_template("kl", 100_000, 20_000, True)),
    ("kl:100Kx30K", _factor_template("kl", 100_000, 30_000, False)),
    ("kl:300Kx20K:dml", _factor_template("kl", 300_000, 20_000, True)),
    ("pca:1Mx2K:dml", _pca_template(1_000_000, 2_000, True)),
    ("pca:500Kx2K", _pca_template(500_000, 2_000, False)),
    ("ae:100K:b4096:h500", _autoencoder_template(100_000, 4_096, 500)),
    ("ae:500K:b8192:h500", _autoencoder_template(500_000, 8_192, 500)),
    ("ae:500K:b8192:h1000", _autoencoder_template(500_000, 8_192, 1_000)),
)


class PlanCold(Workload):
    name = "plan_cold"
    why = (
        "Every op is a genuine plan-cache miss at paper scale: parse, "
        "simplify, CFG exploration/exploitation, lowering and the (P,Q,R) "
        "search do all the work and no kernel runs — the control on which "
        "kernel/consolidation optimisations must read no change."
    )
    cycle = len(PLAN_COLD_TEMPLATES)
    traced_cycles = 2
    #: dimension jitter that makes every op a distinct query while keeping
    #: its block-grid extents — hence its planning cost — within ~1 %
    JITTER = 0.01

    def __init__(self, seed: int):
        super().__init__(seed)
        self.engine = FuseMEEngine(
            EngineConfig(cluster=ClusterConfig(), block_size=PAPER_BLOCK)
        )
        self.order: List[int] = []
        self._query = None

    def warm_up(self) -> float:
        # one small instance of every template: imports, parser tables and
        # planner code paths get warm, the plan cache holds nothing reusable
        def shrink(value: int) -> int:
            return max(PAPER_BLOCK, value // 64)

        walls = []
        for _, build in PLAN_COLD_TEMPLATES:
            start = time.perf_counter()
            self.engine.explain(build(shrink))
            walls.append(time.perf_counter() - start)
        return walls[0]

    def begin_cycle(self, cycle: int) -> None:
        rng = np.random.default_rng([self.seed, cycle, 1])
        self.order = [int(i) for i in rng.permutation(self.cycle)]

    def _build(self, index: int):
        rng = np.random.default_rng([self.seed, index, 2])

        def jitter(value: int) -> int:
            spread = max(1, int(value * self.JITTER))
            return value + int(rng.integers(-spread, spread + 1))

        _, build = PLAN_COLD_TEMPLATES[self.order[index % self.cycle]]
        return build(jitter)

    def op(self, index: int):
        cache = self.engine.plan_cache
        hits, misses = cache.hits, cache.misses
        self._query = self._build(index)
        text = self.engine.explain(self._query)
        return text, cache.hits - hits, cache.misses - misses

    def check(self, index: int, out, wall: float) -> Sample:
        text, cache_hits, cache_misses = out
        engine = self.engine
        report = getattr(engine, "last_report", None)
        # the re-lowering is a plan-cache hit: it hands back the plan the op
        # just made, which must be feasible and render exactly as explained
        plan = engine.lower_query(self._query)
        searches = [
            op.optimizer_result for op in plan.ops
            if op.optimizer_result is not None
        ]
        estimates = [op.estimate for op in plan.ops if op.estimate is not None]
        # matmul-free units carry a bytes/flops estimate without seconds
        modeled = sum(e.seconds for e in estimates if e.seconds is not None)
        ok = (
            plan.render() == text
            and all(s.feasible for s in searches)
            and len(estimates) == len(plan.ops)
            and bool(np.isfinite(modeled))
        )
        return Sample(
            index,
            wall,
            ok=ok,
            modeled_s=modeled,
            comm_bytes=sum(e.net_bytes for e in estimates),
            counts={
                "lang.dag_nodes": len(list(as_dag(self._query).nodes())),
                "plan_cache.hits": cache_hits,
                "plan_cache.misses": cache_misses,
                "physical.units": len(plan.ops),
                "physical.waves": len(plan.waves()),
                "cfg.plans_examined": report.examined if report else 0,
                "cfg.exploitation_splits": report.splits if report else 0,
                "optimizer.cuboids_enumerated": sum(s.candidates for s in searches),
                "optimizer.cuboids_evaluated": sum(s.evaluations for s in searches),
                "optimizer.memo_hits": sum(s.memo_hits for s in searches),
                "optimizer.memo_misses": sum(s.memo_misses for s in searches),
            },
        )


# ---------------------------------------------------------------------------
# served_mix
# ---------------------------------------------------------------------------


@dataclass
class _Tenant:
    """One closed-loop client: its session, query and seeded action cycle."""

    name: str
    dag: object
    roots: list
    x: object
    x_dense: np.ndarray
    make_factors: Callable[[int], Dict[str, object]]
    actions: List[str]
    session: object = None
    factors: Dict[str, object] = field(default_factory=dict)
    expected: Optional[List[np.ndarray]] = None
    prepared: List[Dict[str, object]] = field(default_factory=list)


class ServedMix(Workload):
    name = "served_mix"
    why = (
        "The only workload crossing repro.serving under concurrency: "
        "admission, DRR queue, dispatch poll, result cache and accounting; "
        "cache reads and invalidating writes sit side by side so a hit-path "
        "gain that costs invalidation shows."
    )
    clients = 2
    cycle = 20  # ops per client per round: 10 re-bind, 5 repeat, 5 write
    traced_cycles = 2
    FACTORS, DENSITY = 50, 0.05

    def __init__(self, seed: int):
        super().__init__(seed)
        self.engine = FuseMEEngine(fig14_config())
        self.service = MatrixService(self.engine)
        #: a second engine, never served: the bit-identity reference
        self.standalone = FuseMEEngine(fig14_config())
        k, d = self.FACTORS, self.DENSITY

        gnmf = GNMF(500, 500, k, d, BLOCK)
        als = als_loss_query(600, 400, k, d, BLOCK)

        def gnmf_factors(draw: int):
            u, v = gnmf.initial_factors(seed=draw)
            return {"U": u, "V": v}

        def als_factors(draw: int):
            return {
                "U": rand_dense(600, k, BLOCK, seed=draw, low=0.1, high=1.0),
                "V": rand_dense(k, 400, BLOCK, seed=draw + 1, low=0.1, high=1.0),
            }

        specs = (
            ("gnmf", [gnmf.query.u_update, gnmf.query.v_update],
             rand_sparse(500, 500, d, BLOCK, seed=seed), gnmf_factors),
            ("als", [als.expr],
             rand_sparse(600, 400, d, BLOCK, seed=seed + 1), als_factors),
        )
        self.tenants: List[_Tenant] = []
        for slot, (name, exprs, x, factors) in enumerate(specs):
            actions = ["bind"] * 10 + ["repeat"] * 5 + ["write"] * 5
            np.random.default_rng([seed, slot, 3]).shuffle(actions)
            tenant = _Tenant(
                name=name,
                # a DAG object, so the service executes this very object and
                # the tracer can link the dispatcher's work to the client op
                dag=as_dag(exprs),
                roots=[e.node for e in exprs],
                x=x,
                x_dense=x.to_numpy(),
                make_factors=factors,
                actions=actions,
            )
            tenant.session = self.service.open_session(name)
            tenant.session.bind("X", x)
            self.tenants.append(tenant)
        self._pool = ThreadPoolExecutor(max_workers=self.clients)

    # -- one client's round ------------------------------------------------

    def _draw(self, slot: int, step: int) -> int:
        return (self.seed * 7919 + slot * 104_729 + step * 2) % (2**31)

    def _client_round(self, slot: int, cycle: int, tracer) -> List[dict]:
        tenant = self.tenants[slot]
        log: List[dict] = []
        for k, action in enumerate(tenant.actions):
            # op ids interleave the clients: even = tenant 0, odd = tenant 1
            index = (cycle * self.cycle + k) * self.clients + slot
            entry = {"index": index, "action": action, "write": None,
                     "served": None, "error": None}
            start = submitted = time.perf_counter()
            try:
                with tracer.op(index):
                    if action == "bind":
                        tenant.factors = tenant.prepared[k]
                        tenant.session.bind_many(tenant.factors)
                    elif action == "write":
                        entry["write"] = self._write_block(tenant, index)
                    submitted = time.perf_counter()
                    entry["served"] = tenant.session.execute(tenant.dag)
            except Exception as exc:  # noqa: BLE001 - shed/timeout/raise all count
                entry["error"] = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
            entry["latency"], entry["op_wall"] = end - submitted, end - start
            entry["factors"] = tenant.factors
            log.append(entry)
        return log

    def _write_block(self, tenant: _Tenant, index: int):
        """Scale one stored block of X in place (bumps the matrix version)."""
        rng = np.random.default_rng([self.seed, index, 4])
        keys = tenant.x.block_keys()
        bi, bj = keys[int(rng.integers(len(keys)))]
        block = Block(tenant.x.get_block(bi, bj).data * 1.03125)
        tenant.x.set_block(bi, bj, block)
        return bi, bj, block.to_numpy()

    # -- the round ---------------------------------------------------------

    def warm_up(self) -> float:
        walls = []
        for slot, tenant in enumerate(self.tenants):
            tenant.factors = tenant.make_factors(self._draw(slot, 0))
            tenant.session.bind_many(tenant.factors)
            start = time.perf_counter()
            tenant.session.execute(tenant.dag)
            walls.append(time.perf_counter() - start)
            self.standalone.execute(tenant.dag, {"X": tenant.x, **tenant.factors})
        return walls[0]

    def run_cycle(
        self, cycle: int, tracer, between: Callable[[], None] = lambda: None
    ) -> Tuple[List[Sample], float]:
        # fresh factors are generated before the clock starts: making them
        # is the load generator's work, not the service's
        for slot, tenant in enumerate(self.tenants):
            tenant.prepared = [
                tenant.make_factors(self._draw(slot, 1 + cycle * self.cycle + k))
                if action == "bind" else {}
                for k, action in enumerate(tenant.actions)
            ]
        start = time.perf_counter()
        futures = [
            self._pool.submit(self._client_round, slot, cycle, tracer)
            for slot in range(self.clients)
        ]
        logs = [future.result() for future in futures]
        wall = time.perf_counter() - start
        samples: List[Sample] = []
        for tenant, log in zip(self.tenants, logs):
            samples.extend(self._check_round(tenant, log))
            between()
        samples.sort(key=lambda s: s.index)
        return samples, wall

    def _check_round(self, tenant: _Tenant, log: List[dict]) -> List[Sample]:
        """Replay the client's round through the reference interpreter."""
        samples: List[Sample] = []
        last_executed = None
        for entry in log:
            if entry["write"] is not None:
                bi, bj, values = entry["write"]
                rows, cols = values.shape
                r0, c0 = bi * BLOCK, bj * BLOCK
                tenant.x_dense[r0:r0 + rows, c0:c0 + cols] = values
            served = entry["served"]
            sample = Sample(
                entry["index"], entry["latency"], op_wall=entry["op_wall"],
                ok=entry["error"] is None, error=entry["error"],
            )
            samples.append(sample)
            if served is None:
                continue
            if entry["action"] != "repeat" or tenant.expected is None:
                dense = {"X": tenant.x_dense}
                dense.update(
                    (name, m.to_numpy()) for name, m in entry["factors"].items()
                )
                begin = time.perf_counter()
                tenant.expected = evaluate_many(tenant.roots, dense)
                sample.reference_s = time.perf_counter() - begin
            sample.ok = all(
                _close(served.outputs[root].to_numpy(), want)
                for root, want in zip(served.result.dag.roots, tenant.expected)
            )
            sample.modeled_s = served.metrics.elapsed_seconds
            sample.comm_bytes = served.metrics.comm_bytes
            sample.queue_wait_s = served.queue_seconds
            if not served.from_cache:
                sample.counts.update(_execute_counts(served.result))
                last_executed = (sample, served, entry["factors"])
            sample.counts["serving.from_cache"] = int(served.from_cache)
            sample.counts["serving.invalidations"] = int(
                entry["action"] == "write" and not served.from_cache
            )
        if last_executed is not None:
            # no write follows the round's last executed op, so X still holds
            # the content it read: a standalone engine must agree bit for bit
            sample, served, factors = last_executed
            alone = self.standalone.execute(tenant.dag, {"X": tenant.x, **factors})
            sample.ok = sample.ok and all(
                np.array_equal(alone.outputs[a].to_numpy(),
                               served.outputs[b].to_numpy())
                for a, b in zip(alone.dag.roots, served.result.dag.roots)
            ) and (
                alone.metrics.elapsed_seconds == served.metrics.elapsed_seconds
                and alone.metrics.comm_bytes == served.metrics.comm_bytes
            )
        return samples

    def service_counts(self) -> Dict[str, int]:
        status = self.service.status()
        return {
            key: int(status[key])
            for key in ("served", "cache_hits", "shed", "timed_out", "failed")
        }

    def close(self) -> None:
        self._pool.shutdown(wait=True)
        self.service.close()
        self.standalone.close()


WORKLOADS = {
    cls.name: cls for cls in (GnmfIter, AutoencoderDense, PlanCold, ServedMix)
}
