"""Closed-loop multi-tenant serving benchmark (not a paper figure).

Three tenants — two GNMF-style (the paper's NMF micro-query at different
shapes) and one PageRank-style — each drive a closed loop against one
shared :class:`~repro.serving.MatrixService`: submit, wait, submit again,
for a fixed number of rounds.  The same replay runs twice, with the result
cache on (defaults) and off, to price what the serving layer's caching is
worth on an iterative multi-tenant workload.

Verifies the serving invariants while it measures:

* every served result is bit-identical to a standalone ``engine.execute()``
  on a fresh engine, with identical modeled seconds/bytes;
* both service runs agree with each other;
* nothing was shed, timed out, or failed;
* with caching on, repeat rounds hit the result cache.

With ``--replicas 1,2,4`` the bench switches to the scale-out replay:
eight tenants drive closed loops through :class:`AsyncMatrixService`
against replica pools of each requested size (result cache off), hard-
asserting that every served output and its modeled metrics are
bit-identical across replica counts and to standalone execution, and
recording QPS per count.  ``--assert-scaling R`` additionally requires
QPS(max replicas) >= R x QPS(min replicas) — enforced only when
``os.cpu_count()`` covers the peak replica count, since replica
dispatchers are Python threads and scaling is unmeasurable on fewer
cores (the JSON records the skip reason).

Writes ``BENCH_serving.json`` next to this script, appends the summary
table to ``RESULTS.txt``, and exits non-zero if any invariant fails —
CI runs this with ``--quick`` as a smoke test.
"""

from __future__ import annotations

import argparse
import asyncio
import io
import json
import os
import sys
import threading
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from repro.config import ServiceConfig
from repro.core import FuseMEEngine
from repro.lang import log, matrix_input
from repro.matrix import rand_dense, rand_sparse
from repro.serving import AsyncMatrixService, MatrixService

from common import BLOCK_SIZE, bench_config

EPS = 1e-8


def serving_config(**options):
    """The wall-clock bench cluster (4 nodes x 6 tasks, 6 MiB budget)."""
    return bench_config(
        num_nodes=4, tasks_per_node=6,
        task_memory_budget=6 * 1024 * 1024,
        **options,
    )


def gnmf_workload(name, rows, cols, common, seed):
    x = matrix_input("X", rows, cols, BLOCK_SIZE, density=0.05)
    u = matrix_input("U", rows, common, BLOCK_SIZE)
    v = matrix_input("V", cols, common, BLOCK_SIZE)
    query = x * log(u @ v.T + EPS)
    inputs = {
        "X": rand_sparse(rows, cols, 0.05, BLOCK_SIZE, seed=seed),
        "U": rand_dense(rows, common, BLOCK_SIZE, seed=seed + 1),
        "V": rand_dense(cols, common, BLOCK_SIZE, seed=seed + 2),
    }
    return name, query, inputs


def pagerank_workload(name, n, seed):
    a = matrix_input("A", n, n, BLOCK_SIZE, density=0.01)
    r = matrix_input("R", n, 1, BLOCK_SIZE)
    query = (a @ r) * 0.85 + 0.15 / n
    inputs = {
        "A": rand_sparse(n, n, 0.01, BLOCK_SIZE, seed=seed),
        "R": rand_dense(n, 1, BLOCK_SIZE, seed=seed + 1),
    }
    return name, query, inputs


def make_tenants(quick):
    if quick:
        return [
            gnmf_workload("gnmf_small", 250, 250, 50, seed=107),
            gnmf_workload("gnmf_wide", 250, 375, 50, seed=207),
            pagerank_workload("pagerank", 400, seed=307),
        ]
    return [
        gnmf_workload("gnmf_small", 500, 500, 100, seed=107),
        gnmf_workload("gnmf_wide", 500, 750, 100, seed=207),
        pagerank_workload("pagerank", 1000, seed=307),
    ]


def run_replay(tenants, rounds, result_cache_entries):
    """Drive every tenant's closed loop on one shared service."""
    engine = FuseMEEngine(serving_config())
    service = MatrixService(
        engine=engine,
        config=ServiceConfig(
            max_concurrency=3,
            result_cache_entries=result_cache_entries,
            queue_timeout_seconds=600.0,
        ),
    )
    served = {name: [] for name, _, _ in tenants}
    errors = []

    def loop(name, query, inputs):
        try:
            session = service.open_session(name).bind_many(inputs)
            for _ in range(rounds):
                served[name].append(session.execute(query, timeout=600.0))
        except Exception as exc:  # noqa: BLE001 - reported as bench failure
            errors.append(f"{name}: {type(exc).__name__}: {exc}")

    start = time.perf_counter()
    threads = [
        threading.Thread(target=loop, args=spec, name=f"tenant-{spec[0]}")
        for spec in tenants
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    status = service.status()
    service.close()
    return served, wall, status, errors


def check_invariants(tenants, runs, references, rounds):
    """Every serving invariant the bench guards; returns failure strings."""
    failures = []
    for label, (served, _, status, errors) in runs.items():
        failures.extend(f"{label}: {error}" for error in errors)
        for key in ("shed", "timed_out", "failed"):
            if status[key]:
                failures.append(f"{label}: {status[key]} queries {key}")
        for name, _, _ in tenants:
            results = served[name]
            if len(results) != rounds:
                failures.append(
                    f"{label}/{name}: served {len(results)}/{rounds} rounds"
                )
                continue
            reference = references[name]
            for index, result in enumerate(results):
                if not np.array_equal(
                    result.output(0).to_numpy(), reference.output(0).to_numpy()
                ):
                    failures.append(
                        f"{label}/{name}: round {index} output diverged "
                        "from standalone execute()"
                    )
                    break
                if result.metrics.totals() != reference.metrics.totals():
                    failures.append(
                        f"{label}/{name}: round {index} modeled metrics "
                        "diverged from standalone execute()"
                    )
                    break
    cached_status = runs["cached"][2]
    if cached_status["cache_hits"] == 0:
        failures.append("cached: result cache never hit on repeat rounds")
    return failures


# -- replica scale-out mode (--replicas) ------------------------------------


def make_scale_tenants(quick):
    """A mixed 8-tenant population with distinct seeds (so every tenant's
    outputs differ and routing spread actually matters)."""
    if quick:
        return [
            gnmf_workload("gnmf_a", 250, 250, 50, seed=1017),
            gnmf_workload("gnmf_b", 250, 250, 50, seed=2017),
            gnmf_workload("gnmf_c", 250, 250, 50, seed=3017),
            gnmf_workload("gnmf_wide_a", 250, 375, 50, seed=4017),
            gnmf_workload("gnmf_wide_b", 250, 375, 50, seed=5017),
            pagerank_workload("pagerank_a", 400, seed=6017),
            pagerank_workload("pagerank_b", 400, seed=7017),
            pagerank_workload("pagerank_c", 400, seed=8017),
        ]
    return [
        gnmf_workload("gnmf_a", 500, 500, 100, seed=1017),
        gnmf_workload("gnmf_b", 500, 500, 100, seed=2017),
        gnmf_workload("gnmf_c", 500, 500, 100, seed=3017),
        gnmf_workload("gnmf_wide_a", 500, 750, 100, seed=4017),
        gnmf_workload("gnmf_wide_b", 500, 750, 100, seed=5017),
        pagerank_workload("pagerank_a", 1000, seed=6017),
        pagerank_workload("pagerank_b", 1000, seed=7017),
        pagerank_workload("pagerank_c", 1000, seed=8017),
    ]


def run_scale_replay(tenants, rounds, num_replicas):
    """Replay every tenant's closed loop through the async front end
    against a *num_replicas* pool (result cache off — every query truly
    executes, so QPS measures engine throughput, not cache hits)."""
    service = AsyncMatrixService(
        FuseMEEngine(serving_config()),
        ServiceConfig(
            num_replicas=num_replicas,
            max_concurrency=3,
            result_cache_entries=0,
            queue_timeout_seconds=600.0,
        ),
    )
    served = {name: [] for name, _, _ in tenants}
    errors = []

    async def loop(name, query, inputs):
        try:
            session = service.open_session(name).bind_many(inputs)
            for _ in range(rounds):
                served[name].append(
                    await session.execute(query, shed=False)
                )
        except Exception as exc:  # noqa: BLE001 - reported as bench failure
            errors.append(f"{name}: {type(exc).__name__}: {exc}")

    async def drive():
        start = time.perf_counter()
        await asyncio.gather(*[loop(*spec) for spec in tenants])
        wall = time.perf_counter() - start
        status = service.status()
        await service.close()
        return wall, status

    wall, status = asyncio.run(drive())
    return served, wall, status, errors


def check_scale_invariants(tenants, runs, references, rounds):
    """Bit-identical outputs and modeled metrics at every replica count,
    plus the multi-replica runs actually spreading across replicas."""
    failures = []
    for count, (served, _, status, errors) in runs.items():
        label = f"{count}-replica"
        failures.extend(f"{label}: {error}" for error in errors)
        for key in ("shed", "timed_out", "failed"):
            if status[key]:
                failures.append(f"{label}: {status[key]} queries {key}")
        for name, _, _ in tenants:
            results = served[name]
            if len(results) != rounds:
                failures.append(
                    f"{label}/{name}: served {len(results)}/{rounds} rounds"
                )
                continue
            reference = references[name]
            for index, result in enumerate(results):
                if not np.array_equal(
                    result.output(0).to_numpy(),
                    reference.output(0).to_numpy(),
                ):
                    failures.append(
                        f"{label}/{name}: round {index} output diverged "
                        "from standalone execute()"
                    )
                    break
                if result.metrics.totals() != reference.metrics.totals():
                    failures.append(
                        f"{label}/{name}: round {index} modeled metrics "
                        "diverged from standalone execute()"
                    )
                    break
            replicas = {r.replica for r in results if r.replica}
            if len(replicas) > 1:
                failures.append(
                    f"{label}/{name}: tenant served by {sorted(replicas)} "
                    "(session affinity broken)"
                )
        if count > 1:
            busy = [r for r in status["replicas"] if r["served"]]
            if len(busy) < 2:
                failures.append(
                    f"{label}: only {len(busy)} replica(s) served queries "
                    "(routing never spread the tenants)"
                )
    return failures


def run_scale_mode(args, replica_counts) -> int:
    rounds = args.rounds or (2 if args.quick else 5)
    tenants = make_scale_tenants(args.quick)
    cpu_count = os.cpu_count() or 1

    references = {
        name: FuseMEEngine(serving_config()).execute(query, inputs)
        for name, query, inputs in tenants
    }

    runs = {
        count: run_scale_replay(tenants, rounds, count)
        for count in replica_counts
    }
    failures = check_scale_invariants(tenants, runs, references, rounds)

    total_queries = rounds * len(tenants)
    report = {
        "mode": "scale",
        "quick": args.quick,
        "rounds": rounds,
        "tenants": len(tenants),
        "cpu_count": cpu_count,
        "replicas": {},
    }
    print(f"serving scale-out replay: {len(tenants)} tenants x {rounds} "
          f"rounds ({total_queries} queries), result cache off, "
          f"{cpu_count} CPU core(s)")
    qps = {}
    for count, (_, wall, status, _) in runs.items():
        qps[count] = total_queries / wall
        latency = status["latency"]
        report["replicas"][str(count)] = {
            "wall_seconds": round(wall, 4),
            "queries_per_second": round(qps[count], 2),
            "served": status["served"],
            "latency_p50_ms": round(latency["p50"] * 1e3, 3),
            "latency_p95_ms": round(latency["p95"] * 1e3, 3),
            "per_replica_served": [
                r["served"] for r in status["replicas"]
            ],
        }
        print(f"  {count} replica(s): wall {wall:7.3f}s  "
              f"{qps[count]:7.2f} q/s  "
              f"served per replica {report['replicas'][str(count)]['per_replica_served']}")

    base = min(replica_counts)
    peak = max(replica_counts)
    scaling = qps[peak] / qps[base]
    report["qps_scaling"] = round(scaling, 3)
    print(f"  QPS scaling at {peak} replicas vs {base}: {scaling:.2f}x")

    # The QPS target needs real cores: replica dispatchers are Python
    # threads, so on fewer cores than replicas the GIL serializes them and
    # wall-clock scaling is unmeasurable (the determinism invariants above
    # are asserted unconditionally): report honestly, gate the assertion
    # on hardware.
    if args.assert_scaling is not None:
        if cpu_count >= peak:
            report["scaling_asserted"] = True
            if scaling < args.assert_scaling:
                failures.append(
                    f"scale: {scaling:.2f}x QPS at {peak} replicas, "
                    f"required >= {args.assert_scaling:.2f}x"
                )
        else:
            report["scaling_asserted"] = False
            report["scaling_skip_reason"] = (
                f"only {cpu_count} CPU core(s) for {peak} replicas"
            )
            print(f"  scaling assertion skipped: "
                  f"{report['scaling_skip_reason']}")

    print("  invariants: outputs and modeled metrics identical to "
          "standalone execute() at every replica count"
          + (" -- OK" if not failures else " -- FAILED"))

    out_path = Path(args.output) if args.output else (
        Path(__file__).resolve().parent / "BENCH_serving.json"
    )
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller shapes / fewer rounds (CI smoke)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="closed-loop rounds per tenant")
    parser.add_argument("--output", default=None,
                        help="path of the JSON report "
                             "(default: BENCH_serving.json next to this script)")
    parser.add_argument("--replicas", default=None,
                        help="comma-separated replica counts (e.g. 1,2,4): "
                             "run the scale-out replay through "
                             "AsyncMatrixService instead of the cache replay")
    parser.add_argument("--assert-scaling", type=float, default=None,
                        help="fail unless QPS at max(--replicas) is at least "
                             "this multiple of QPS at min(--replicas); only "
                             "enforced when os.cpu_count() covers the peak "
                             "replica count")
    args = parser.parse_args()
    if args.replicas is not None:
        counts = sorted({int(c) for c in args.replicas.split(",") if c.strip()})
        if not counts or counts[0] < 1:
            parser.error("--replicas needs positive integers, e.g. 1,2,4")
        return run_scale_mode(args, counts)
    rounds = args.rounds or (4 if args.quick else 10)
    tenants = make_tenants(args.quick)

    references = {
        name: FuseMEEngine(serving_config()).execute(query, inputs)
        for name, query, inputs in tenants
    }

    runs = {
        "cached": run_replay(tenants, rounds, result_cache_entries=128),
        "uncached": run_replay(tenants, rounds, result_cache_entries=0),
    }
    failures = check_invariants(tenants, runs, references, rounds)

    report = {"quick": args.quick, "rounds": rounds, "runs": {}}
    total_queries = rounds * len(tenants)
    print(f"serving replay: {len(tenants)} tenants x {rounds} rounds "
          f"({total_queries} queries), 3-way concurrency")
    for label, (_, wall, status, _) in runs.items():
        latency = status["latency"]
        entry = {
            "wall_seconds": round(wall, 4),
            "queries_per_second": round(total_queries / wall, 2),
            "served": status["served"],
            "shed": status["shed"],
            "timed_out": status["timed_out"],
            "failed": status["failed"],
            "latency_p50_ms": round(latency["p50"] * 1e3, 3),
            "latency_p95_ms": round(latency["p95"] * 1e3, 3),
            "result_cache": status["result_cache"],
            "plan_cache": status["plan_cache"],
            "slice_cache": status["slice_cache"],
            "cluster_stages": status["cluster"]["num_stages"],
        }
        report["runs"][label] = entry
        hit_rate = status["result_cache"]["hit_rate"]
        print(f"  {label:9s} wall {wall:7.3f}s  "
              f"{entry['queries_per_second']:7.2f} q/s  "
              f"p50 {entry['latency_p50_ms']:8.2f}ms  "
              f"p95 {entry['latency_p95_ms']:8.2f}ms  "
              f"result-cache hit rate {hit_rate:.2f}")
    speedup = (runs["uncached"][1] / runs["cached"][1])
    report["cached_speedup"] = round(speedup, 2)
    print(f"  result cache is worth {speedup:.2f}x wall-clock "
          f"on this {rounds}-round replay")
    print("  invariants: outputs and modeled metrics identical to "
          "standalone execute() for every served query"
          + (" -- OK" if not failures else " -- FAILED"))

    out_path = Path(args.output) if args.output else (
        Path(__file__).resolve().parent / "BENCH_serving.json"
    )
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        exit_code = main()
    sys.stdout.write(buffer.getvalue())
    results = Path(__file__).parent / "RESULTS.txt"
    with results.open("a", encoding="utf-8") as fh:
        fh.write("\nbench_serving\n=============\n")
        fh.write(buffer.getvalue())
    print(f"appended to {results}")
    sys.exit(exit_code)
