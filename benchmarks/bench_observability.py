"""Observability A/B: full telemetry must be (nearly) free and faithful.

Runs the GNMF update iteration twice on identical inputs — once with
telemetry disabled, once with full telemetry (span tracer, a subscribed
sink, the event-driven runtime's trace recorder) — and checks the
observability contract end to end:

* **non-invasive**: outputs bit-identical, modeled metrics unchanged;
* **cheap**: wall-clock overhead of full tracing stays under 5%;
* **accountable**: ``engine.profile()`` joins a prediction and a
  measurement (with relative error) for every physical-plan unit;
* **exportable**: the Prometheus page parses, the Chrome/Perfetto trace
  validates and contains span + cache events.

Then exercises the **service observability plane** (DESIGN.md §16): a
3-tenant replay with per-tenant accounting and SLO burn-rate tracking on
must stay within the same wall-clock overhead budget versus the bare
service, conserve cost (ledgers sum to the cluster totals), flip the
burn-rate alert for a canary tenant with an impossible latency target,
and serve a parseable ``/metrics`` page over real HTTP.

Writes ``BENCH_observability.json``, the per-query Perfetto trace
``TRACE_observability.json`` and the ``CHARGEBACK_observability.txt``
chargeback report next to this script.  Exits non-zero on any contract
violation — CI runs this with ``--quick`` as a smoke test.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.request
from pathlib import Path

import numpy as np

from repro.cluster.runtime.trace import validate_chrome_trace
from repro.config import ServiceConfig
from repro.core import FuseMEEngine
from repro.lang import matrix_input, sq, sum_of
from repro.matrix import rand_dense, rand_sparse
from repro.obs import MemorySink, PrometheusSink, SLOSpec
from repro.obs.accounting import RESOURCE_FIELDS
from repro.obs.prometheus import (
    cache_families,
    engine_families,
    render_exposition,
    validate_exposition,
)
from repro.serving import MatrixService
from repro.workloads.gnmf import gnmf_updates

from common import BLOCK_SIZE, bench_config

#: Wall-clock overhead budget for full telemetry (fraction of baseline).
OVERHEAD_BUDGET = 0.05


def gnmf_workload(quick: bool):
    users, items, factors = (400, 320, 40) if quick else (800, 600, 50)
    query = gnmf_updates(
        users, items, factors, density=0.05, block_size=BLOCK_SIZE
    )
    inputs = {
        "X": rand_sparse(users, items, 0.05, BLOCK_SIZE, seed=7),
        "U": rand_dense(factors, items, BLOCK_SIZE, seed=8, low=0.1, high=1.0),
        "V": rand_dense(users, factors, BLOCK_SIZE, seed=9, low=0.1, high=1.0),
    }
    return [query.u_update, query.v_update], inputs


def run_iterations(telemetry: bool, quick: bool, iterations: int,
                   attach_sink: bool = False):
    """One engine over *iterations* executes; returns wall, modeled, outputs."""
    query, inputs = gnmf_workload(quick)
    engine = FuseMEEngine(bench_config(telemetry=telemetry))
    sink = None
    if attach_sink:
        sink = engine.telemetry.attach(MemorySink())
    modeled, outputs = [], []
    start = time.perf_counter()
    for _ in range(iterations):
        result = engine.execute(query, inputs)
        modeled.append(
            (result.metrics.elapsed_seconds, result.metrics.comm_bytes)
        )
    wall = time.perf_counter() - start
    for root in result.dag.roots:
        outputs.append(result.outputs[root].to_numpy())
    return wall, modeled, outputs, engine, sink


def measure_overhead(quick: bool, iterations: int, trials: int):
    """Interleaved A/B trials; the min wall per mode damps scheduler noise."""
    off_walls, on_walls = [], []
    off = on = None
    for _ in range(trials):
        wall, modeled, outputs, _, _ = run_iterations(
            telemetry=False, quick=quick, iterations=iterations
        )
        off_walls.append(wall)
        off = (modeled, outputs)
        wall, modeled, outputs, engine, sink = run_iterations(
            telemetry=True, quick=quick, iterations=iterations,
            attach_sink=True,
        )
        on_walls.append(wall)
        on = (modeled, outputs, engine, sink)
    overhead = min(on_walls) / min(off_walls) - 1.0
    return off_walls, on_walls, overhead, off, on


# -- the service observability plane ----------------------------------------

TENANTS = ("alice", "bob", "canary")


def tenant_workloads(quick: bool):
    """One distinct query per tenant (no cross-tenant cache sharing)."""
    base = 120 if quick else 240
    workloads = {}
    for i, tenant in enumerate(TENANTS):
        rows = base + 2 * BLOCK_SIZE * i
        a = matrix_input("A", rows, base, BLOCK_SIZE)
        b = matrix_input("B", base, rows, BLOCK_SIZE)
        workloads[tenant] = (sum_of(sq(a @ b)), {
            "A": rand_dense(rows, base, BLOCK_SIZE, seed=31 + i),
            "B": rand_dense(base, rows, BLOCK_SIZE, seed=41 + i),
        })
    return workloads


def make_service(plane: bool):
    """A service; with the plane on, accounting + SLOs are live
    (the canary tenant's impossible target induces the burn alert)."""
    slos = ()
    if plane:
        slos = (
            SLOSpec(tenant="alice", latency_target_s=60.0),
            SLOSpec(tenant="bob", latency_target_s=60.0),
            SLOSpec(tenant="canary", latency_target_s=1e-9,
                    objective=0.5, burn_alert_threshold=1.5),
        )
    config = ServiceConfig(
        accounting=plane,
        slos=slos,
        result_cache_entries=0,  # every query executes: steady A/B walls
    )
    engine = FuseMEEngine(bench_config())
    sink = engine.telemetry.attach(MemorySink()) if plane else None
    return MatrixService(engine, config), sink


def run_replay(service, workloads, rounds: int) -> float:
    """*rounds* interleaved waves of one query per tenant; returns wall."""
    sessions = {}
    for tenant, (query, inputs) in workloads.items():
        session = service.open_session(tenant)
        for name, matrix in inputs.items():
            session.bind(name, matrix)
        sessions[tenant] = (session, query)
    start = time.perf_counter()
    for _ in range(rounds):
        tickets = [s.submit(q) for s, q in sessions.values()]
        for ticket in tickets:
            ticket.result(timeout=120)
    return time.perf_counter() - start


def serving_plane_section(quick: bool, trials: int, failures, here: Path):
    """A/B the plane's serving overhead, then check its contracts."""
    rounds = 2 if quick else 5
    workloads = tenant_workloads(quick)
    off_walls, on_walls = [], []
    service = sink = None
    for trial in range(trials):
        bare, _ = make_service(plane=False)
        off_walls.append(run_replay(bare, workloads, rounds))
        bare.close()
        service, sink = make_service(plane=True)
        on_walls.append(run_replay(service, workloads, rounds))
        if trial < trials - 1:
            service.close()
    overhead = min(on_walls) / min(off_walls) - 1.0
    print(f"\nserving plane off: min {min(off_walls):.3f}s over {trials} trials")
    print(f"serving plane on:  min {min(on_walls):.3f}s over {trials} trials")
    print(f"overhead: {overhead * 100:+.2f}% (budget {OVERHEAD_BUDGET:.0%})")
    if overhead > OVERHEAD_BUDGET:
        failures.append(
            f"accounting+SLO overhead {overhead * 100:.2f}% exceeds "
            f"{OVERHEAD_BUDGET:.0%} budget"
        )

    # conservation: ledgers sum to the cluster-level metrics totals
    snap = service.accountant.snapshot()
    totals = snap["totals"]
    for name in RESOURCE_FIELDS:
        if abs(totals["charged"][name] - totals["usage"][name]) > 1e-6:
            failures.append(f"charged != usage for {name}")
    cluster_seconds = service.cluster.metrics.elapsed_seconds
    ledger_seconds = totals["usage"]["modeled_seconds"]
    if abs(ledger_seconds - cluster_seconds) > 1e-6 * max(1.0, cluster_seconds):
        failures.append(
            f"ledger modeled seconds {ledger_seconds} != cluster totals "
            f"{cluster_seconds}"
        )

    # the canary's impossible latency target must be burning by now
    slo_state = service.status()["slo"]
    if not slo_state["canary"]["burning"]:
        failures.append("canary SLO never started burning")
    if slo_state["alice"]["burning"]:
        failures.append("alice SLO burning despite a 60s target")
    if not sink.named("slo.burn_alert"):
        failures.append("no slo.burn_alert event reached the bus")

    # chargeback artifact
    report_text = service.accounting()
    chargeback_path = here / "CHARGEBACK_observability.txt"
    chargeback_path.write_text(report_text + "\n")
    print()
    print(report_text)
    print(f"wrote {chargeback_path}")

    # a real scrape over HTTP
    server = service.serve_metrics()
    with urllib.request.urlopen(server.url + "/metrics") as resp:
        page = resp.read().decode("utf-8")
    scrape_samples = 0
    try:
        scrape_samples = validate_exposition(page)
        print(f"http scrape: {scrape_samples} samples from {server.url}/metrics")
    except ValueError as exc:
        failures.append(f"scraped exposition invalid: {exc}")
    for needle in ("repro_tenant_queries_total",
                   'repro_slo_burning{tenant="canary"} 1'):
        if needle not in page:
            failures.append(f"scrape is missing {needle!r}")
    service.close()

    return {
        "rounds": rounds,
        "tenants": list(TENANTS),
        "wall_seconds_off": [round(w, 4) for w in off_walls],
        "wall_seconds_on": [round(w, 4) for w in on_walls],
        "overhead_fraction": round(overhead, 4),
        "ledger_modeled_seconds": round(ledger_seconds, 6),
        "cluster_modeled_seconds": round(cluster_seconds, 6),
        "canary_burning": bool(slo_state["canary"]["burning"]),
        "scrape_samples": scrape_samples,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller shapes / fewer iterations (CI smoke)")
    parser.add_argument("--output", default=None,
                        help="path of the JSON report (default: "
                             "BENCH_observability.json next to this script)")
    args = parser.parse_args()
    iterations = 3 if args.quick else 10
    trials = 3 if args.quick else 5
    failures = []

    # -- overhead + invariance A/B ---------------------------------------
    off_walls, on_walls, overhead, off, on = measure_overhead(
        args.quick, iterations, trials
    )
    off_modeled, off_outputs = off
    on_modeled, on_outputs, engine, sink = on
    modeled_equal = off_modeled == on_modeled
    bit_identical = all(
        np.array_equal(a, b) for a, b in zip(off_outputs, on_outputs)
    )
    print(f"telemetry off: min {min(off_walls):.3f}s over {trials} trials")
    print(f"telemetry on:  min {min(on_walls):.3f}s over {trials} trials")
    print(f"overhead: {overhead * 100:+.2f}% (budget {OVERHEAD_BUDGET:.0%})  "
          f"modeled_equal={modeled_equal}  bit_identical={bit_identical}")
    if overhead > OVERHEAD_BUDGET:
        failures.append(
            f"telemetry overhead {overhead * 100:.2f}% exceeds "
            f"{OVERHEAD_BUDGET:.0%} budget"
        )
    if not modeled_equal:
        failures.append("telemetry changed modeled metrics")
    if not bit_identical:
        failures.append("telemetry changed outputs")
    if not sink.named("query.profile"):
        failures.append("event bus never delivered a query profile")

    # -- accountability: profile one GNMF iteration ----------------------
    query, inputs = gnmf_workload(args.quick)
    profile_engine = FuseMEEngine(bench_config())
    prometheus = profile_engine.telemetry.attach(PrometheusSink())
    profile = profile_engine.profile(query, inputs)
    print()
    print(profile.render())
    uncovered = [
        u.index for u in profile.units
        if u.seconds_error is None and u.net_bytes_error is None
    ]
    if uncovered:
        failures.append(f"units without any cost prediction: {uncovered}")
    if profile.mean_abs_seconds_error is None:
        failures.append("profile carries no per-unit seconds error")

    # -- export: Prometheus page + Perfetto trace ------------------------
    page = prometheus.render() + render_exposition(
        engine_families(
            profile.result.metrics.snapshot()
        ) + cache_families({
            "plan": profile_engine.plan_cache.stats(),
            "slice": profile_engine.slice_cache.stats(),
        })
    )
    try:
        prom_samples = validate_exposition(page)
        print(f"\nprometheus: {prom_samples} samples validated")
    except ValueError as exc:
        prom_samples = 0
        failures.append(f"prometheus exposition invalid: {exc}")

    traced = FuseMEEngine(bench_config(time_model="scheduled"))
    result = traced.execute(query, inputs)
    trace_doc = result.trace.to_chrome_trace()
    try:
        validate_chrome_trace(trace_doc)
    except ValueError as exc:
        failures.append(f"chrome trace invalid: {exc}")
    categories = {}
    for event in result.trace.events:
        categories[event.category] = categories.get(event.category, 0) + 1
    if not categories.get("span"):
        failures.append("trace carries no span events")
    if not categories.get("cache"):
        failures.append("trace carries no cache events")
    here = Path(__file__).resolve().parent
    trace_path = here / "TRACE_observability.json"
    result.trace.write_chrome_trace(str(trace_path))
    print(f"trace: {sum(categories.values())} events "
          f"({', '.join(f'{v} {k}' for k, v in sorted(categories.items()))}) "
          f"-> {trace_path.name}")

    # -- the service observability plane ----------------------------------
    serving_report = serving_plane_section(args.quick, trials, failures, here)

    # -- report -----------------------------------------------------------
    report = {
        "quick": args.quick,
        "iterations": iterations,
        "trials": trials,
        "wall_seconds_off": [round(w, 4) for w in off_walls],
        "wall_seconds_on": [round(w, 4) for w in on_walls],
        "overhead_fraction": round(overhead, 4),
        "overhead_budget": OVERHEAD_BUDGET,
        "modeled_equal": modeled_equal,
        "bit_identical": bit_identical,
        "profile": {
            "engine": profile.engine,
            "units": len(profile.units),
            "measured_seconds": profile.measured_seconds,
            "predicted_seconds": profile.predicted_seconds,
            "seconds_error": profile.seconds_error,
            "mean_abs_seconds_error": profile.mean_abs_seconds_error,
            "max_abs_seconds_error": profile.max_abs_seconds_error,
            "counters": profile.counters,
        },
        "prometheus_samples": prom_samples,
        "trace_events": categories,
        "serving_plane": serving_report,
    }
    out_path = Path(args.output) if args.output else (
        here / "BENCH_observability.json"
    )
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
