"""Calibration A/B: the fitted cost model must predict, and plan, better.

Runs two iterative workloads — the GNMF update step and the ALS weighted
loss — once with ``calibration="off"`` (the paper's constants, the seed
behaviour) and once with ``calibration="active"``, and checks the
calibration contract end to end:

* **accurate**: after one calibration pass (observe, fit, re-plan) the mean
  abs relative seconds error of the planner's predictions drops under the
  0.5 budget — from ~0.95 uncalibrated;
* **useful**: on at least one workload the calibrated search picks a
  *different* plan or ``(P, Q, R)`` that is faster both in measured modeled
  seconds and in real wall clock;
* **safe**: outputs stay numerically equivalent (different fusion orders
  may legally change floating-point association), and ``calibration="off"``
  runs are unaffected — the store stays empty and predictions stay the
  paper's.

Writes ``BENCH_calibration.json`` next to this script.  Exits non-zero on
any contract violation — CI runs this with ``--quick`` as a smoke test.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import FuseMEEngine
from repro.matrix import rand_dense, rand_sparse
from repro.workloads.als import als_loss_query
from repro.workloads.gnmf import gnmf_updates

from common import BLOCK_SIZE, bench_config

#: The calibrated planner must get within this mean abs relative error.
ERROR_BUDGET = 0.5


def gnmf_workload():
    users, items, factors = 400, 320, 40
    query = gnmf_updates(users, items, factors, density=0.05,
                         block_size=BLOCK_SIZE)
    inputs = {
        "X": rand_sparse(users, items, 0.05, BLOCK_SIZE, seed=7),
        "U": rand_dense(factors, items, BLOCK_SIZE, seed=8, low=0.1, high=1.0),
        "V": rand_dense(users, factors, BLOCK_SIZE, seed=9, low=0.1, high=1.0),
    }
    return [query.u_update, query.v_update], inputs


def als_workload():
    rows, cols, factors = 400, 320, 40
    query = als_loss_query(rows, cols, factors, density=0.05,
                           block_size=BLOCK_SIZE)
    inputs = {
        "X": rand_sparse(rows, cols, 0.05, BLOCK_SIZE, seed=7),
        "U": rand_dense(rows, factors, BLOCK_SIZE, seed=8, low=0.1, high=1.0),
        "V": rand_dense(factors, cols, BLOCK_SIZE, seed=9, low=0.1, high=1.0),
    }
    return query.expr, inputs


WORKLOADS = {"gnmf": gnmf_workload, "als": als_workload}


def error_trace(mode: str, name: str, iterations: int):
    """Per-iteration profile series for one (mode, workload) pair."""
    query, inputs = WORKLOADS[name]()
    engine = FuseMEEngine(bench_config(calibration=mode))
    trace = []
    for _ in range(iterations):
        result = engine.execute(query, inputs)
        profile = result.profile
        trace.append({
            "units": len(profile.units),
            "measured_seconds": profile.measured_seconds,
            "predicted_seconds": profile.predicted_seconds,
            "mean_abs_seconds_error": profile.mean_abs_seconds_error,
            "replanned": bool(
                profile.counters.get("plan_cache_calibration_evictions", 0)
            ),
        })
    outputs = [
        result.outputs[root].to_numpy() for root in result.dag.roots
    ]
    return trace, outputs, engine


def wall_per_iter(mode: str, name: str, warmup: int, iterations: int,
                  trials: int) -> float:
    """Min-over-trials wall seconds per execute, past the calibration
    transient (warm-up iterations absorb the observe + re-plan cycle)."""
    query, inputs = WORKLOADS[name]()
    engine = FuseMEEngine(bench_config(calibration=mode))
    for _ in range(warmup):
        engine.execute(query, inputs)
    best = float("inf")
    for _ in range(trials):
        start = time.perf_counter()
        for _ in range(iterations):
            engine.execute(query, inputs)
        best = min(best, time.perf_counter() - start)
    return best / iterations


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="fewer iterations/trials (CI smoke)")
    parser.add_argument("--output", default=None,
                        help="path of the JSON report (default: "
                             "BENCH_calibration.json next to this script)")
    args = parser.parse_args()
    iterations = 4 if args.quick else 6
    wall_iters = 3 if args.quick else 8
    trials = 2 if args.quick else 4
    failures = []
    report = {"quick": args.quick, "iterations": iterations,
              "error_budget": ERROR_BUDGET, "workloads": {}}
    any_faster_plan = False

    for name in WORKLOADS:
        off_trace, off_outputs, off_engine = error_trace(
            "off", name, iterations
        )
        active_trace, active_outputs, active_engine = error_trace(
            "active", name, iterations
        )
        error_before = active_trace[0]["mean_abs_seconds_error"]
        error_after = active_trace[-1]["mean_abs_seconds_error"]
        replanned = any(step["replanned"] for step in active_trace)
        plan_changed = (
            active_trace[-1]["units"] != off_trace[-1]["units"]
            or active_trace[-1]["measured_seconds"]
            != off_trace[-1]["measured_seconds"]
        )
        modeled_speedup = (
            off_trace[-1]["measured_seconds"]
            / active_trace[-1]["measured_seconds"]
        )
        wall_off = wall_per_iter("off", name, 2, wall_iters, trials)
        wall_active = wall_per_iter(
            "active", name, iterations, wall_iters, trials
        )
        wall_speedup = wall_off / wall_active
        outputs_close = all(
            np.allclose(a, b) for a, b in zip(off_outputs, active_outputs)
        )
        store = active_engine.calibration.stats()

        print(f"{name}: error {error_before:.4f} -> {error_after:.4f} "
              f"(budget {ERROR_BUDGET})  replanned={replanned} "
              f"plan_changed={plan_changed}")
        print(f"{name}: modeled {off_trace[-1]['measured_seconds']:.4f}s -> "
              f"{active_trace[-1]['measured_seconds']:.4f}s "
              f"({modeled_speedup:.2f}x)   wall {wall_off * 1000:.1f} -> "
              f"{wall_active * 1000:.1f} ms/iter ({wall_speedup:.2f}x)")

        if error_after is None or error_after > ERROR_BUDGET:
            failures.append(
                f"{name}: calibrated error {error_after} exceeds budget "
                f"{ERROR_BUDGET}"
            )
        if error_before is not None and error_after is not None \
                and error_after >= error_before:
            failures.append(
                f"{name}: calibration failed to reduce error "
                f"({error_before:.4f} -> {error_after:.4f})"
            )
        if not outputs_close:
            failures.append(f"{name}: calibrated plan changed outputs")
        if off_engine.calibration.num_observations:
            failures.append(
                f"{name}: calibration='off' engine accumulated observations"
            )
        if plan_changed and modeled_speedup > 1.0 and wall_speedup > 1.0:
            any_faster_plan = True

        report["workloads"][name] = {
            "off": off_trace,
            "active": active_trace,
            "error_before": error_before,
            "error_after": error_after,
            "replanned": replanned,
            "plan_changed": plan_changed,
            "modeled_speedup": round(modeled_speedup, 4),
            "wall_seconds_off": round(wall_off, 6),
            "wall_seconds_active": round(wall_active, 6),
            "wall_speedup": round(wall_speedup, 4),
            "outputs_close": outputs_close,
            "calibration": store,
        }

    if not any_faster_plan:
        failures.append(
            "no workload picked a different, faster plan under calibration"
        )

    here = Path(__file__).resolve().parent
    out_path = Path(args.output) if args.output else (
        here / "BENCH_calibration.json"
    )
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
