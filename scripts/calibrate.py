#!/usr/bin/env python
"""Calibrate the cost model against this machine and save the result.

Replays one or more iterative workloads (the GNMF update step, the ALS
weighted loss) through an engine running with ``calibration="active"``,
letting the :class:`repro.core.calibration.CalibrationStore` fit per-kernel
effective throughputs from the predicted-vs-measured gap.  The store is
then written as JSON — load it into a later session with
``CalibrationStore.load`` (and ``engine.calibration.merge``) to start
calibrated instead of cold.

Example::

    python scripts/calibrate.py --workload all --iterations 6 \
        --output calibration.json

Prints a per-iteration error trace (watch the mean abs relative seconds
error collapse after the first re-plan) and the fitted kernel table.
Exits non-zero when calibration failed to reduce the error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.config import ClusterConfig, EngineConfig  # noqa: E402
from repro.core import FuseMEEngine  # noqa: E402
from repro.core.calibration import CalibrationStore  # noqa: E402
from repro.matrix import rand_dense, rand_sparse  # noqa: E402
from repro.workloads.als import als_loss_query  # noqa: E402
from repro.workloads.gnmf import gnmf_updates  # noqa: E402

BLOCK_SIZE = 25


def build_config(args: argparse.Namespace) -> EngineConfig:
    cluster = ClusterConfig(
        num_nodes=args.nodes,
        tasks_per_node=args.tasks_per_node,
        task_memory_budget=8 * 1024 * 1024,
        input_split_bytes=36 * 1024,
    )
    return EngineConfig(
        cluster=cluster,
        block_size=BLOCK_SIZE,
        calibration="active",
    )


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


def replay(engine: FuseMEEngine, name: str, iterations: int):
    """Run one workload *iterations* times; returns (first, last) error."""
    query, inputs = WORKLOADS[name]()
    first = last = None
    for iteration in range(iterations):
        profile = engine.execute(query, inputs).profile
        error = profile.mean_abs_seconds_error
        if first is None:
            first = error
        last = error
        evicted = profile.counters.get("plan_cache_calibration_evictions", 0)
        print(
            f"  {name} iter {iteration}: measured "
            f"{profile.measured_seconds:.4f}s predicted "
            f"{profile.predicted_seconds:.4f}s  mean abs rel error "
            f"{error if error is not None else float('nan'):.4f}"
            + ("  [re-planned]" if evicted else "")
        )
    return first, last


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        default="all")
    parser.add_argument("--iterations", type=int, default=6,
                        help="replays per workload (default 6)")
    parser.add_argument("--output", default="calibration.json",
                        help="where to save the calibration store JSON")
    parser.add_argument("--input", default=None,
                        help="existing calibration JSON to warm-start from")
    parser.add_argument("--nodes", type=int, default=8)
    parser.add_argument("--tasks-per-node", type=int, default=12)
    args = parser.parse_args()

    engine = FuseMEEngine(build_config(args))
    if args.input:
        engine.calibration.merge(CalibrationStore.load(args.input))
        print(f"warm-started from {args.input}: {engine.calibration!r}")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    failures = []
    for name in names:
        print(f"calibrating on {name}:")
        first, last = replay(engine, name, args.iterations)
        if first is not None and last is not None:
            print(f"  {name}: error {first:.4f} -> {last:.4f}")
            if last > first:
                failures.append(
                    f"{name}: error grew ({first:.4f} -> {last:.4f})"
                )
        else:
            failures.append(f"{name}: no per-unit error measured")

    engine.calibration.save(args.output)
    stats = engine.calibration.stats()
    print(f"\nfitted kernels (generation {stats['generation']}, "
          f"{stats['observations']} observations):")
    for key, kernel in stats["kernels"].items():
        if "inv_net_rate" in kernel:
            print(f"  {key}: {kernel['samples']} samples, "
                  f"inv_net {kernel['inv_net_rate']:.3e} s/B, "
                  f"inv_com {kernel['inv_com_rate']:.3e} s/flop, "
                  f"overhead {kernel['overhead_seconds']:.4f}s "
                  f"(residual {kernel['residual_error']:.3f})")
        else:
            print(f"  {key}: {kernel['samples']} samples (below min_samples, "
                  f"pooled fit applies)")
    print(f"saved calibration to {args.output}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
