"""One workload, one pass, one process (spawned by ``run.py``).

Roles:

``setup``     construct the workload and warm it up; report ``setup_s`` only.
``untraced``  setup, then the timed pass on the engine's default config with
              no wrapper installed anywhere — the source of every end-to-end
              metric.
``traced``    setup, a short untraced pass (reference interpreter, host
              yardstick and the telemetry A/B interleaved with the ops), then
              the traced pass: a *fixed* number of cycles with the tracing
              hooks installed — the source of every per-layer metric.

The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import re
import resource
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

#: Ops every untraced pass completes whatever ``--seconds`` says; the modeled
#: metrics are means over exactly these, so they repeat bit for bit.
MIN_TIMED_OPS = 100
#: Cycle numbers of the traced pass: fixed, so its inputs (hence its counts)
#: do not depend on how many cycles the time-bounded passes before it ran.
TRACED_FIRST_CYCLE = 10_000


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def p90(values: Sequence[float]) -> float:
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class Yardstick:
    """A fixed pure-Python + small-numpy loop timed between ops: if it slows
    down, the host did, not the engine."""

    def __init__(self) -> None:
        import numpy as np

        self._a = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
        self.samples: List[float] = []

    def __call__(self) -> None:
        start = time.perf_counter()
        acc = 0
        for i in range(3000):
            acc += (i * i) % 7
        (self._a @ self._a).sum()
        self.samples.append(time.perf_counter() - start)

    def drift(self) -> float:
        """Median of the later half of the samples over the earlier half."""
        half = len(self.samples) // 2
        if half == 0:
            return 1.0
        return median(self.samples[half:]) / median(self.samples[:half])


def blas_threads() -> int:
    """Threads the mapped OpenBLAS will use (0: no OpenBLAS found to ask)."""
    import numpy as np

    np.ones((2, 2)) @ np.ones((2, 2))  # make sure the BLAS is mapped
    try:
        with open("/proc/self/maps") as maps:
            paths = set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps.read()))
    except OSError:
        return 0
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            probe = getattr(lib, symbol, None)
            if probe is not None:
                return int(probe())
    return 0


def host_info() -> Dict[str, object]:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "blas_threads": blas_threads(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def quartile(values: Sequence[float], which: int) -> float:
    """Quartile 1, 2 or 3 of *values* (the value itself when there is one)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[which - 1]


Cycle = Tuple[list, float]  # the cycle's samples and its timed wall seconds


def run_pass(
    workload,
    tracer,
    first_cycle: int,
    done: Callable[[int, float], bool],
    between: Callable[[], None],
) -> List[Cycle]:
    """Run whole cycles until ``done(cycles, elapsed)``."""
    cycles: List[Cycle] = []
    started = time.perf_counter()
    while True:
        cycles.append(
            workload.run_cycle(first_cycle + len(cycles), tracer, between)
        )
        if done(len(cycles), time.perf_counter() - started):
            return cycles


def flatten(cycles: List[Cycle]) -> list:
    return [sample for samples, _ in cycles for sample in samples]


def failures(samples) -> List[str]:
    return [
        f"op {s.index}: {s.error or 'output failed the correctness check'}"
        for s in samples if not s.ok
    ]


def peak_rss_mb() -> float:
    """High-water resident set of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(
    cycles: List[Cycle], min_cycles: int, fixed_rss_mb: float
) -> Dict[str, Dict[str, float]]:
    """The untraced pass as a user saw it (``setup_s`` is added by run.py).

    Host interference on the sizing VM comes in bursts of a second or more
    and only ever *adds* time, so the two wall metrics are taken over cycles
    — every cycle runs the same op mix — and report the quiet quartile: the
    lower quartile of the cycles' median op time, the upper quartile of the
    cycles' throughput.  A change to the program moves every cycle; a burst
    moves the disturbed ones only.  The plain all-op median and mean
    throughput ride along as diagnostics.

    ``peak_rss_mb`` is *fixed_rss_mb*, the high-water mark when the first
    *min_cycles* cycles — the ops the modeled metrics average — had run: the
    service keeps results, so memory grows with the ops served, and a reading
    at the end of a time-bounded pass would measure how many ops fitted in.
    """
    samples = flatten(cycles)
    fixed = flatten(cycles[:min_cycles])
    cycle_p50 = [median([s.wall for s in got]) for got, _ in cycles]
    cycle_rate = [len(got) / wall for got, wall in cycles]
    return {
        "metrics": {
            "query_wall_s_p50": quartile(cycle_p50, 1),
            "queries_per_s": quartile(cycle_rate, 3),
            "modeled_s_per_query": (
                math.fsum(s.modeled_s for s in fixed) / len(fixed)
            ),
            "modeled_comm_bytes_per_query": (
                math.fsum(s.comm_bytes for s in fixed) / len(fixed)
            ),
            "peak_rss_mb": fixed_rss_mb,
            "failed_share": sum(not s.ok for s in samples) / len(samples),
        },
        "diagnostics": {
            "cycles": len(cycles),
            "query_wall_s_p50_all_ops": median([s.wall for s in samples]),
            "queries_per_s_mean": len(samples) / sum(w for _, w in cycles),
            "cycle_p50_s": cycle_p50,
            "peak_rss_mb_at_exit": peak_rss_mb(),
        },
    }


def layer_metrics(
    tracer, mini, traced, yardstick, cold_s, ab_walls, served
) -> Dict[str, Optional[float]]:
    """Every per-layer metric; ``None`` where the hook it needs is gone."""
    from tracing import LAYERS

    n = len(traced)
    ops = [tracer.ops.get(s.index, {}) for s in traced]
    layers = [tracer.layers.get(s.index, {}) for s in traced]
    missing = set(tracer.missing)

    def per_op(names, field) -> Optional[List[float]]:
        """Per-op sums over *names*, for the ops in which any was called."""
        live = [name for name in names if name not in missing]
        if not live:
            return None
        cells = [[op[name] for name in live if name in op] for op in ops]
        return [sum(cell[field] for cell in called) for called in cells if called]

    def calls(*names):
        values = per_op(names, 0)
        return None if values is None else sum(values) / n

    def seconds(*names):
        values = per_op(names, 1)
        return None if values is None else median(values)

    def self_seconds(*names):
        values = per_op(names, 2)
        return None if values is None else median(values)

    def count(key) -> float:
        return sum(s.counts.get(key, 0) for s in traced) / n

    def share(a: float, b: float) -> float:
        return a / (a + b) if a + b else 0.0

    def layer_inclusive(layer) -> float:
        return median([op.get(layer, (0.0, 0.0))[0] for op in layers])

    blocks_busy = sum(op.get("blocks", (0.0, 0.0))[0] for op in layers)
    flops = sum(s.counts.get("cluster.flops", 0) for s in traced)
    traced_wall = sum(s.op_wall for s in traced)
    root_seconds = sum(op.get("op", (0, 0.0, 0.0))[1] for op in ops)
    executed = [s for s in mini if s.reference_s > 0]
    # client latency minus the engine's share of it, per served op
    dispatch = [
        op["Session.execute"][1] - op.get("Engine.execute", (0, 0.0))[1]
        for op in ops if "Session.execute" in op
    ]

    m: Dict[str, Optional[float]] = {
        "execution.self_s": self_seconds("Engine.execute", "Engine.explain"),
        "execution.query_wall_s_p90": p90([s.wall for s in mini]),
        "execution.cold_query_s": cold_s,
        "lang.parse_s": seconds("parse_expression"),
        "lang.simplify_s": seconds("simplify_dag"),
        "lang.dag_nodes": count("lang.dag_nodes"),
        "plan_cache.fingerprint_s": seconds("dag_fingerprint"),
        "plan_cache.hit_ratio": share(
            count("plan_cache.hits"), count("plan_cache.misses")
        ),
        "cfg.plan_s": seconds("generate_fusion_plan"),
        "cfg.self_s": self_seconds("generate_fusion_plan"),
        "cfg.plans_examined": count("cfg.plans_examined"),
        "cfg.exploitation_splits": count("cfg.exploitation_splits"),
        "optimizer.search_s": (
            None if "optimize_parameters" in missing
            else layer_inclusive("core.optimizer")
        ),
        "optimizer.calls": calls("optimize_parameters"),
        "optimizer.cuboids_enumerated": count("optimizer.cuboids_enumerated"),
        "optimizer.cuboids_evaluated": count("optimizer.cuboids_evaluated"),
        "optimizer.cost_evals": calls("CostModel.raw_seconds"),
        "optimizer.cost_memo_hit_ratio": share(
            count("optimizer.memo_hits"), count("optimizer.memo_misses")
        ),
        "physical.lower_s": seconds("lower_plan"),
        "physical.run_self_s": self_seconds("run_physical_plan", "execute_unit"),
        "physical.units": count("physical.units"),
        "physical.waves": count("physical.waves"),
        "passes.run_s": seconds("run_graph_passes"),
        "cfo.execute_s": seconds("CuboidFusedOperator.execute"),
        "cfo.self_s": self_seconds("CuboidFusedOperator.execute"),
        "cfo.calls": calls("CuboidFusedOperator.execute"),
        "fused_eval.eval_s": layer_inclusive("core.fused_eval"),
        "fused_eval.self_s": self_seconds(
            "evaluate_slice", "evaluate_masked_slice", "masked_product",
            "finish_masked",
        ),
        "fused_eval.calls": calls(
            "evaluate_slice", "evaluate_masked_slice", "masked_product",
            "finish_masked",
        ),
        "slice_cache.get_s": seconds("SliceCache.get"),
        "slice_cache.hit_ratio": share(
            count("slice_cache.hits"), count("slice_cache.misses")
        ),
        "slice_cache.misses": count("slice_cache.misses"),
        "slice_cache.bytes_materialized": (
            None if "SliceCache.get" in missing
            else calls("slice_cache.bytes_materialized")
        ),
        "cluster.stage_close_s": seconds("Stage.close"),
        "cluster.stages": count("cluster.stages"),
        "cluster.tasks": count("cluster.tasks"),
        "cluster.flops": count("cluster.flops"),
        "matrix.block_slice_s": seconds("BlockedMatrix.block_slice"),
        "matrix.block_slice_calls": calls("BlockedMatrix.block_slice"),
        "matrix.to_scipy_calls": calls("BlockedMatrix.to_scipy"),
        "matrix.convert_s": seconds(
            "BlockedMatrix.to_scipy", "BlockedMatrix.to_numpy",
            "BlockedMatrix.transpose",
        ),
        "blocks.matmul_s": seconds("matmul"),
        "blocks.matmul_calls": calls("matmul"),
        "blocks.sddmm_s": seconds("sddmm"),
        "blocks.sddmm_calls": calls("sddmm"),
        "blocks.elementwise_s": seconds("binary", "unary"),
        "blocks.elementwise_calls": calls("binary", "unary"),
        "blocks.aggregate_s": seconds("aggregate", "aggregate_combine"),
        "blocks.blocks_constructed": calls("Block.__init__"),
        "blocks.flops_per_busy_s": flops / blocks_busy if blocks_busy else 0.0,
        "obs.telemetry_overhead_ratio": (
            median([s.wall for s in mini]) / median(ab_walls) if ab_walls else 0.0
        ),
        "serving.latency_s_p90": p90([s.wall for s in mini]) if served else 0.0,
        "serving.dispatch_overhead_s_p50": (
            None if missing & {"Session.execute", "Engine.execute"}
            else median(dispatch)
        ),
        "serving.queue_wait_s_p50": median([s.queue_wait_s for s in mini]),
        "serving.bind_s": seconds("Session.bind_many"),
        "serving.result_cache_hit_ratio": (
            served["cache_hits"] / served["served"] if served else 0.0
        ),
        "serving.invalidations": count("serving.invalidations"),
        "serving.shed": served.get("shed", 0) / n,
        "serving.timed_out": served.get("timed_out", 0) / n,
        "reference.wall_s_p50": median([s.reference_s for s in executed]),
        "reference.ratio": median([s.wall / s.reference_s for s in executed]),
        "host.yardstick_s_p50": median(yardstick.samples),
        "host.yardstick_drift": yardstick.drift(),
        "host.cpu_count": os.cpu_count() or 0,
        "host.blas_threads": blas_threads(),
        "trace.overhead_ratio": (
            median([s.wall for s in traced]) / median([s.wall for s in mini])
        ),
        "trace.missing_hooks": len(missing),
        "trace.self_time_coverage": (
            sum(v[1] for op in layers for v in op.values()) / traced_wall
        ),
    }
    for layer in LAYERS:
        self_total = sum(op.get(layer, (0.0, 0.0))[1] for op in layers)
        m[f"share.{layer}"] = self_total / root_seconds if root_seconds else 0.0
    return m


def write_trace(path: str, workload, seed: int, tracer, traced) -> None:
    epoch = min((span[4] for span in tracer.spans), default=0.0)
    document = {
        "workload": workload.name,
        "seed": seed,
        "missing_hooks": tracer.missing,
        "span_fields": ["id", "parent", "op", "name", "start_s", "end_s"],
        "spans": [
            [sid, parent, op, name, round(start - epoch, 9), round(end - epoch, 9)]
            for sid, parent, op, name, start, end in tracer.spans
        ],
        "ops": {
            str(s.index): {
                "wall_s": s.op_wall,
                "ok": s.ok,
                "names": tracer.ops.get(s.index, {}),
                "layers": tracer.layers.get(s.index, {}),
            }
            for s in traced
        },
    }
    with open(path, "w") as out:
        json.dump(document, out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--role", choices=("setup", "untraced", "traced"),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() of the parent just before the spawn")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    cold_s = workload.warm_up()
    report: Dict[str, object] = {
        "workload": workload.name,
        "role": args.role,
        "seed": args.seed,
        # subprocess start -> first timed op: imports, input generation,
        # engine/service construction and the warm-up pass
        "setup_s": time.time() - args.spawned_at,
    }
    ops_per_cycle = workload.cycle * workload.clients
    min_cycles = 1 if args.quick else math.ceil(MIN_TIMED_OPS / ops_per_cycle)
    untraced = NullTracer()
    try:
        if args.role == "untraced":
            fixed_rss_mb = 0.0

            def done(cycles_run: int, elapsed: float) -> bool:
                nonlocal fixed_rss_mb
                if cycles_run == min_cycles:
                    fixed_rss_mb = peak_rss_mb()
                return cycles_run >= min_cycles and elapsed >= args.seconds

            cycles = run_pass(workload, untraced, 0, done, lambda: None)
            samples = flatten(cycles)
            report.update(
                attempted=len(samples),
                failures=failures(samples),
                **end_to_end(cycles, min_cycles, fixed_rss_mb),
            )
        elif args.role == "traced":
            yardstick = Yardstick()
            ab_walls: List[float] = []

            def between() -> None:
                yardstick()
                wall = workload.telemetry_off_wall()
                if wall is not None:
                    ab_walls.append(wall)

            mini = flatten(run_pass(
                workload, untraced, 0,
                lambda done, elapsed: elapsed >= args.seconds / 3,
                between,
            ))
            served_before = workload.service_counts()
            tracer = Tracer()
            tracer.install()
            try:
                cycles = 1 if args.quick else workload.traced_cycles
                traced = flatten(run_pass(
                    workload, tracer, TRACED_FIRST_CYCLE,
                    lambda done, elapsed: done >= cycles,
                    yardstick,
                ))
            finally:
                tracer.uninstall()
            served = {
                key: value - served_before[key]
                for key, value in workload.service_counts().items()
            }
            metrics = layer_metrics(
                tracer, mini, traced, yardstick, cold_s, ab_walls, served,
            )
            report.update(
                attempted=len(mini) + len(traced),
                failures=failures(mini) + failures(traced),
                metrics=metrics,
                missing_hooks=tracer.missing,
                # the traced pass's own modeled means: `--selfcheck` compares
                # them (and every count) between two runs of one seed
                modeled={
                    "modeled_s_per_query": (
                        math.fsum(s.modeled_s for s in traced) / len(traced)
                    ),
                    "modeled_comm_bytes_per_query": (
                        math.fsum(s.comm_bytes for s in traced) / len(traced)
                    ),
                },
                host=host_info(),
            )
            if args.trace_out:
                write_trace(args.trace_out, workload, args.seed, tracer, traced)
    finally:
        workload.close()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
