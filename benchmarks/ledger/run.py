"""The ledger: the repository's performance benchmark.

    python3 benchmarks/ledger/run.py --workload all --seed 1 --out DIR

runs every workload — each pass in a subprocess of its own, so ``peak_rss_mb``
and ``setup_s`` are clean — checks every op's outputs, prints every metric by
name with its unit, writes ``DIR/<workload>.json`` and
``DIR/<workload>.trace.json``, and exits non-zero on any failed op.

    --workload NAME      one workload only
    --trace 0|1          the benchmark driver's form: one pass of one workload
                         (0: untraced end-to-end metrics, 1: traced per-layer
                         metrics); the last stdout line is the result object
    --selfcheck          run each traced pass twice with one seed and fail
                         unless every count and both modeled metrics repeat
    --quick              one cycle per pass (< 60 s in all): same code paths,
                         flagged ``quick`` and never comparable

Metric names, units, directions and bounds live in ``BENCHMARK.json`` at the
repository root; ``README.md`` beside this file is the glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
#: A pass may not outlive the driver's 180 s per-run cap.
CHILD_TIMEOUT_S = 170
#: Setups per untraced run: ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Reported but not in BENCHMARK.json (always 0 on a healthy run, and the
#: driver's contract wants end-to-end metrics that are never 0); the result
#: object's ``failed`` / ``attempted`` carry it instead.
EXTRA_END_TO_END = {"failed_share": "ratio"}
#: What a missing hook's metric reads in the driver's result object, which
#: needs numbers; the ledger's own files say ``null``.
MISSING = -1.0
#: BLAS pinned to one thread in every worker.  With the library default (one
#: thread per core) a stolen vCPU turns OpenBLAS' spin barrier into stalls of
#: 2-20x on the 2-vCPU sizing host (a 1000x1000 matmul: 1.3 s instead of
#: 0.06 s), and the blocks here are too small for a second thread to pay.
ONE_BLAS_THREAD = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
}
#: Units of metrics derived from counts alone: they must repeat exactly.
EXACT_UNITS = {"count", "ratio", "bytes", "flop"}


class ChildFailed(RuntimeError):
    pass


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def spawn(workload: str, role: str, seed: int, seconds: float, quick: bool,
          trace_out: Optional[str] = None) -> dict:
    """Run one worker process to completion and return its report."""
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--role", role, "--seed", str(seed),
        "--seconds", str(seconds), "--spawned-at", repr(time.time()),
    ]
    if quick:
        command.append("--quick")
    if trace_out:
        command += ["--trace-out", trace_out]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        env={**os.environ, **ONE_BLAS_THREAD},
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise ChildFailed(
            f"{workload}/{role} worker exited with code {done.returncode}"
        )
    return json.loads(lines[-1])


def run_untraced(workload: str, seed: int, seconds: float, quick: bool) -> dict:
    report = spawn(workload, "untraced", seed, seconds, quick)
    setups = [report["setup_s"]] + [
        spawn(workload, "setup", seed, seconds, quick)["setup_s"]
        for _ in range(0 if quick else SETUP_SAMPLES - 1)
    ]
    report["setup_samples_s"] = setups
    report["metrics"]["setup_s"] = statistics.median(setups)
    return report


def run_traced(workload: str, seed: int, seconds: float, quick: bool,
               out: Optional[str]) -> dict:
    trace_out = os.path.join(out, f"{workload}.trace.json") if out else None
    return spawn(workload, "traced", seed, seconds, quick, trace_out)


def units(spec: dict) -> Dict[str, str]:
    table = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    table.update(EXTRA_END_TO_END)
    return table


def show(workload: str, metrics: Dict[str, Optional[float]], unit: Dict[str, str]):
    for name, value in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{workload:18s} {name:36s} {shown:>14s} {unit.get(name, '?')}")


def check_names(spec: dict, key: str, metrics: Dict[str, object]) -> None:
    declared = {m["name"] for m in spec[key]}
    measured = set(metrics) - set(EXTRA_END_TO_END)
    if declared != measured:
        raise ChildFailed(
            f"{key} metrics out of step with BENCHMARK.json: "
            f"missing {sorted(declared - measured)}, "
            f"undeclared {sorted(measured - declared)}"
        )


def driver_result(spec: dict, key: str, report: dict, unit: Dict[str, str]) -> dict:
    """The result object of the benchmark driver's contract."""
    failed = len(report["failures"])
    return {
        "correct": failed == 0,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": {
            m["name"]: {
                "value": (
                    MISSING if report["metrics"][m["name"]] is None
                    else report["metrics"][m["name"]]
                ),
                "unit": unit[m["name"]],
            }
            for m in spec[key]
        },
    }


def selfcheck(workloads: List[str], seed: int, seconds: float, quick: bool,
              unit: Dict[str, str]) -> int:
    """Two traced passes of one seed must agree on every exact metric."""
    bad = 0
    for workload in workloads:
        first, second = (
            run_traced(workload, seed, seconds, quick, None) for _ in range(2)
        )
        exact = {
            name for name in first["metrics"] if unit[name] in EXACT_UNITS
        }
        differing = sorted(
            name for name in exact
            if first["metrics"][name] != second["metrics"][name]
        ) + sorted(
            name for name in first["modeled"]
            if first["modeled"][name] != second["modeled"][name]
        )
        failed = first["failures"] + second["failures"]
        verdict = "ok" if not differing and not failed else "FAILED"
        print(f"selfcheck {workload:18s} {len(exact)} exact metrics + 2 modeled: "
              f"{verdict}")
        for name in differing:
            print(f"    {name} does not repeat")
        for line in failed:
            print(f"    {line}")
        bad += bool(differing or failed)
    return 1 if bad else 0


def main() -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()

    selected = names if args.workload == "all" else [args.workload]
    seconds = 2.0 if args.quick else args.seconds
    unit = units(spec)
    if args.out:
        os.makedirs(args.out, exist_ok=True)

    try:
        if args.selfcheck:
            return selfcheck(selected, args.seed, seconds, args.quick, unit)

        if args.trace is not None:
            if len(selected) != 1:
                parser.error("--trace needs one --workload")
            workload = selected[0]
            if args.trace == 0:
                key = "end_to_end"
                report = run_untraced(workload, args.seed, seconds, args.quick)
            else:
                key = "per_layer"
                report = run_traced(
                    workload, args.seed, seconds, args.quick, args.out
                )
            check_names(spec, key, report["metrics"])
            show(workload, report["metrics"], unit)
            for line in report["failures"]:
                print(f"FAILED {workload} {line}")
            print(json.dumps(driver_result(spec, key, report, unit)))
            return 0

        failed = 0
        for workload in selected:
            untraced = run_untraced(workload, args.seed, seconds, args.quick)
            traced = run_traced(workload, args.seed, seconds, args.quick, args.out)
            check_names(spec, "end_to_end", untraced["metrics"])
            check_names(spec, "per_layer", traced["metrics"])
            show(workload, untraced["metrics"], unit)
            show(workload, traced["metrics"], unit)
            problems = untraced["failures"] + traced["failures"]
            for line in problems:
                print(f"FAILED {workload} {line}")
            failed += len(problems)
            if args.out:
                document = {
                    "workload": workload,
                    "seed": args.seed,
                    "quick": args.quick,
                    "seconds": seconds,
                    "n_ops": untraced["attempted"],
                    "end_to_end": untraced["metrics"],
                    "diagnostics": untraced["diagnostics"],
                    "setup_samples_s": untraced["setup_samples_s"],
                    "per_layer": traced["metrics"],
                    "traced_modeled": traced["modeled"],
                    "missing_hooks": traced["missing_hooks"],
                    "failures": problems,
                    "host": traced["host"],
                }
                path = os.path.join(args.out, f"{workload}.json")
                with open(path, "w") as handle:
                    json.dump(document, handle, indent=1)
        if args.quick:
            print("quick: true — these numbers are a smoke test, not a baseline")
        return 1 if failed else 0
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"ledger: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
