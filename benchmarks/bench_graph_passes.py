"""Graph-pass pipeline benchmark (not a paper figure).

Runs the GNMF update step through all five engines with the graph-pass
pipeline off and on, hard-asserting that

* outputs are bit-identical in both modes on every engine,
* on FuseME the optimized plan has strictly fewer units, and
* strictly lower modeled cost (elapsed seconds and consolidation bytes)

and records what each pass saved (the plan's own pass reports).

Writes ``BENCH_graph_passes.json`` next to this script, appends the
summary to ``RESULTS.txt``, and exits non-zero when any assertion fails —
CI runs this with ``--quick`` as the ``graph-passes-smoke`` job.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from repro import (
    DistMELikeEngine,
    FuseMEEngine,
    LocalXLAEngine,
    MatFastLikeEngine,
    SystemDSLikeEngine,
)
from repro.matrix import rand_dense, rand_sparse
from repro.utils.formatting import format_bytes, format_seconds
from repro.workloads.gnmf import gnmf_updates

from common import BLOCK_SIZE, bench_config

ENGINES = [
    FuseMEEngine,
    DistMELikeEngine,
    SystemDSLikeEngine,
    MatFastLikeEngine,
    LocalXLAEngine,
]


def gnmf_workload(quick: bool):
    users, items, factors = (100, 75, 25) if quick else (200, 150, 50)
    q = gnmf_updates(users, items, factors, density=0.1, block_size=BLOCK_SIZE)
    inputs = {
        "X": rand_sparse(users, items, 0.1, BLOCK_SIZE, seed=21),
        "U": rand_dense(factors, items, BLOCK_SIZE, seed=22, low=0.1, high=1.0),
        "V": rand_dense(users, factors, BLOCK_SIZE, seed=23, low=0.1, high=1.0),
    }
    return [q.u_update, q.v_update], inputs


def run_pass_payoff(quick: bool, failures: list) -> dict:
    query, inputs = gnmf_workload(quick)
    report = {"engines": {}}

    for engine_cls in ENGINES:
        off_engine = engine_cls(bench_config(graph_passes="off"))
        on_engine = engine_cls(bench_config(graph_passes="all"))
        off = off_engine.execute(query, inputs)
        on = on_engine.execute(query, inputs)
        identical = all(
            np.array_equal(
                off.outputs[r_off].to_numpy(), on.outputs[r_on].to_numpy()
            )
            for r_off, r_on in zip(off.dag.roots, on.dag.roots)
        )
        if not identical:
            failures.append(f"{engine_cls.name}: pass-on output diverged")
        units_off = len(off_engine.lower_query(query, inputs).ops)
        on_physical = on_engine.lower_query(query, inputs)
        units_on = len(on_physical.ops)
        t_off, t_on = off.metrics.totals(), on.metrics.totals()
        report["engines"][engine_cls.name] = {
            "bit_identical": identical,
            "units_off": units_off,
            "units_on": units_on,
            "modeled_seconds_off": t_off["elapsed_seconds"],
            "modeled_seconds_on": t_on["elapsed_seconds"],
            "consolidation_bytes_off": t_off["consolidation_bytes"],
            "consolidation_bytes_on": t_on["consolidation_bytes"],
            "pass_reports": [
                r.to_dict() for r in on_physical.pass_reports
            ],
        }
        print(
            f"  {engine_cls.name:<10} units {units_off}->{units_on}  "
            f"modeled {format_seconds(t_off['elapsed_seconds'])}"
            f"->{format_seconds(t_on['elapsed_seconds'])}  "
            f"consolidation {format_bytes(t_off['consolidation_bytes'])}"
            f"->{format_bytes(t_on['consolidation_bytes'])}  "
            f"bit_identical={identical}"
        )

    fuseme = report["engines"][FuseMEEngine.name]
    if not fuseme["units_on"] < fuseme["units_off"]:
        failures.append("FuseME: merging did not reduce the unit count")
    if not fuseme["modeled_seconds_on"] < fuseme["modeled_seconds_off"]:
        failures.append("FuseME: passes did not reduce modeled seconds")
    if not (
        fuseme["consolidation_bytes_on"] < fuseme["consolidation_bytes_off"]
    ):
        failures.append("FuseME: passes did not reduce consolidation bytes")
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller shapes (CI smoke)")
    parser.add_argument("--output", default=None,
                        help="path of the JSON report (default: "
                             "BENCH_graph_passes.json next to this script)")
    args = parser.parse_args()

    failures: list = []
    print("graph-pass payoff (GNMF update, passes off -> on):")
    payoff = run_pass_payoff(args.quick, failures)

    report = {"quick": args.quick, "pass_payoff": payoff}
    out_path = Path(
        args.output
        or Path(__file__).resolve().parent / "BENCH_graph_passes.json"
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
        fh.write("\nbench_graph_passes\n==================\n")
        fh.write(buffer.getvalue())
    print(f"appended to {results}")
    sys.exit(exit_code)
