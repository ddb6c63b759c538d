"""Compare two sets of ledger runs.

    python3 benchmarks/ledger/compare.py A_DIR B_DIR

Each directory holds the ``<workload>.json`` files of one or more
``run.py --workload all --seed S --out DIR/<anything>`` runs (searched
recursively; A is the base — the parent commit — and B the change).  Prints
one row per workload x end-to-end metric with each side's median and
quartiles, the bound from ``BENCHMARK.json`` and a verdict:

``improved`` / ``regressed``  the median moved by more than the bound;
``unchanged``                 it did not, and both sides' spread is inside it;
``unresolved``                the run-to-run spread is wider than the bound
                              (and the sides' runs overlap), so nothing can be
                              said — run longer, do not loosen the bound.

The two modeled metrics and ``failed_share`` are simulated time and counts:
when both sides ran the same seeds they are compared seed by seed and must be
identical to read ``unchanged``.  Beneath each workload the per-layer medians
are printed with the ratio B/A, each with its base.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
#: Simulated time and counts: compared seed by seed when the seeds match.
EXACT = ("modeled_s_per_query", "modeled_comm_bytes_per_query", "failed_share")

Runs = Dict[str, List[dict]]


def load_runs(directory: str) -> Runs:
    """workload -> its run documents, in seed order."""
    runs: Runs = {}
    for folder, _, files in sorted(os.walk(directory)):
        for name in sorted(files):
            if not name.endswith(".json") or name.endswith(".trace.json"):
                continue
            with open(os.path.join(folder, name)) as handle:
                document = json.load(handle)
            if not {"workload", "end_to_end", "per_layer"} <= set(document):
                continue
            if document.get("quick"):
                raise SystemExit(
                    f"{os.path.join(folder, name)} is a --quick run: never comparable"
                )
            runs.setdefault(document["workload"], []).append(document)
    for documents in runs.values():
        documents.sort(key=lambda d: d["seed"])
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative(change: float, base: float) -> float:
    """*change* as a share of *base* (absolute when the base is 0)."""
    return change / abs(base) if base else change


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    worse = relative(sign * (bm - am), am)
    spread = max(relative(a3 - a1, am), relative(b3 - b1, bm))
    b_all_worse = min(sign * x for x in b) > max(sign * x for x in a)
    b_all_better = max(sign * x for x in b) < min(sign * x for x in a)
    if worse > bound:
        return "regressed" if spread <= bound or b_all_worse else "unresolved"
    if -worse > bound:
        return "improved" if spread <= bound or b_all_better else "unresolved"
    return "unchanged" if spread <= bound else "unresolved"


def exact_verdict(a: Sequence[float], b: Sequence[float], better: str) -> str:
    """Seed-by-seed comparison of a metric that must repeat bit for bit."""
    if list(a) == list(b):
        return "unchanged"
    drift = sum(b) - sum(a)
    if drift == 0:
        return "regressed"  # some seeds moved: not the same simulated runs
    return "regressed" if (drift > 0) == (better == "lower") else "improved"


def fmt(value: float) -> str:
    return f"{value:.5g}"


def main(argv: Sequence[str]) -> int:
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    metrics["failed_share"] = {
        "name": "failed_share", "unit": "ratio", "better": "lower", "bound": 0.0,
    }
    a_runs, b_runs = load_runs(argv[1]), load_runs(argv[2])
    regressed = 0
    for workload in (w["name"] for w in spec["workloads"]):
        a_docs, b_docs = a_runs.get(workload, []), b_runs.get(workload, [])
        if not a_docs or not b_docs:
            print(f"{workload}: no runs on {'A' if not a_docs else 'B'}")
            continue
        same_seeds = [d["seed"] for d in a_docs] == [d["seed"] for d in b_docs]
        print(f"\n{workload}  (A: {len(a_docs)} runs, B: {len(b_docs)} runs"
              f"{', same seeds' if same_seeds else ''})")
        print(f"  {'metric':30s} {'A median [q1, q3]':34s} "
              f"{'B median [q1, q3]':34s} {'bound':>6s}  verdict")
        for name, metric in metrics.items():
            a = [d["end_to_end"][name] for d in a_docs]
            b = [d["end_to_end"][name] for d in b_docs]
            if name in EXACT and same_seeds:
                outcome, bound = exact_verdict(a, b, metric["better"]), "exact"
            else:
                outcome = verdict(a, b, metric["better"], metric["bound"])
                bound = f"{metric['bound']:.2f}"
            regressed += outcome == "regressed"
            cells = [
                f"{fmt(q2)} [{fmt(q1)}, {fmt(q3)}]"
                for q1, q2, q3 in (quartiles(a), quartiles(b))
            ]
            print(f"  {name:30s} {cells[0]:34s} {cells[1]:34s} {bound:>6s}  "
                  f"{outcome}  ({metric['unit']}, {metric['better']} is better)")
        print(f"  {'per-layer metric':36s} {'A median':>12s} {'B median':>12s}  "
              f"B/A (base A)")
        for metric in spec["per_layer"]:
            name = metric["name"]
            a = [d["per_layer"][name] for d in a_docs]
            b = [d["per_layer"][name] for d in b_docs]
            if None in a or None in b:
                print(f"  {name:36s} {'null':>12s} {'null':>12s}  hook missing")
                continue
            am, bm = statistics.median(a), statistics.median(b)
            if am == 0 and bm == 0:
                continue
            ratio = f"{bm / am:.3f} (base {fmt(am)} {metric['unit']})" if am else "new"
            print(f"  {name:36s} {fmt(am):>12s} {fmt(bm):>12s}  {ratio}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
