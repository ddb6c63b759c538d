#!/usr/bin/env python
"""Render a workload's physical plan as a Mermaid or Graphviz diagram.

Plans the chosen workload on an engine (no execution), runs the graph-pass
pipeline per ``--passes``, and prints ``PhysicalPlan.visualize()``: units
as subgraphs, consolidation edges labeled with their modeled traffic,
shared (deduplicated) consolidations dashed, and merged units highlighted.

Examples::

    python scripts/render_plan.py --workload gnmf
    python scripts/render_plan.py --workload als --format dot --passes off
    python scripts/render_plan.py --workload autoencoder -o plan.mmd

Paste Mermaid output into any Markdown viewer that renders ``mermaid``
fences (or https://mermaid.live); pipe DOT output through ``dot -Tsvg``.
With ``--explain`` the textual plan (including the pass report lines) is
printed to stderr alongside the diagram.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro import (  # noqa: E402
    DistMELikeEngine,
    FuseMEEngine,
    LocalXLAEngine,
    MatFastLikeEngine,
    SystemDSLikeEngine,
)
from repro.config import ClusterConfig, EngineConfig  # noqa: E402
from repro.workloads.als import als_loss_query  # noqa: E402
from repro.workloads.autoencoder import AutoEncoder, AutoEncoderShapes  # noqa: E402
from repro.workloads.gnmf import gnmf_updates  # noqa: E402

ENGINES = {
    "fuseme": FuseMEEngine,
    "distme": DistMELikeEngine,
    "systemds": SystemDSLikeEngine,
    "matfast": MatFastLikeEngine,
    "localxla": LocalXLAEngine,
}

BLOCK_SIZE = 20


def build_query(name: str):
    if name == "gnmf":
        q = gnmf_updates(100, 80, 20, density=0.1, block_size=BLOCK_SIZE)
        return [q.u_update, q.v_update]
    if name == "als":
        return als_loss_query(
            100, 80, 20, density=0.1, block_size=BLOCK_SIZE
        ).expr
    if name == "autoencoder":
        shapes = AutoEncoderShapes(features=100, hidden1=40, hidden2=20)
        return AutoEncoder(
            shapes, batch_size=60, block_size=BLOCK_SIZE
        ).step_exprs
    raise SystemExit(f"unknown workload {name!r}")


def build_config(passes: str) -> EngineConfig:
    cluster = ClusterConfig(
        num_nodes=2,
        tasks_per_node=4,
        task_memory_budget=64 * 1024 * 1024,
        input_split_bytes=64 * 1024,
    )
    return EngineConfig(
        cluster=cluster, block_size=BLOCK_SIZE, graph_passes=passes
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=("gnmf", "als", "autoencoder"), default="gnmf"
    )
    parser.add_argument(
        "--engine", choices=sorted(ENGINES), default="fuseme"
    )
    parser.add_argument(
        "--format", choices=("mermaid", "dot"), default="mermaid",
        help="diagram dialect (default: mermaid)",
    )
    parser.add_argument(
        "--passes", choices=("all", "off"), default="all",
        help='graph passes: "all" or "off" (default: all)',
    )
    parser.add_argument(
        "-o", "--output", default=None,
        help="write the diagram here instead of stdout",
    )
    parser.add_argument(
        "--explain", action="store_true",
        help="also print the textual plan (with pass reports) to stderr",
    )
    args = parser.parse_args()

    engine = ENGINES[args.engine](build_config(args.passes))
    physical = engine.lower_query(build_query(args.workload))
    diagram = physical.visualize(fmt=args.format)

    if args.explain:
        print(physical.render(), file=sys.stderr)
    if args.output:
        Path(args.output).write_text(diagram + "\n", encoding="utf-8")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(diagram)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
