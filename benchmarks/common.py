"""Shared benchmark harness utilities.

Every benchmark regenerates one table or figure of the paper's evaluation
(Section 6) at laptop scale: dimensions are the paper's divided by a scale
factor (block size 25 instead of 1000), densities are kept verbatim, and the
cluster is the paper's 8-node/12-task testbed simulated with its published
bandwidths.  Absolute numbers differ from the paper (our substrate is a
simulator); the *shape* of each series — who wins, by what factor, where
O.O.M. and crossovers land — is the reproduction target and is printed next
to the paper's own numbers where the paper states them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.config import ClusterConfig, EngineConfig
from repro.errors import SimulatedTimeoutError, TaskOutOfMemoryError
from repro.utils.formatting import format_bytes, format_seconds, render_table

#: Block size used by every benchmark (the paper uses 1000).
BLOCK_SIZE = 25

#: Dimension scale: paper dimension / SCALE, snapped up to whole blocks.
#: 100 keeps the paper's block-grid extents within a factor ~2.5 (the paper's
#: n=100K is 100 blocks of 1000; ours is 40 blocks of 25).
SCALE = 100


def bench_config(
    num_nodes: int = 8,
    tasks_per_node: int = 12,
    task_memory_budget: int = 8 * 1024 * 1024,
    input_split_bytes: int = 36 * 1024,
    **options,
) -> EngineConfig:
    """The paper's cluster shape with budgets scaled to benchmark size.

    The per-task budget and input split are scaled so the ratios that drive
    the paper's qualitative behaviour (side matrices vs theta_t, partitions
    of X vs grid extents) fall in the same regimes.

    Paper mode is written down here: ``graph_passes="off"``.  The paper's
    CFG plans every fusion unit on its own, with no sharing of an input
    across units, so the tables reproduce that planner and not the
    engine's default.
    """
    cluster = ClusterConfig(
        num_nodes=num_nodes,
        tasks_per_node=tasks_per_node,
        task_memory_budget=task_memory_budget,
        input_split_bytes=input_split_bytes,
    )
    return EngineConfig(
        cluster=cluster, block_size=BLOCK_SIZE, graph_passes="off", **options
    )


@dataclass
class SeriesResult:
    """One cell of a figure: a system's outcome on one x-axis point."""

    elapsed_seconds: Optional[float] = None
    comm_bytes: Optional[int] = None
    failure: Optional[str] = None  # "O.O.M." or "T.O."

    @property
    def label_time(self) -> str:
        if self.failure:
            return self.failure
        return format_seconds(self.elapsed_seconds)

    @property
    def label_comm(self) -> str:
        if self.failure:
            return self.failure
        return format_bytes(self.comm_bytes)


def run_engine(fn: Callable[[], object]) -> SeriesResult:
    """Run one engine invocation, converting failures to figure labels."""
    try:
        result = fn()
    except TaskOutOfMemoryError:
        return SeriesResult(failure="O.O.M.")
    except SimulatedTimeoutError:
        return SeriesResult(failure="T.O.")
    return SeriesResult(
        elapsed_seconds=result.metrics.elapsed_seconds,
        comm_bytes=result.metrics.comm_bytes,
    )


@dataclass
class FigureReport:
    """Collects a figure's series and prints the paper-style table."""

    title: str
    x_label: str
    rows: List[List[str]] = field(default_factory=list)
    headers: List[str] = field(default_factory=list)

    def add_point(self, x: str, cells: Dict[str, str]) -> None:
        if not self.headers:
            self.headers = [self.x_label, *cells.keys()]
        self.rows.append([x, *cells.values()])

    def render(self) -> str:
        table = render_table(self.headers, self.rows)
        bar = "=" * len(self.title)
        return f"\n{self.title}\n{bar}\n{table}\n"

    def print(self) -> None:
        print(self.render())


def paper_note(text: str) -> None:
    """Print the paper's own numbers for side-by-side comparison."""
    print(f"  [paper] {text}")
