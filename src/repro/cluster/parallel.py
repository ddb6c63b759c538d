"""Opt-in thread-pool evaluation of simulated tasks.

``EngineConfig(local_parallelism=N)`` lets operators evaluate their per-task
work items on ``N`` real threads.  The numpy/scipy kernels doing the actual
math release the GIL, so cuboid tasks genuinely overlap.  Determinism is
preserved by construction: tasks are *allocated* serially (stable task ids
and stage ordering), each work item only touches its own
:class:`~repro.cluster.task.TaskContext`, results come back in submission
order, and any cross-task merging (partial-product sums, tile placement)
happens after the map in the same fixed order the serial loop used — so
matrix outputs are bit-identical and every modeled number is unchanged at
any parallelism level.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.cluster.metrics import MetricsCollector

Item = TypeVar("Item")
Result = TypeVar("Result")

#: Marks threads that are already pool workers.  A ``parallel_map`` reached
#: from inside one (an operator's per-task pool inside a query the serving
#: layer dispatched on its own pool) degrades to the serial loop instead
#: of nesting a second pool — nested pools oversubscribe cores without
#: adding concurrency, and serial fallback is result-identical by
#: construction.
_worker = threading.local()


def parallel_map(
    fn: Callable[[Item], Result],
    items: Sequence[Item],
    parallelism: int,
    metrics: Optional[MetricsCollector] = None,
    counter_prefix: str = "pool",
) -> List[Result]:
    """Map *fn* over *items*, in order, on up to *parallelism* threads.

    Serial (a plain loop) when ``parallelism == 1``, when there is at most
    one item, or when called from inside another ``parallel_map`` worker
    (no nested pools); a non-positive *parallelism* is a caller bug and
    raises ValueError.  Exceptions propagate exactly as in the serial loop:
    the first failing item's exception is raised in submission order.  When
    *metrics* is given, pool usage counters (``{counter_prefix}_tasks``
    etc.) are bumped — observability only; counters never feed modeled
    numbers.
    """
    if parallelism <= 0:
        raise ValueError(
            f"parallelism must be positive, got {parallelism} "
            f"(EngineConfig.local_parallelism validates this; a non-positive "
            f"value here means a caller computed a bad worker count)"
        )
    items = list(items)
    if (
        parallelism == 1
        or len(items) <= 1
        or getattr(_worker, "active", False)
    ):
        return [fn(item) for item in items]
    workers = min(parallelism, len(items))
    if metrics is not None:
        metrics.bump(f"{counter_prefix}_tasks", len(items))
        metrics.bump(f"{counter_prefix}_batches")
        metrics.bump_max(f"{counter_prefix}_width_max", workers)

    def run(item: Item) -> Result:
        _worker.active = True
        try:
            return fn(item)
        finally:
            _worker.active = False

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, items))
