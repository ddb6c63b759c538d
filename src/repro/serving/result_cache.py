"""Result cache: identical repeated queries are served without re-execution.

Dashboards and iterative analysts re-issue the *same* query over unchanged
inputs constantly — the cheapest execution is none at all.  A finished
:class:`~repro.execution.ExecutionResult` is cached under a key with three
parts:

* the engine's :meth:`~repro.execution.Engine.planning_signature` — any
  config knob that could change modeled metrics (cluster shape, bandwidths,
  sparsity flags) makes a different key;
* :func:`~repro.core.plan_cache.dag_fingerprint` of the query DAG — two
  independently built but structurally identical queries share an entry;
* the *bound-input versions*: for every input name, ``(name, id(matrix),
  matrix.version)``.  Re-binding a name to a new matrix changes the ``id``;
  mutating a bound matrix in place (``set_block``) bumps its ``version`` —
  either way the key changes and a stale result can never be served.

Entries hold *no* reference to their bound matrices.  They follow the
slice cache's liveness rule (:class:`~repro.cluster.slice_cache.LivenessIndex`):
an entry is dropped once any matrix it read dies — before the next lookup,
so a recycled ``id()`` can never match a live key — or once a newer version
of one of them is cached, since versions only grow and the older key can
never be looked up again.  A re-bound factor is therefore freed with its
last binding, together with its slabs in the slice cache.  Eviction is LRU,
capped both in entries and in summed output bytes.  Blocks are immutable,
so a cached result's outputs are safely shared across tenants.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, List, Mapping, Optional

from repro.cluster.slice_cache import LivenessIndex
from repro.core.plan_cache import dag_fingerprint
from repro.execution import ExecutionResult
from repro.lang.dag import DAG
from repro.matrix.distributed import BlockedMatrix


def result_key(
    signature: tuple, dag: DAG, bound: Mapping[str, BlockedMatrix]
) -> Hashable:
    """The cache key for *dag* executed over *bound* under *signature*."""
    bindings = tuple(sorted(
        (name, id(matrix), matrix.version) for name, matrix in bound.items()
    ))
    return (signature, dag_fingerprint(dag), bindings)


@dataclass
class _Entry:
    result: ExecutionResult
    nbytes: int


class ResultCache:
    """Thread-safe LRU of finished executions, keyed by :func:`result_key`.

    ``max_entries=0`` disables the cache (every lookup misses, nothing is
    stored) — the ``ServiceConfig(result_cache_entries=0)`` baseline mode.
    """

    def __init__(self, max_entries: int = 128, max_bytes: int = 256 << 20):
        if max_entries < 0 or max_bytes < 0:
            raise ValueError("result cache capacities cannot be negative")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()
        self._index = LivenessIndex()
        self._bytes = 0
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self.max_entries > 0

    def get(self, key: Hashable) -> Optional[ExecutionResult]:
        with self._lock:
            self._drop_dead()
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry.result

    def put(
        self,
        key: Hashable,
        result: ExecutionResult,
        inputs: Mapping[str, BlockedMatrix],
    ) -> None:
        """Store *result* under *key*, computed over the bound *inputs*."""
        if not self.enabled:
            return
        nbytes = sum(m.nbytes for m in result.outputs.values())
        if nbytes > self.max_bytes:
            return  # one oversized result would evict everything else
        # each matrix at the version in the key, which is what the result read
        reads = [(inputs[name], version) for name, _, version in key[-1]]
        with self._lock:
            self._drop_dead()
            self._drop(self._index.add(key, reads))
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old.nbytes
            self._entries[key] = _Entry(result, nbytes)
            self._bytes += nbytes
            while self._entries and (
                len(self._entries) > self.max_entries
                or self._bytes > self.max_bytes
            ):
                evicted_key, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes
                self._index.discard(evicted_key)

    def _drop_dead(self) -> None:
        """Drop the entries of dead matrices, also of those that die because
        a dropped entry held their last reference; callers hold ``_lock``."""
        keys = self._index.drain()
        while keys:
            self._drop(keys)
            keys = self._index.drain()

    def _drop(self, keys: List[Hashable]) -> None:
        """Forget the entries of *keys*; callers hold ``_lock``."""
        for key in keys:
            self._bytes -= self._entries.pop(key).nbytes

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._index.clear()
            self._bytes = 0
            self.hits = 0
            self.misses = 0

    @property
    def num_entries(self) -> int:
        return len(self._entries)

    @property
    def cached_bytes(self) -> int:
        return self._bytes

    def stats(self) -> dict:
        """Hit/miss counts and occupancy as a plain dict (for status pages)."""
        with self._lock:
            self._drop_dead()
            hits, misses = self.hits, self.misses
            entries, cached = len(self._entries), self._bytes
        total = hits + misses
        return {
            "enabled": self.enabled,
            "entries": entries,
            "bytes": cached,
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / total if total else 0.0,
        }

    def __repr__(self) -> str:
        return (
            f"ResultCache(entries={self.num_entries}/{self.max_entries}, "
            f"hits={self.hits}, misses={self.misses})"
        )
