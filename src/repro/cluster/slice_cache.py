"""Consolidation slice cache.

Cuboid partitioning hands many tasks the *same* slab of a frontier matrix:
the ``R`` tasks of one ``(p, q)`` column all consolidate the identical
O-space slice, and broadcast-style tags (a whole-axis range) repeat across
entire task rows.  Materializing a slab (:meth:`BlockedMatrix.slab`) is a
full copy of its data, and it used to run once per task on a serial Python
loop — the dominant wall-clock cost of an execute.

:class:`SliceCache` shares one materialized :class:`~repro.blocks.Block` per
``(matrix identity, matrix version, row_range, col_range)``.  Blocks are
immutable (kernels are pure, returning new blocks), so sharing is safe
across tasks and executes.  Only the redundant *real* copies
disappear — every task still declares its transfer via ``task.receive``, so
modeled traffic, memory ledgers and elapsed seconds are byte-for-byte
unchanged.

The cache is owned by the :class:`~repro.execution.Engine` and survives
across executes: iterative workloads (GNMF re-binds the same ``X`` every
iteration) hit it from iteration 2 on even though each execute runs on a
fresh cluster.  Over that longer lifetime an entry lives only as long as a
lookup can still hit it (:class:`LivenessIndex`, the rule the serving
result cache shares):

* matrix identity is ``id()``-based and entries hold *no* reference to
  their source matrix: a finalizer per source matrix reports its death, and
  the next lookup drops that matrix's slabs before it consults the table —
  so a dead matrix's slabs are freed with it, and a recycled ``id()`` can
  never be served another matrix's content;
* :meth:`~BlockedMatrix.set_block` bumps the matrix's ``version``, which is
  part of the key, so mutated content can never be served stale; versions
  only grow, so the first slab cut at a newer version drops every slab of
  the older one — a written matrix keeps one version's slabs, not all;
* entries are evicted LRU once the cache holds more than ``max_bytes`` of
  materialized slabs.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict, deque
from typing import Deque, Dict, Hashable, Iterable, List, Set, Tuple

from repro.blocks.block import Block
from repro.matrix.distributed import BlockedMatrix

BlockRange = Tuple[int, int]
_Key = Tuple[int, int, BlockRange, BlockRange]

#: Default cap on materialized slab bytes held across executes.
DEFAULT_MAX_BYTES = 256 << 20


class LivenessIndex:
    """Cache keys indexed by the matrices they read, so dead keys can be dropped.

    A key is recorded under every matrix it reads, at the version it read.
    It can never hit again, and is handed back to its cache to drop, once
    one of those matrices

    * dies: nothing here references a matrix; one finalizer per matrix
      queues its id on ``_dead`` (``deque.append`` is atomic and takes no
      lock — a finalizer may fire on any thread at any point, also while
      that thread holds the cache's lock) and :meth:`drain` returns its
      keys; or
    * is seen at a newer version by :meth:`add`.

    Not thread-safe on its own: the owning cache calls it under its lock,
    and drains before every lookup, so a recycled ``id()`` is never served
    the dead matrix's entries.
    """

    def __init__(self) -> None:
        #: newest version seen per matrix id; an id is present exactly while
        #: a death finalizer is registered for that matrix
        self._version: Dict[int, int] = {}
        #: keys that read each matrix id at its newest version
        self._keys: Dict[int, Set[Hashable]] = {}
        #: ids of the matrices each key reads
        self._ids: Dict[Hashable, Tuple[int, ...]] = {}
        self._dead: Deque[int] = deque()

    def add(
        self, key: Hashable, reads: Iterable[Tuple[BlockedMatrix, int]]
    ) -> List[Hashable]:
        """Record *key* as reading every ``(matrix, version)`` of *reads*;
        returns the keys it makes stale, which read an older version of one
        of these matrices."""
        tracked = [(id(matrix), matrix, version) for matrix, version in reads]
        stale: List[Hashable] = []
        for mid, matrix, version in tracked:
            if mid not in self._version:
                weakref.finalize(matrix, self._dead.append, mid)
                self._keys[mid] = set()
                self._version[mid] = version
            elif version > self._version[mid]:
                stale.extend(self._keys[mid])
                self._keys[mid] = set()
                self._version[mid] = version
            self._keys[mid].add(key)
        self._ids[key] = tuple(mid for mid, _, _ in tracked)
        return [old for old in stale if self.discard(old)]

    def discard(self, key: Hashable) -> bool:
        """Forget *key* (evicted by its cache); False if it was not known."""
        ids = self._ids.pop(key, None)
        if ids is None:
            return False
        for mid in ids:
            keys = self._keys.get(mid)
            if keys is not None:
                keys.discard(key)
        return True

    def drain(self) -> List[Hashable]:
        """The keys of every matrix that died since the last call."""
        dead: List[Hashable] = []
        while self._dead:
            mid = self._dead.popleft()
            del self._version[mid]
            dead.extend(key for key in self._keys.pop(mid) if self.discard(key))
        return dead

    def clear(self) -> None:
        """Forget every key.  Finalizers of still-live matrices stay
        registered, so their ids stay known (with no keys) rather than being
        registered twice."""
        for keys in self._keys.values():
            keys.clear()
        self._ids.clear()


class SliceCache:
    """Thread-safe ``(matrix, row_range, col_range) -> Block`` memo."""

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES):
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[_Key, Block]" = OrderedDict()
        self._index = LivenessIndex()
        self._bytes = 0
        self._lock = threading.Lock()

    def get(
        self,
        matrix: BlockedMatrix,
        row_range: BlockRange,
        col_range: BlockRange,
    ) -> Block:
        """The materialized slab for this range, shared across tasks."""
        version = matrix.version
        key = (id(matrix), version, row_range, col_range)
        with self._lock:
            self._drop(self._index.drain())
            block = self._entries.get(key)
            if block is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return block
            # materialize under the lock: a miss is unique per key, so the
            # hit/miss counts stay deterministic under parallel evaluation
            block = matrix.slab(row_range, col_range)
            self.misses += 1
            self._drop(self._index.add(key, ((matrix, version),)))
            self._entries[key] = block
            self._bytes += block.nbytes
            while self._bytes > self.max_bytes and len(self._entries) > 1:
                evicted_key, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes
                self._index.discard(evicted_key)
            return block

    def _drop(self, keys: List[_Key]) -> None:
        """Forget the slabs of *keys*; callers hold ``_lock``."""
        for key in keys:
            self._bytes -= self._entries.pop(key).nbytes

    def reset(self) -> None:
        """Drop all entries and zero the counters."""
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
            self._drop(self._index.drain())
            hits, misses = self.hits, self.misses
            entries, cached = len(self._entries), self._bytes
        total = hits + misses
        return {
            "entries": entries,
            "bytes": cached,
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / total if total else 0.0,
        }

    def __repr__(self) -> str:
        return (
            f"SliceCache(entries={self.num_entries}, "
            f"hits={self.hits}, misses={self.misses})"
        )
