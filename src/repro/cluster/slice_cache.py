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
fresh cluster.  Three mechanisms keep reuse safe and bounded over that
longer lifetime:

* matrix identity is ``id()``-based and entries hold *no* reference to
  their source matrix: a finalizer per source matrix reports its death, and
  the next lookup drops that matrix's slabs before it consults the table —
  so a dead matrix's slabs are freed with it, and a recycled ``id()`` can
  never be served another matrix's content;
* :meth:`~BlockedMatrix.set_block` bumps the matrix's ``version``, which is
  part of the key, so mutated content can never be served stale;
* entries are evicted LRU once the cache holds more than ``max_bytes`` of
  materialized slabs (live matrices and dead versions).
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict, deque
from typing import Deque, Dict, Set, Tuple

from repro.blocks.block import Block
from repro.matrix.distributed import BlockedMatrix

BlockRange = Tuple[int, int]
_Key = Tuple[int, int, BlockRange, BlockRange]

#: Default cap on materialized slab bytes held across executes.
DEFAULT_MAX_BYTES = 256 << 20


class SliceCache:
    """Thread-safe ``(matrix, row_range, col_range) -> Block`` memo.

    With ``enabled=False`` every lookup materializes a fresh copy: the
    placeholder of an operator used standalone, or of an engine that keeps
    no slabs.
    """

    def __init__(self, enabled: bool = True, max_bytes: int = DEFAULT_MAX_BYTES):
        self.enabled = enabled
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[_Key, Block]" = OrderedDict()
        #: keys held per source matrix id; an id is present exactly while a
        #: death finalizer is registered for that matrix
        self._keys_of: Dict[int, Set[_Key]] = {}
        #: ids of source matrices that died since the last lookup.  The
        #: finalizers only append here (``deque.append`` is atomic and takes
        #: no lock — a finalizer may fire on any thread at any point, also
        #: while that thread holds ``_lock``); ``get`` drains it.
        self._dead: Deque[int] = deque()
        self._bytes = 0
        self._lock = threading.Lock()

    def get(
        self,
        matrix: BlockedMatrix,
        row_range: BlockRange,
        col_range: BlockRange,
    ) -> Block:
        """The materialized slab for this range, shared across tasks."""
        if not self.enabled:
            return matrix.slab(row_range, col_range)
        matrix_id = id(matrix)
        key = (matrix_id, matrix.version, row_range, col_range)
        with self._lock:
            self._drop_dead()
            block = self._entries.get(key)
            if block is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return block
            # materialize under the lock: a miss is unique per key, so the
            # hit/miss counts stay deterministic under parallel evaluation
            block = matrix.slab(row_range, col_range)
            keys = self._keys_of.get(matrix_id)
            if keys is None:
                keys = self._keys_of[matrix_id] = set()
                weakref.finalize(matrix, self._dead.append, matrix_id)
            keys.add(key)
            self._entries[key] = block
            self._bytes += block.nbytes
            self.misses += 1
            while self._bytes > self.max_bytes and len(self._entries) > 1:
                evicted_key, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes
                self._keys_of[evicted_key[0]].discard(evicted_key)
            return block

    def _drop_dead(self) -> None:
        """Forget every slab of the matrices that died since the last call;
        callers hold ``_lock``."""
        while self._dead:
            for key in self._keys_of.pop(self._dead.popleft(), ()):
                self._bytes -= self._entries.pop(key).nbytes

    def reset(self, enabled: bool | None = None) -> None:
        """Drop all entries and zero the counters."""
        with self._lock:
            self._entries.clear()
            # finalizers of still-live matrices stay registered, so their
            # ids stay known (with no keys) rather than being registered twice
            for keys in self._keys_of.values():
                keys.clear()
            self._bytes = 0
            self.hits = 0
            self.misses = 0
            if enabled is not None:
                self.enabled = enabled

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
            f"SliceCache(enabled={self.enabled}, entries={self.num_entries}, "
            f"hits={self.hits}, misses={self.misses})"
        )
