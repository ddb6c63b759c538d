"""The engine's one bounded cache, and the consolidation slabs kept in it.

:class:`BoundedCache` is the LRU behind every cache of the engine — fusion
plans (:mod:`repro.core.plan_cache`), consolidation slabs (here) and served
results (:mod:`repro.serving.result_cache`).  It is thread-safe and bounded
in entries and in bytes; an entry larger than the byte bound is not stored.
An entry lives only as long as a lookup can still hit it
(:class:`LivenessIndex`): entries hold *no* reference to the matrices they
read, and one is dropped once a matrix it read

* dies — before the next lookup, so a recycled ``id()`` can never be served
  another matrix's entry; or
* is stored at a newer version — versions only grow, so the older key can
  never be looked up again.

:class:`SliceCache` shares one materialized :class:`~repro.blocks.Block` per
``(matrix id, matrix version, row_range, col_range)``.  Cuboid partitioning
hands many tasks the *same* slab (the ``R`` tasks of one ``(p, q)`` column;
broadcast-style whole-axis tags), and the engine keeps one slice cache
across executes, so GNMF, which re-binds the same ``X`` every iteration,
cuts ``X``'s slabs once.  Blocks are immutable, so sharing is safe.  Every
task still declares its transfer via ``task.receive``: modeled traffic,
memory ledgers and elapsed seconds are byte-for-byte unchanged.
"""

from __future__ import annotations

import sys
import threading
import weakref
from collections import OrderedDict, deque
from typing import Deque, Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.blocks.block import Block
from repro.matrix.distributed import BlockedMatrix

BlockRange = Tuple[int, int]
Reads = Iterable[Tuple[BlockedMatrix, int]]

#: Byte bound of the slice and result caches.
DEFAULT_MAX_BYTES = 256 << 20


class LivenessIndex:
    """Cache keys indexed by the matrices they read, at the version read.

    Nothing here references a matrix: one finalizer per matrix queues its
    id on :attr:`dead` (``deque.append`` is atomic and takes no lock — a
    finalizer may fire on any thread, also one holding the cache's lock)
    and :meth:`drain` returns its keys; :meth:`add` returns the keys of an
    older version.  Not thread-safe on its own: the owning cache calls it
    under its lock and drains before every lookup.
    """

    def __init__(self) -> None:
        #: newest version seen per matrix id; an id is present exactly while
        #: a death finalizer is registered for that matrix
        self._version: Dict[int, int] = {}
        #: keys that read each matrix id at its newest version
        self._keys: Dict[int, Set[Hashable]] = {}
        #: ids of the matrices each key reads
        self._ids: Dict[Hashable, Tuple[int, ...]] = {}
        #: ids of the matrices that died since the last :meth:`drain`
        self.dead: Deque[int] = deque()

    def add(self, key: Hashable, reads: Reads) -> List[Hashable]:
        """Record *key* as reading every ``(matrix, version)`` of *reads*;
        returns the keys it makes stale, which read an older version of one
        of these matrices."""
        tracked = [(id(matrix), matrix, version) for matrix, version in reads]
        stale: List[Hashable] = []
        for mid, matrix, version in tracked:
            if mid not in self._version:
                weakref.finalize(matrix, self.dead.append, mid)
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
        while self.dead:
            mid = self.dead.popleft()
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


class BoundedCache:
    """Thread-safe LRU of ``key -> value``, bounded in entries and in bytes.

    :meth:`put` takes each entry's byte size and the ``(matrix, version)``
    pairs it read; keys must name those versions (a newer version is a new
    key).  A cache of 0 entries holds nothing.
    """

    def __init__(
        self, max_entries: int = sys.maxsize, max_bytes: int = DEFAULT_MAX_BYTES
    ):
        if max_entries < 0 or max_bytes < 0:
            raise ValueError("cache bounds cannot be negative")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        #: key -> (value, bytes), least recently used first
        self._entries: "OrderedDict[Hashable, Tuple[object, int]]" = OrderedDict()
        self._index = LivenessIndex()
        self._bytes = 0
        #: re-entrant: a subclass's lookup stores its miss under the lock
        self._lock = threading.RLock()

    def get(self, key: Hashable) -> Optional[object]:
        """The value under *key*, counted as a hit, or ``None``, a miss."""
        with self._lock:
            if self._index.dead:
                self._drop_dead()
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def peek(self, key: Hashable) -> Optional[object]:
        """The value under *key* without touching LRU order or counters."""
        with self._lock:
            self._drop_dead()
            entry = self._entries.get(key)
        return None if entry is None else entry[0]

    def put(
        self, key: Hashable, value: object, nbytes: int = 0, reads: Reads = ()
    ) -> None:
        """Store *value* (*nbytes* large, having read *reads*) under *key*,
        then evict least recently used entries down to both bounds."""
        if nbytes > self.max_bytes:
            return  # one oversized entry would evict everything else
        with self._lock:
            if self._index.dead:
                self._drop_dead()
            self._drop(self._index.add(key, reads))
            old = self._entries.pop(key, None)
            self._entries[key] = (value, nbytes)
            self._bytes += nbytes - (old[1] if old else 0)
            while (
                len(self._entries) > self.max_entries
                or self._bytes > self.max_bytes
            ):
                evicted, (_, size) = self._entries.popitem(last=False)
                self._bytes -= size
                self._index.discard(evicted)

    def pop(self, key: Hashable) -> bool:
        """Drop *key*; True when it was stored."""
        with self._lock:
            if key not in self._entries:
                return False
            self._drop([key])
            self._index.discard(key)
            return True

    def _drop_dead(self) -> None:
        """Drop the entries of dead matrices, also of those that die because
        a dropped entry held their last reference; callers hold ``_lock``."""
        while self._index.dead:
            self._drop(self._index.drain())

    def _drop(self, keys: List[Hashable]) -> None:
        """Forget the entries of *keys*; callers hold ``_lock``."""
        for key in keys:
            self._bytes -= self._entries.pop(key)[1]

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
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
            "entries": entries,
            "bytes": cached,
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / total if total else 0.0,
        }


class SliceCache(BoundedCache):
    """``(matrix, row_range, col_range) -> Block``, bounded in bytes."""

    def get(  # type: ignore[override]
        self,
        matrix: BlockedMatrix,
        row_range: BlockRange,
        col_range: BlockRange,
    ) -> Block:
        """The materialized slab for this range, shared across tasks."""
        version = matrix.version
        key = (id(matrix), version, row_range, col_range)
        with self._lock:
            if self._index.dead:
                self._drop_dead()
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry[0]
            # materialize under the lock: a miss is unique per key, so the
            # hit/miss counts stay deterministic under parallel evaluation
            block = matrix.slab(row_range, col_range)
            self.misses += 1
            self.put(key, block, block.nbytes, ((matrix, version),))
            return block
