"""The shared-memory block store: zero-copy matrix handoff between processes.

The process execution backend must move :class:`~repro.matrix.distributed.
BlockedMatrix` payloads between the driver and worker processes without
pickling them through a pipe.  The store does that with *segments*:

* a **shm segment** (:mod:`multiprocessing.shared_memory`) — the fast path
  for driver-registered inputs; created once per ``(matrix, version)`` and
  attached by any number of workers as zero-copy numpy views;
* a **file segment** (an mmap'd file under the store's spill directory) —
  the fallback when POSIX shared memory is unavailable or full, and the
  path worker processes use to write results back (file-backed segments
  have no cross-process resource-tracker lifetime hazards: the driver owns
  the directory and deletes it deterministically).

Every block payload is registered **once** and addressed by
``(matrix_id, version, block_index)``: a :class:`MatrixRef` is a small
picklable descriptor carrying the segment reference plus per-array
``(offset, dtype, shape)`` slots, so task descriptors stay tiny no matter
how large the matrices are.  All arrays of one matrix pack into a single
segment (64-byte aligned), so a matrix costs one shm object / file, not one
per tile.

Worker-side views are read-only: a kernel that tried to scribble on shared
input memory would corrupt sibling tasks, so the store never hands out a
writable view of registered payloads.
"""

from __future__ import annotations

import mmap
import os
import shutil
import tempfile
import uuid
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.blocks.block import Block
from repro.matrix.distributed import BlockedMatrix
from repro.matrix.meta import MatrixMeta

try:  # pragma: no cover - exercised indirectly; absent on exotic builds
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover
    _shm = None

#: Segment offsets are aligned so every view starts on a cache line.
_ALIGN = 64


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


# ---------------------------------------------------------------------------
# segments


@dataclass(frozen=True)
class SegmentRef:
    """Picklable address of one shared payload region.

    ``kind`` is ``"shm"`` (POSIX shared memory, ``name`` is the shm name) or
    ``"file"`` (``name`` is an absolute path under the store directory).
    """

    kind: str
    name: str
    nbytes: int


def _close_shm(handle) -> None:
    """Close a SharedMemory handle even while numpy views are still alive.

    When a view exported from the buffer outlives us, ``close()`` raises
    BufferError — and would raise *again* from the handle's destructor at
    gc time ("Exception ignored in __del__" noise).  Disarm the handle
    instead: release the fd now and drop the buffer references, so the
    mapping lives exactly as long as the last view and the destructor
    becomes a no-op.  Nothing leaks past process exit either way.
    """
    try:
        handle.close()
        return
    except BufferError:
        pass
    fd = getattr(handle, "_fd", -1)
    if fd >= 0:
        try:
            os.close(fd)
        except OSError:  # pragma: no cover - already closed elsewhere
            pass
        handle._fd = -1
    handle._buf = None
    handle._mmap = None


class _ShmSegment:
    """A driver-created POSIX shared-memory segment."""

    def __init__(self, nbytes: int):
        if _shm is None:
            raise OSError("multiprocessing.shared_memory unavailable")
        self._shm = _shm.SharedMemory(create=True, size=max(1, nbytes))
        self.ref = SegmentRef("shm", self._shm.name, nbytes)

    @property
    def buffer(self) -> memoryview:
        return self._shm.buf

    def close(self) -> None:
        _close_shm(self._shm)

    def unlink(self) -> None:
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


class _FileSegment:
    """An mmap'd file segment (spill fallback + worker result path)."""

    def __init__(self, nbytes: int, directory: str, name: Optional[str] = None):
        path = os.path.join(
            directory, name or f"seg-{os.getpid()}-{uuid.uuid4().hex}.bin"
        )
        with open(path, "wb") as handle:
            handle.truncate(max(1, nbytes))
        self._file = open(path, "r+b")
        self._mmap = mmap.mmap(self._file.fileno(), max(1, nbytes))
        self.ref = SegmentRef("file", path, nbytes)

    @property
    def buffer(self) -> memoryview:
        return memoryview(self._mmap)

    def close(self) -> None:
        for closer in (self._mmap.close, self._file.close):
            try:
                closer()
            except (BufferError, ValueError):
                pass

    def unlink(self) -> None:
        try:
            os.unlink(self.ref.name)
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


class _Attachment:
    """A read-side mapping of an existing segment (worker or driver)."""

    def __init__(self, ref: SegmentRef):
        self.ref = ref
        self._closers: List[Callable[[], None]] = []
        if ref.kind == "shm":
            if _shm is None:
                raise OSError("multiprocessing.shared_memory unavailable")
            # NOTE: attaching registers the name with the resource tracker
            # again (CPython registers on attach too), but spawn children
            # inherit the driver's tracker fd, so that is a duplicate add in
            # the *same* tracker set — harmless, and the driver's unlink
            # still removes the single entry.  Do NOT "defensively"
            # unregister here: with a shared tracker that would delete the
            # driver's registration out from under it.
            handle = _shm.SharedMemory(name=ref.name)
            self.buffer: memoryview = handle.buf
            self._closers.append(lambda: _close_shm(handle))
        else:
            file = open(ref.name, "rb")
            mapped = mmap.mmap(file.fileno(), 0, access=mmap.ACCESS_READ)
            self.buffer = memoryview(mapped)
            self._closers.extend((mapped.close, file.close))

    def close(self) -> None:
        self.buffer = None  # type: ignore[assignment]
        for closer in self._closers:
            try:
                closer()
            except (BufferError, ValueError):
                # a numpy view outlives us; the mapping is freed when the
                # last view dies (the segment itself is already unlinked by
                # whoever owns it, so nothing leaks past process exit)
                pass


# ---------------------------------------------------------------------------
# matrix packing


@dataclass(frozen=True)
class ArraySlot:
    """One packed ndarray: where it lives inside the matrix's segment."""

    offset: int
    dtype: str
    shape: Tuple[int, ...]

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= dim
        return count * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class BlockRef:
    """One tile: a dense slot, or the CSR triple (data, indices, indptr)."""

    key: Tuple[int, int]
    kind: str  # "dense" | "sparse"
    shape: Tuple[int, int]
    slots: Tuple[ArraySlot, ...]


@dataclass(frozen=True)
class MatrixRef:
    """Picklable handle for a registered matrix.

    Workers rebuild a :class:`BlockedMatrix` of zero-copy views from this;
    payloads are keyed ``(matrix_id, version, block_index)`` — the identity
    triple cache layers use to decide reuse.
    """

    matrix_id: int
    version: int
    rows: int
    cols: int
    block_size: int
    density: float
    segment: Optional[SegmentRef]
    blocks: Tuple[BlockRef, ...] = ()


def _block_arrays(block: Block) -> Tuple[str, List[np.ndarray]]:
    if block.is_sparse:
        csr = block.data
        return "sparse", [csr.data, csr.indices, csr.indptr]
    return "dense", [block.data]


def _plan_matrix(matrix: BlockedMatrix):
    """Lay the matrix's arrays out in one segment: (total, block plans)."""
    offset = 0
    plans = []
    for key, block in matrix.iter_blocks():
        kind, arrays = _block_arrays(block)
        slots = []
        for arr in arrays:
            offset = _aligned(offset)
            slots.append(
                (offset, np.ascontiguousarray(arr), str(arr.dtype), arr.shape)
            )
            offset += arr.nbytes
        plans.append((key, kind, block.shape, slots))
    return offset, plans


def pack_matrix(
    matrix: BlockedMatrix,
    matrix_id: int,
    make_segment: Callable[[int], object],
) -> Tuple[Optional[object], MatrixRef]:
    """Copy *matrix*'s payloads into one fresh segment and describe them.

    Returns ``(segment, ref)``; the segment is ``None`` for a matrix with no
    stored blocks (all-zero tiles need no payload at all).
    """
    total, plans = _plan_matrix(matrix)
    segment = None
    if plans:
        segment = make_segment(total)
        buffer = segment.buffer
        for _, _, _, slots in plans:
            for offset, arr, dtype, shape in slots:
                view = np.frombuffer(
                    buffer, dtype=dtype, count=arr.size, offset=offset
                )
                view[:] = arr.reshape(-1)
    refs = tuple(
        BlockRef(
            key=key,
            kind=kind,
            shape=shape,
            slots=tuple(
                ArraySlot(offset, dtype, arr_shape)
                for offset, _, dtype, arr_shape in slots
            ),
        )
        for key, kind, shape, slots in plans
    )
    ref = MatrixRef(
        matrix_id=matrix_id,
        version=matrix.version,
        rows=matrix.meta.rows,
        cols=matrix.meta.cols,
        block_size=matrix.meta.block_size,
        density=matrix.meta.density,
        segment=segment.ref if segment is not None else None,
        blocks=refs,
    )
    return segment, ref


def _view(buffer, slot: ArraySlot) -> np.ndarray:
    count = 1
    for dim in slot.shape:
        count *= dim
    arr = np.frombuffer(
        buffer, dtype=slot.dtype, count=count, offset=slot.offset
    ).reshape(slot.shape)
    if arr.flags.writeable:
        arr.flags.writeable = False
    return arr


def unpack_matrix(ref: MatrixRef, buffer) -> BlockedMatrix:
    """Rebuild a matrix of read-only zero-copy views over *buffer*."""
    meta = MatrixMeta(
        rows=ref.rows,
        cols=ref.cols,
        block_size=ref.block_size,
        density=ref.density,
    )
    matrix = BlockedMatrix(meta)
    for block_ref in ref.blocks:
        if block_ref.kind == "dense":
            payload = _view(buffer, block_ref.slots[0])
        else:
            data, indices, indptr = (
                _view(buffer, slot) for slot in block_ref.slots
            )
            payload = sp.csr_matrix(
                (data, indices, indptr), shape=block_ref.shape, copy=False
            )
        # already in Block's normal form (float64 C-order / float64 CSR), so
        # the constructor adopts the read-only views without copying them
        matrix.blocks[block_ref.key] = Block(payload)
    matrix.version = ref.version
    return matrix


# ---------------------------------------------------------------------------
# worker-side helpers (no store instance: just refs + the spill directory)


def open_matrix(ref: MatrixRef) -> Tuple[BlockedMatrix, Callable[[], None]]:
    """Attach *ref* and return ``(matrix, close)`` — views die with close."""
    if ref.segment is None:
        return unpack_matrix(ref, b""), lambda: None
    attachment = _Attachment(ref.segment)
    return unpack_matrix(ref, attachment.buffer), attachment.close


_worker_seq = 0


def write_matrix(matrix: BlockedMatrix, directory: str) -> MatrixRef:
    """Pack *matrix* into a new file segment under *directory* (worker side).

    File-backed on purpose: results written by a worker must survive the
    worker and be unlinked by the driver, which file segments do without any
    shared-memory resource-tracker coordination.
    """
    global _worker_seq
    _worker_seq += 1
    matrix_id = (os.getpid() << 24) | _worker_seq
    segment, ref = pack_matrix(
        matrix, matrix_id, lambda nbytes: _FileSegment(nbytes, directory)
    )
    if segment is not None:
        segment.close()  # payload is on disk/page cache; driver re-attaches
    return ref


# ---------------------------------------------------------------------------
# the driver-side store


@dataclass
class _Entry:
    segment: Optional[object]
    ref: MatrixRef
    attachment: Optional[_Attachment] = None
    matrix: Optional[BlockedMatrix] = field(default=None, repr=False)


class SharedBlockStore:
    """Driver-side registry of every segment a query execution created.

    ``register`` copies a matrix's payload into shared memory exactly once
    per ``(identity, version)``; ``adopt`` maps a worker-written result in
    as a driver-readable view and re-exports the *same* ref to later waves,
    so a unit output consumed downstream never moves again.  ``close``
    unlinks everything — the store's lifetime is one plan execution.
    """

    def __init__(self, prefer_shm: bool = True):
        self.prefer_shm = prefer_shm and _shm is not None
        self._dir: Optional[str] = None
        self._entries: List[_Entry] = []
        #: (id(matrix), version) -> entry, for registration dedup.
        self._registered: Dict[Tuple[int, int], _Entry] = {}
        #: id(matrix) -> entry, for matrices the store materialized itself.
        self._owned: Dict[int, _Entry] = {}
        self._next_id = 0
        self._spills = 0

    # -- directory ---------------------------------------------------------

    @property
    def directory(self) -> str:
        """Spill/result directory (created lazily, removed by close)."""
        if self._dir is None:
            self._dir = tempfile.mkdtemp(prefix="repro-procpool-")
        return self._dir

    @property
    def spills(self) -> int:
        """Segments that fell back from shared memory to mmap files."""
        return self._spills

    # -- registration ------------------------------------------------------

    def _make_segment(self, nbytes: int):
        if self.prefer_shm:
            try:
                return _ShmSegment(nbytes)
            except OSError:
                self._spills += 1
        return _FileSegment(nbytes, self.directory)

    def register(self, matrix: BlockedMatrix) -> MatrixRef:
        """The matrix's ref, packing its payload on first sight only."""
        owned = self._owned.get(id(matrix))
        if owned is not None and owned.ref.version == matrix.version:
            return owned.ref
        key = (id(matrix), matrix.version)
        entry = self._registered.get(key)
        if entry is None:
            self._next_id += 1
            segment, ref = pack_matrix(matrix, self._next_id, self._make_segment)
            entry = _Entry(segment=segment, ref=ref)
            self._entries.append(entry)
            self._registered[key] = entry
        return entry.ref

    # -- adoption of worker results ---------------------------------------

    def adopt(self, ref: MatrixRef) -> BlockedMatrix:
        """Materialize a worker-written ref as a driver-side view matrix."""
        attachment = None
        buffer: object = b""
        if ref.segment is not None:
            attachment = _Attachment(ref.segment)
            buffer = attachment.buffer
        matrix = unpack_matrix(ref, buffer)
        entry = _Entry(segment=None, ref=ref, attachment=attachment, matrix=matrix)
        self._entries.append(entry)
        self._owned[id(matrix)] = entry
        return matrix

    def owns(self, matrix: BlockedMatrix) -> bool:
        return id(matrix) in self._owned

    def detach_copy(self, matrix: BlockedMatrix) -> BlockedMatrix:
        """A private deep copy of a store-backed matrix (store-independent).

        Applied to root outputs before the store closes, so results handed
        back to callers never reference unlinked segments.
        """
        if not self.owns(matrix):
            return matrix
        copied = BlockedMatrix(matrix.meta)
        for key, block in matrix.blocks.items():
            copied.blocks[key] = Block(block.data.copy())
        copied.version = matrix.version
        return copied

    # -- lifecycle ---------------------------------------------------------

    def release(self, matrix: BlockedMatrix) -> None:
        """Unlink the segment behind a dead env value (wave-barrier frees)."""
        entry = self._owned.pop(id(matrix), None)
        if entry is None:
            entry = self._registered.pop((id(matrix), matrix.version), None)
        if entry is None:
            return
        self._unlink_entry(entry)

    def _unlink_entry(self, entry: _Entry) -> None:
        if entry.attachment is not None:
            entry.attachment.close()
            entry.attachment = None
        if entry.segment is not None:
            entry.segment.close()
            entry.segment.unlink()
            entry.segment = None
        elif entry.ref.segment is not None and entry.ref.segment.kind == "file":
            try:
                os.unlink(entry.ref.segment.name)
            except FileNotFoundError:
                pass

    def close(self) -> None:
        """Unlink every remaining segment and remove the spill directory."""
        for entry in self._entries:
            self._unlink_entry(entry)
        self._entries.clear()
        self._registered.clear()
        self._owned.clear()
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None

    def __enter__(self) -> "SharedBlockStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
