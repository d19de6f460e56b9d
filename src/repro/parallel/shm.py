"""Shared-memory / file-backed export of CSR arrays (§4.6, process backend).

A :class:`SharedCSRExport` packs one :class:`~repro.graph.csr.CSRGraph`
snapshot into a single :class:`multiprocessing.shared_memory.SharedMemory`
block so that worker *processes* can traverse the graph without ever
receiving it over a pipe.  The payload layout is the storage tier's one
(:func:`repro.graph.storage.payload_layout`)::

    +-------------------------+------------------------+----------------+
    | indptr                  | adjacency              | alive          |
    | int64 x (n + 1)         | int64 x len(adjacency) | uint8 x n      |
    +-------------------------+------------------------+----------------+

* ``indptr`` / ``adjacency`` are written **once per export** (the export is
  version-stamped with a generation counter; a mutated graph gets a fresh
  export, never an in-place rewrite).
* ``alive`` is a mutable region the parent rewrites *between* dispatches
  (never while tasks are in flight — the bulk pass is synchronous), so the
  per-dispatch traffic over the pipe is only ``(chunk, h, generation)``
  descriptors.

When the snapshot already lives in an on-disk block file (an mmap-backed
snapshot), copying it into shared memory would defeat the point of
spilling it.  :class:`FileCSRExport` instead ships workers the *path*:
each worker maps the block file read-only (the OS page cache makes this a
genuinely shared, zero-copy attach) and only the small mutable ``alive``
region travels through a dedicated shared-memory block.

Workers attach with :class:`SharedCSRView`, which exposes ``indptr`` /
``adjacency`` as zero-copy ``memoryview('q')`` casts — structurally
compatible with the flat-list interface :class:`~repro.traversal.array_bfs.
ArrayBFS` expects (integer indexing plus slice iteration), so the exact same
generation-stamped BFS runs unchanged on either attachment style.
"""

from __future__ import annotations

import mmap
import os
import secrets
from multiprocessing import shared_memory
from typing import Optional, Tuple

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph
from repro.graph.storage import (
    HEADER_SIZE,
    MAGIC,
    payload_layout,
    write_payload,
)

#: Picklable description of an export, small enough to ride along with every
#: task descriptor: ``(kind, name_or_path, num_vertices, adjacency length,
#: generation, alive shm name)``.  ``kind`` is ``"shm"`` (the block *is* a
#: shared-memory segment; alive name is ``None`` — the region trails the
#: arrays) or ``"file"`` (attach by mapping the block file; the mutable
#: alive region lives in its own small shm segment).
SharedCSRLayout = Tuple[str, str, int, int, int, Optional[str]]

#: Prefix of every segment this library creates.  The owner pid is encoded
#: in the name so ``kh-core doctor`` can tell an orphan (owner dead) from a
#: segment that is merely busy, and reclaim only the former.
SEGMENT_PREFIX = "khcore"


def create_segment(size: int, generation: int) -> shared_memory.SharedMemory:
    """Create a shared-memory segment named ``khcore-<pid>-<gen>-<token>``.

    Platform-default anonymous names (``psm_...``) are unattributable: a
    janitor cannot tell whose they are or whether the owner is alive.  The
    explicit name stays under the POSIX 31-character portability ceiling
    and retries on the (astronomically unlikely) token collision; if
    naming keeps colliding the block still gets exported anonymously —
    resilience never blocks the dispatch path.
    """
    for _ in range(16):
        name = (f"{SEGMENT_PREFIX}-{os.getpid()}-{generation}-"
                f"{secrets.token_hex(2)}")
        try:
            return shared_memory.SharedMemory(create=True, size=size,
                                              name=name)
        except FileExistsError:
            continue
    return shared_memory.SharedMemory(create=True, size=size)


class SharedCSRExport:
    """Parent-side owner of one shared-memory CSR block.

    The exporting process is the sole owner of the block's lifetime: it
    creates, (re)writes and eventually unlinks it.  Workers only ever attach
    read-only views (:class:`SharedCSRView`).
    """

    __slots__ = ("shm", "name", "num_vertices", "adjacency_len",
                 "generation", "_alive_offset")

    def __init__(self, csr: CSRGraph, generation: int) -> None:
        n = csr.num_vertices
        m2 = len(csr.adjacency)
        _, _, alive_offset, payload_size = payload_layout(n, m2)
        self.shm = create_segment(max(1, payload_size), generation)
        self.name = self.shm.name
        self.num_vertices = n
        self.adjacency_len = m2
        self.generation = generation
        self._alive_offset = alive_offset
        write_payload(self.shm.buf, csr.indptr, csr.adjacency)

    def layout(self) -> SharedCSRLayout:
        """Picklable attach descriptor for worker processes."""
        return ("shm", self.name, self.num_vertices, self.adjacency_len,
                self.generation, None)

    def write_alive(self, mask_bytes: bytes) -> None:
        """Overwrite the alive region (only between dispatches)."""
        if len(mask_bytes) != self.num_vertices:
            raise ValueError(
                f"alive mask has {len(mask_bytes)} bytes, expected "
                f"{self.num_vertices}"
            )
        if self.num_vertices:
            offset = self._alive_offset
            self.shm.buf[offset:offset + self.num_vertices] = mask_bytes

    def close(self) -> None:
        """Release the mapping and unlink the block (idempotent)."""
        shm, self.shm = self.shm, None
        if shm is None:
            return
        try:
            shm.close()
        finally:
            try:
                shm.unlink()
            except FileNotFoundError:
                pass


class FileCSRExport:
    """Parent-side export of an already-on-disk CSR block file.

    The immutable arrays never move: workers map the block file themselves
    (read-only; the page cache shares the physical pages between all of
    them).  Only the mutable ``alive`` mask gets a freshly-created
    shared-memory segment, sized ``n`` bytes — for a multi-gigabyte
    snapshot that is the difference between "export costs a memcpy of the
    whole graph" and "export costs one small shm allocation".

    Drop-in replacement for :class:`SharedCSRExport` from the executor's
    point of view: same ``layout()`` / ``write_alive()`` / ``close()``
    surface, and
    ``close()`` unlinks only the alive segment — never the dataset file.
    """

    __slots__ = ("path", "alive_shm", "name", "num_vertices",
                 "adjacency_len", "generation")

    def __init__(self, csr: CSRGraph, generation: int) -> None:
        storage = csr.storage
        if storage is None or storage.kind != "mmap":
            raise ValueError(
                "FileCSRExport requires an mmap-backed CSRGraph; use "
                "SharedCSRExport for in-RAM snapshots"
            )
        self.path = storage.path
        n = csr.num_vertices
        self.num_vertices = n
        self.adjacency_len = len(csr.adjacency)
        self.generation = generation
        self.alive_shm = create_segment(max(1, n), generation)
        #: The one shm segment this export owns (the alive mask).
        self.name = self.alive_shm.name
        if n:
            self.alive_shm.buf[0:n] = b"\x01" * n

    def layout(self) -> SharedCSRLayout:
        """Picklable attach descriptor for worker processes."""
        return ("file", self.path, self.num_vertices, self.adjacency_len,
                self.generation, self.alive_shm.name)

    def write_alive(self, mask_bytes: bytes) -> None:
        """Overwrite the alive segment (only between dispatches)."""
        if len(mask_bytes) != self.num_vertices:
            raise ValueError(
                f"alive mask has {len(mask_bytes)} bytes, expected "
                f"{self.num_vertices}"
            )
        if self.num_vertices:
            self.alive_shm.buf[0:self.num_vertices] = mask_bytes

    def close(self) -> None:
        """Release and unlink the alive segment (idempotent).

        The block file belongs to whoever built it (typically an
        :class:`~repro.graph.storage.MmapCSRStorage` with its own
        lifecycle); the export never touches it.
        """
        shm, self.alive_shm = self.alive_shm, None
        if shm is None:
            return
        try:
            shm.close()
        finally:
            try:
                shm.unlink()
            except FileNotFoundError:
                pass


class SharedCSRView:
    """Worker-side zero-copy view over an attached shared CSR export.

    Duck-types the slice of the :class:`~repro.graph.csr.CSRGraph` interface
    that :class:`~repro.traversal.array_bfs.ArrayBFS` touches —
    ``num_vertices``, ``indptr`` and ``adjacency`` — so one worker-local
    ``ArrayBFS`` scratch (visit marks stay private per process; sharing them
    would be a data race) can run the h-bounded traversals directly on the
    shared arrays.  Accepts both attachment styles (``"shm"`` and
    ``"file"``).
    """

    __slots__ = ("shm", "indptr", "adjacency", "alive_region",
                 "num_vertices", "generation", "name", "_numpy_views",
                 "_mm", "_fh", "_alive_shm", "_buf")

    def __init__(self, layout: SharedCSRLayout) -> None:
        kind, name, n, m2, generation, alive_name = layout
        self.name = name
        self.num_vertices = n
        self.generation = generation
        self._numpy_views = None
        self._mm = self._fh = self._alive_shm = self._buf = None
        indptr_bytes, _, alive_offset, _ = payload_layout(n, m2)
        if kind == "shm":
            # Attaching registers the name with the resource tracker a
            # second time, but pool workers share the exporting parent's
            # tracker (the fd is inherited under fork and spawn alike) and
            # registrations are a set, so the parent's unlink-time
            # unregister stays balanced.  Do NOT unregister here: that
            # would strip the parent's registration from the shared tracker.
            self.shm = shared_memory.SharedMemory(name=name)
            buf = self.shm.buf
            self.indptr = buf[0:indptr_bytes].cast("q")
            self.adjacency = buf[indptr_bytes:alive_offset].cast("q")
            self.alive_region = buf[alive_offset:alive_offset + n]
        elif kind == "file":
            self.shm = None
            fh = open(name, "rb")
            try:
                if fh.read(len(MAGIC)) != MAGIC:
                    raise GraphFormatError(
                        f"{name}: not a CSR block file (bad magic)")
                mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            except BaseException:
                fh.close()
                raise
            self._fh, self._mm = fh, mm
            buf = memoryview(mm)
            self._buf = buf
            start = HEADER_SIZE
            self.indptr = buf[start:start + indptr_bytes].cast("q")
            self.adjacency = buf[start + indptr_bytes:
                                 start + alive_offset].cast("q")
            # The mutable alive mask rides in its own shm segment (the file
            # region is the all-ones finalized mask, never rewritten).
            self._alive_shm = shared_memory.SharedMemory(name=alive_name)
            self.alive_region = self._alive_shm.buf[0:n]
        else:
            raise ValueError(f"unknown shared CSR layout kind {kind!r}")

    def numpy_views(self):
        """``(indptr, adjacency, alive)`` as zero-copy NumPy views.

        ``np.frombuffer`` over the same shared regions the memoryview casts
        expose — no copy, no extra IPC; the NumPy worker kernel
        (:meth:`repro.traversal.numpy_bfs.NumpyBulk.bulk`) traverses the
        shared block directly.  Cached per view; requires NumPy (the caller
        dispatches ``engine_kind="numpy"`` only when the parent resolved a
        NumPy engine, so the import is expected to succeed).
        """
        if self._numpy_views is None:
            import numpy as np

            self._numpy_views = (
                np.frombuffer(self.indptr, dtype=np.int64),
                np.frombuffer(self.adjacency, dtype=np.int64),
                np.frombuffer(self.alive_region, dtype=np.uint8),
            )
        return self._numpy_views

    def close(self) -> None:
        """Release the views, then detach from the export (idempotent)."""
        shm, self.shm = self.shm, None
        mm, self._mm = self._mm, None
        fh, self._fh = self._fh, None
        alive_shm, self._alive_shm = self._alive_shm, None
        if shm is None and mm is None and alive_shm is None:
            return
        # Drop the ndarray wrappers first (they pin the memoryviews), then
        # release the casts; SharedMemory.close() / mmap.close() raise
        # BufferError while either is alive.
        self._numpy_views = None
        self.indptr.release()
        self.adjacency.release()
        self.alive_region.release()
        if self._buf is not None:
            self._buf.release()
            self._buf = None
        if shm is not None:
            shm.close()
        if mm is not None:
            mm.close()
        if fh is not None:
            fh.close()
        if alive_shm is not None:
            alive_shm.close()
