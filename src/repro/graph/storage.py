"""CSR storage tier: one binary block layout, three interchangeable homes.

A :class:`~repro.graph.csr.CSRGraph` snapshot is two flat ``int64`` arrays
(``indptr``, ``adjacency``) plus a ``uint8`` alive region.  This module
defines the *storage tier* under that snapshot — where those arrays
physically live:

* **ram** — plain Python lists (the historical default; fastest for graphs
  that fit comfortably in memory).  :class:`RamCSRStorage`.
* **mmap** — a memory-mapped on-disk block file (:class:`MmapCSRStorage`),
  exposing the arrays as zero-copy ``memoryview('q')`` casts.  The
  interpreted BFS (:class:`~repro.traversal.array_bfs.ArrayBFS`) and the
  vectorized NumPy kernels both traverse these views unchanged, so a graph
  much larger than RAM decomposes with only the OS page cache as the
  working set.
* **shm** — a POSIX shared-memory block
  (:class:`~repro.parallel.shm.SharedCSRExport`) for the process-pool
  executor.

All three share **one payload layout**::

    +-------------------------+------------------------+----------------+
    | indptr                  | adjacency              | alive          |
    | int64 x (n + 1)         | int64 x m2             | uint8 x n      |
    +-------------------------+------------------------+----------------+

The on-disk block file prefixes the payload with a 64-byte header
(:data:`HEADER_SIZE`) carrying a magic tag, a **status sentinel** byte, a
labels flag and the ``(n, m2)`` dimensions::

    offset 0   magic   8 bytes  b"KHCSR\\x01\\x00\\x00"
    offset 8   status  1 byte   0 = building, 1 = complete
    offset 9   labels  1 byte   0 = identity / 1 = sidecar / 2 = volatile
    offset 16  n       uint64   number of vertices
    offset 24  m2      uint64   adjacency length (2 |E|)
    offset 32  zero padding up to 64

The status byte is flipped to *complete* only after every payload byte and
the labels sidecar are durably written (the same crash-safety idiom as the
persistent core index): an interrupted build leaves a file that
:func:`load_csr` refuses to open, never a silently truncated graph.

Shared-memory blocks carry no header — their lifetime is one process tree
and the dimensions ride in the attach descriptor — but their payload bytes
are produced by the same :func:`write_payload` helper, which is what makes
"copy a block file into shm" (and the zero-copy file attach in
:mod:`repro.parallel`) a plain ``memcpy`` / no-op respectively.
"""

from __future__ import annotations

import mmap
import os
import struct
import warnings
import weakref
from array import array
from typing import Iterable, List, Optional, Protocol, Sequence, Tuple

from repro.errors import GraphFormatError, ParameterError

#: Bytes per ``indptr`` / ``adjacency`` entry (``int64``).
INT_SIZE = 8

#: Magic tag opening every CSR block file (includes the format version).
MAGIC = b"KHCSR\x01\x00\x00"

#: Fixed size of the block-file header; the payload starts here.
HEADER_SIZE = 64

#: Byte offset of the status sentinel within the header.
STATUS_OFFSET = len(MAGIC)

#: Header field encoding: magic, status, labels flag, (pad), n, m2.
_HEADER_STRUCT = struct.Struct("<8sBB6xQQ")

#: Status sentinel values.
STATUS_BUILDING = 0
STATUS_COMPLETE = 1

#: Labels-flag values: vertex labels are exactly ``0..n-1`` (nothing
#: stored), live in a ``<path>.labels`` sidecar, or were kept in RAM only
#: (the file is an engine-internal spill, not standalone-loadable).
LABELS_IDENTITY = 0
LABELS_SIDECAR = 1
LABELS_VOLATILE = 2

#: Filename suffixes: block files and their labels sidecar.
BLOCK_SUFFIX = ".khcsr"
LABELS_SUFFIX = ".labels"

#: Storage names accepted by the snapshot builders
#: (:meth:`~repro.graph.csr.CSRGraph.from_graph`, ``from_edge_file``).
#: Engines always build under ``"auto"``.
STORAGES = ("auto", "ram", "mmap")

#: Environment variable overriding :data:`DEFAULT_MMAP_AUTO_THRESHOLD`.
MMAP_THRESHOLD_ENV_VAR = "KH_CORE_MMAP_THRESHOLD"

#: Minimum estimated payload size (bytes) for ``storage="auto"`` to spill
#: the snapshot to an mmap-backed block file instead of RAM lists.
DEFAULT_MMAP_AUTO_THRESHOLD = 256 * 1024 * 1024


def _env_threshold(env_var: str, default: int) -> int:
    """Parse a non-negative int threshold from the environment.

    Invalid values (non-integer or negative) *warn and fall back* to
    ``default`` instead of raising: a typo in a deployment environment
    should degrade to the default auto policy, not crash every
    decomposition entry point.
    """
    raw = os.environ.get(env_var)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        warnings.warn(
            f"{env_var}={raw!r} is not an integer; falling back to the "
            f"default threshold ({default})",
            RuntimeWarning, stacklevel=3)
        return default
    if value < 0:
        warnings.warn(
            f"{env_var} must be >= 0, got {value}; falling back to the "
            f"default threshold ({default})",
            RuntimeWarning, stacklevel=3)
        return default
    return value


def payload_layout(num_vertices: int, adjacency_len: int
                   ) -> Tuple[int, int, int, int]:
    """Byte layout of one CSR payload, shared by shm blocks and block files.

    Returns ``(indptr_bytes, adjacency_bytes, alive_offset, payload_size)``
    where ``alive_offset`` is relative to the payload start.
    """
    indptr_bytes = INT_SIZE * (num_vertices + 1)
    adjacency_bytes = INT_SIZE * adjacency_len
    alive_offset = indptr_bytes + adjacency_bytes
    return (indptr_bytes, adjacency_bytes, alive_offset,
            alive_offset + num_vertices)


def estimated_payload_bytes(num_vertices: int, num_edges: int) -> int:
    """Payload size a snapshot of ``(|V|, |E|)`` would occupy, in bytes.

    The ``storage="auto"`` policy compares this against the mmap threshold
    *before* building anything, so the decision costs nothing.
    """
    return payload_layout(num_vertices, 2 * num_edges)[3]


def write_payload(buf, indptr: Sequence[int],
                  adjacency: Sequence[int]) -> None:
    """Serialize ``indptr`` + ``adjacency`` into ``buf`` (payload layout).

    ``buf`` is any writable buffer (an shm block's ``.buf``, an ``mmap``
    slice); the alive region beyond the arrays is left untouched.  This is
    the single serializer both the shm export and the block-file writer
    funnel through — the "one binary layout" guarantee.
    """
    indptr_bytes = INT_SIZE * len(indptr)
    buf[0:indptr_bytes] = array("q", indptr).tobytes()
    if len(adjacency):
        end = indptr_bytes + INT_SIZE * len(adjacency)
        buf[indptr_bytes:end] = array("q", adjacency).tobytes()


def resolve_storage(storage: str,
                    payload_bytes: Optional[int] = None) -> str:
    """Resolve a ``storage=`` request to a concrete ``"ram"`` or ``"mmap"``.

    ``"auto"`` spills to mmap when ``payload_bytes`` — typically
    :func:`estimated_payload_bytes` — meets the ``KH_CORE_MMAP_THRESHOLD``
    gate (default :data:`DEFAULT_MMAP_AUTO_THRESHOLD`): ``0`` always spills,
    a huge value never does.  With no size estimate, auto stays in RAM.
    """
    if storage not in STORAGES:
        raise ParameterError(
            f"unknown storage {storage!r}; expected one of {STORAGES}"
        )
    if storage != "auto":
        return storage
    if payload_bytes is None:
        return "ram"
    threshold = _env_threshold(MMAP_THRESHOLD_ENV_VAR,
                               DEFAULT_MMAP_AUTO_THRESHOLD)
    return "mmap" if payload_bytes >= threshold else "ram"


class CSRStorage(Protocol):
    """Structural protocol every storage backend satisfies.

    ``indptr`` / ``adjacency`` expose int64 elements through integer
    indexing and slice iteration — the exact surface
    :class:`~repro.traversal.array_bfs.ArrayBFS` traverses and
    ``np.ascontiguousarray`` wraps zero-copy — regardless of whether the
    bytes live in lists, a file mapping or a shared-memory block.
    """

    kind: str
    indptr: Sequence[int]
    adjacency: Sequence[int]

    def close(self) -> None:
        """Release the backing resource (idempotent; no-op for RAM)."""
        ...


class RamCSRStorage:
    """In-RAM storage: the arrays are plain Python lists.

    Exists mostly for protocol symmetry — a ``CSRGraph`` whose ``storage``
    is ``None`` is implicitly RAM-resident — but gives explicit
    ``storage="ram"`` requests a concrete object to point at.
    """

    kind = "ram"

    __slots__ = ("indptr", "adjacency")

    def __init__(self, indptr: List[int], adjacency: List[int]) -> None:
        self.indptr = indptr
        self.adjacency = adjacency

    def close(self) -> None:
        """No resource to release."""


def _cleanup_mmap(state: dict) -> None:
    """Finalizer shared by close() and GC: unmap, close, maybe unlink."""
    for extra in state.pop("extra_close", ()):
        extra()
    views = state.pop("views", ())
    for view in views:
        view.release()
    mm = state.pop("mm", None)
    if mm is not None:
        mm.close()
    fh = state.pop("fh", None)
    if fh is not None:
        fh.close()
    for path in state.pop("unlink", ()):
        try:
            os.unlink(path)
        except OSError:
            pass


class MmapCSRStorage:
    """Read-only memory-mapped view over a complete CSR block file.

    ``indptr`` and ``adjacency`` are zero-copy ``memoryview('q')`` casts
    into the mapping; ``alive`` is the trailing uint8 region (all-ones in a
    finalized file — the mutable alive mask of a decomposition in flight
    never touches the dataset file).  Pages are faulted in on demand, so
    the resident set of a traversal is the touched pages, not the file.

    ``delete_on_close`` marks engine-internal temp spills: closing the
    storage (or losing the last reference — a GC finalizer backstops
    forgotten handles) unlinks the block file and its sidecar.
    """

    kind = "mmap"

    __slots__ = ("path", "num_vertices", "adjacency_len", "labels_flag",
                 "indptr", "adjacency", "alive", "_state", "_finalizer",
                 "__weakref__")

    def __init__(self, path: str, delete_on_close: bool = False) -> None:
        self.path = os.fspath(path)
        fh = open(self.path, "rb")
        try:
            header = fh.read(HEADER_SIZE)
            if len(header) < HEADER_SIZE:
                raise GraphFormatError(
                    f"{self.path}: truncated CSR block header")
            magic, status, labels_flag, n, m2 = _HEADER_STRUCT.unpack_from(
                header, 0)
            if magic != MAGIC:
                raise GraphFormatError(
                    f"{self.path}: not a CSR block file (bad magic)")
            if status != STATUS_COMPLETE:
                raise GraphFormatError(
                    f"{self.path}: incomplete CSR block (an interrupted "
                    f"build left the status sentinel unset); rebuild it")
            expected = HEADER_SIZE + payload_layout(n, m2)[3]
            if os.fstat(fh.fileno()).st_size < expected:
                raise GraphFormatError(
                    f"{self.path}: CSR block shorter than its header "
                    f"claims ({expected} bytes expected)")
            mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except BaseException:
            fh.close()
            raise
        self.num_vertices = n
        self.adjacency_len = m2
        self.labels_flag = labels_flag
        indptr_bytes, _, alive_offset, _ = payload_layout(n, m2)
        buf = memoryview(mm)
        start = HEADER_SIZE
        self.indptr = buf[start:start + indptr_bytes].cast("q")
        self.adjacency = buf[start + indptr_bytes:
                             start + alive_offset].cast("q")
        self.alive = buf[start + alive_offset:start + alive_offset + n]
        unlink: Tuple[str, ...] = ()
        if delete_on_close:
            unlink = (self.path, self.path + LABELS_SUFFIX)
        # The casts pin ``buf``; release them before the mapping, and let a
        # GC finalizer do the same for handles that are never closed.
        self._state = {
            "views": (self.indptr, self.adjacency, self.alive, buf),
            "mm": mm, "fh": fh, "unlink": unlink,
        }
        self._finalizer = weakref.finalize(self, _cleanup_mmap, self._state)

    @property
    def nbytes(self) -> int:
        """Total on-disk size of the block (header + payload)."""
        return HEADER_SIZE + payload_layout(self.num_vertices,
                                            self.adjacency_len)[3]

    def close(self) -> None:
        """Release the views and mapping; unlink temp spills (idempotent)."""
        if self._finalizer.alive:
            self._finalizer()


class BlockFileWriter:
    """Sequential, status-sentinel-protected writer for one block file.

    Opens the target with a *building* header and two independent
    append-only cursors — one for the indptr region, one for the adjacency
    region — so producers that interleave the two streams (the streaming
    loader discovers ``indptr[i+1]`` exactly when row ``i``'s neighbors
    finish) still issue purely sequential writes.  :meth:`finalize` fills
    the alive region, writes the labels sidecar, fsyncs, and only then
    flips the status byte; :meth:`abort` (or a crash) leaves a file
    :func:`load_csr` rejects.
    """

    _ALIVE_CHUNK = 1 << 20

    def __init__(self, path: str, num_vertices: int,
                 adjacency_len: int) -> None:
        self.path = os.fspath(path)
        self.num_vertices = num_vertices
        self.adjacency_len = adjacency_len
        self._indptr_written = 0
        self._adjacency_written = 0
        indptr_bytes = payload_layout(num_vertices, adjacency_len)[0]
        self._idx_fh = open(self.path, "wb")
        self._idx_fh.write(_HEADER_STRUCT.pack(
            MAGIC, STATUS_BUILDING, LABELS_VOLATILE,
            num_vertices, adjacency_len).ljust(HEADER_SIZE, b"\x00"))
        self._adj_fh = open(self.path, "r+b")
        self._adj_fh.seek(HEADER_SIZE + indptr_bytes)

    def write_indptr(self, values: "array[int]") -> None:
        """Append a chunk of indptr entries (an ``array('q')``)."""
        self._indptr_written += len(values)
        self._idx_fh.write(values.tobytes())

    def write_adjacency(self, values: "array[int]") -> None:
        """Append a chunk of adjacency entries (an ``array('q')``)."""
        self._adjacency_written += len(values)
        self._adj_fh.write(values.tobytes())

    def finalize(self, labels: Optional[Iterable[object]] = None,
                 labels_flag: Optional[int] = None) -> None:
        """Complete the file: alive region, sidecar, fsync, status flip.

        ``labels=None`` with the default flag marks identity labels
        (vertex ids are exactly ``0..n-1``); an iterable writes the
        ``<path>.labels`` sidecar; ``labels_flag=LABELS_VOLATILE`` records
        that labels intentionally stayed in RAM.
        """
        if (self._indptr_written != self.num_vertices + 1
                or self._adjacency_written != self.adjacency_len):
            raise GraphFormatError(
                f"{self.path}: block writer closed with "
                f"{self._indptr_written}/{self.num_vertices + 1} indptr and "
                f"{self._adjacency_written}/{self.adjacency_len} adjacency "
                f"entries written")
        remaining = self.num_vertices
        while remaining > 0:
            step = min(remaining, self._ALIVE_CHUNK)
            self._adj_fh.write(b"\x01" * step)
            remaining -= step
        if labels is not None:
            flag = LABELS_SIDECAR
            with open(self.path + LABELS_SUFFIX, "w",
                      encoding="utf-8") as sidecar:
                for label in labels:
                    sidecar.write(f"{label}\n")
                sidecar.flush()
                os.fsync(sidecar.fileno())
        else:
            flag = LABELS_IDENTITY if labels_flag is None else labels_flag
        self._adj_fh.flush()
        os.fsync(self._adj_fh.fileno())
        self._idx_fh.flush()
        from repro.resilience.faults import should_fire

        if should_fire("block.torn_write"):
            # Simulated crash in the durability window: everything but the
            # status flip is on disk, which is exactly the state a real
            # power cut here leaves behind.  load_csr must reject the file
            # and `kh-core doctor` must reclaim it.
            from repro.errors import FaultInjectedError

            self._close_handles()
            raise FaultInjectedError(
                "block.torn_write",
                f"crash before status flip left {self.path} building",
            )
        self._idx_fh.seek(0)
        self._idx_fh.write(_HEADER_STRUCT.pack(
            MAGIC, STATUS_COMPLETE, flag,
            self.num_vertices, self.adjacency_len))
        self._idx_fh.flush()
        os.fsync(self._idx_fh.fileno())
        self._close_handles()

    def abort(self) -> None:
        """Drop the partial file (idempotent; safe after finalize)."""
        self._close_handles()
        for path in (self.path, self.path + LABELS_SUFFIX):
            try:
                os.unlink(path)
            except OSError:
                pass

    def _close_handles(self) -> None:
        for name in ("_idx_fh", "_adj_fh"):
            fh = getattr(self, name, None)
            if fh is not None and not fh.closed:
                fh.close()


def sidecar_safe_label(label: object) -> bool:
    """True when ``label`` round-trips through the labels sidecar.

    The sidecar stores one ``str(label)`` token per line and reads it back
    through :func:`repro.graph.edgefile.parse_vertex`; ints and
    whitespace-free, non-numeric strings survive, anything else does not.
    """
    from repro.graph.edgefile import parse_vertex

    token = str(label)
    if not token or token != token.strip() or len(token.split()) != 1:
        return False
    return parse_vertex(token) == label


def write_block_file(path: str, indptr: Sequence[int],
                     adjacency: Sequence[int],
                     labels: Optional[Sequence[object]] = None,
                     volatile_labels: bool = False) -> None:
    """Write fully-materialized CSR arrays as a block file at ``path``.

    The array-at-once counterpart of the streaming writer (used by
    :meth:`CSRGraph.from_graph <repro.graph.csr.CSRGraph.from_graph>` when
    spilling an in-RAM build to disk).  ``labels=None`` marks identity
    labels; ``volatile_labels=True`` stamps the file as an engine-internal
    spill whose labels stay in RAM (not standalone-loadable).
    """
    writer = BlockFileWriter(path, len(indptr) - 1, len(adjacency))
    try:
        chunk = 1 << 17
        for start in range(0, len(indptr), chunk):
            writer.write_indptr(array("q", indptr[start:start + chunk]))
        for start in range(0, len(adjacency), chunk):
            writer.write_adjacency(array("q",
                                         adjacency[start:start + chunk]))
        if volatile_labels:
            writer.finalize(labels_flag=LABELS_VOLATILE)
        else:
            writer.finalize(labels=labels)
    except BaseException:
        writer.abort()
        raise


def read_sidecar_labels(path: str, expected: int) -> List[object]:
    """Read the ``<path>.labels`` sidecar back into a label list."""
    from repro.graph.edgefile import parse_vertex

    sidecar = path + LABELS_SUFFIX
    try:
        with open(sidecar, "r", encoding="utf-8") as handle:
            labels = [parse_vertex(line.rstrip("\n")) for line in handle]
    except FileNotFoundError:
        raise GraphFormatError(
            f"{path}: labels sidecar {sidecar!r} is missing") from None
    if len(labels) != expected:
        raise GraphFormatError(
            f"{sidecar}: {len(labels)} labels for {expected} vertices")
    return labels


def _cleanup_label_store(state: dict) -> None:
    """Finalizer shared by LazyLabelStore.close() and GC: unmap and close."""
    mm = state.pop("mm", None)
    if mm is not None:
        mm.close()
    fh = state.pop("fh", None)
    if fh is not None:
        fh.close()


class LazyLabelStore:
    """Sequence view over a ``<path>.labels`` sidecar, decoded on demand.

    Reopening a string-labeled block file used to read the whole sidecar
    into a Python list and build an n-entry index dict before the first
    query ran — O(n) RAM and time just to *open* the graph.  This store
    makes :func:`load_csr` reopen O(1): construction only checks that the
    sidecar exists; the first label access memory-maps the sidecar and
    scans it once into a compact line-offset table (8 bytes per vertex,
    in lieu of n boxed labels), after which ``labels[i]`` decodes one line
    straight out of the page cache.  Iteration streams the mapping without
    ever materializing the list.

    The count-vs-header validation the eager reader performed moves to
    that first access; a sidecar that was truncated after the block was
    finalized still raises :class:`~repro.errors.GraphFormatError`, just
    lazily.  Not thread-safe (one-shot index build), matching every other
    per-snapshot scratch structure in this package.
    """

    __slots__ = ("path", "expected", "_offsets", "_mm", "_state",
                 "_finalizer", "__weakref__")

    def __init__(self, path: str, expected: int) -> None:
        sidecar = path + LABELS_SUFFIX
        if not os.path.exists(sidecar):
            raise GraphFormatError(
                f"{path}: labels sidecar {sidecar!r} is missing")
        self.path = sidecar
        self.expected = expected
        self._offsets: Optional["array[int]"] = None
        self._mm: Optional[mmap.mmap] = None
        self._state: dict = {}
        self._finalizer = weakref.finalize(
            self, _cleanup_label_store, self._state)

    def _ensure(self) -> None:
        """Map the sidecar and build the line-offset table (first use only)."""
        if self._offsets is not None:
            return
        fh = open(self.path, "rb")
        try:
            if os.fstat(fh.fileno()).st_size == 0:
                mm = None
            else:
                mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except BaseException:
            fh.close()
            raise
        offsets = array("q", [0])
        if mm is not None:
            find = mm.find
            pos = find(b"\n", 0)
            while pos != -1:
                offsets.append(pos + 1)
                pos = find(b"\n", pos + 1)
            if offsets[-1] != len(mm):
                # No trailing newline: the final partial line is a label.
                offsets.append(len(mm))
        if len(offsets) - 1 != self.expected:
            if mm is not None:
                mm.close()
            fh.close()
            raise GraphFormatError(
                f"{self.path}: {len(offsets) - 1} labels for "
                f"{self.expected} vertices")
        self._state.update(mm=mm, fh=fh)
        self._mm = mm
        self._offsets = offsets

    def __len__(self) -> int:
        return self.expected

    def __getitem__(self, index: int) -> object:
        """Decode the label of vertex ``index`` straight from the mapping."""
        from repro.graph.edgefile import parse_vertex

        self._ensure()
        if index < 0:
            index += self.expected
        if not 0 <= index < self.expected:
            raise IndexError(index)
        offsets = self._offsets
        assert offsets is not None and self._mm is not None
        raw = self._mm[offsets[index]:offsets[index + 1]]
        return parse_vertex(raw.decode("utf-8").rstrip("\n"))

    def __iter__(self):
        """Stream every label in vertex order without materializing a list."""
        from repro.graph.edgefile import parse_vertex

        self._ensure()
        if self._mm is None:
            return
        offsets = self._offsets
        assert offsets is not None
        mm = self._mm
        for i in range(self.expected):
            raw = mm[offsets[i]:offsets[i + 1]]
            yield parse_vertex(raw.decode("utf-8").rstrip("\n"))

    def __add__(self, other: Sequence[object]) -> List[object]:
        """Materialized concatenation, for the delta-rebuild label path."""
        return list(self) + list(other)

    def __eq__(self, other: object) -> bool:
        """Element-wise equality against any sequence (materializes self)."""
        if isinstance(other, (list, tuple, range, LazyLabelStore)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        """Path and size; never forces the lazy read."""
        return (f"LazyLabelStore({self.path!r}, n={self.expected}, "
                f"loaded={self._offsets is not None})")

    def close(self) -> None:
        """Release the sidecar mapping (idempotent; safe before first use)."""
        if self._finalizer.alive:
            self._finalizer()
        self._offsets = None
        self._mm = None


class LazyLabelIndex:
    """``index_of`` mapping over a :class:`LazyLabelStore`, built on demand.

    The reverse ``label -> index`` dict is only worth n dict entries of RAM
    once somebody actually resolves a label (``handle_of`` / ``index``);
    decompositions and exports that only ever go index→label never pay for
    it.  Read surface mirrors :class:`~repro.graph.csr.IdentityIndex`:
    ``[]``, ``in``, ``get``, ``len``, iteration, ``items``.
    """

    __slots__ = ("_store", "_index")

    def __init__(self, store: LazyLabelStore) -> None:
        self._store = store
        self._index: Optional[dict] = None

    def _ensure(self) -> dict:
        if self._index is None:
            self._index = {v: i for i, v in enumerate(self._store)}
        return self._index

    def __getitem__(self, label: object) -> int:
        return self._ensure()[label]

    def __contains__(self, label: object) -> bool:
        return label in self._ensure()

    def get(self, label: object, default: Optional[int] = None
            ) -> Optional[int]:
        """Index of ``label``, or ``default`` when unknown."""
        return self._ensure().get(label, default)

    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self):
        return iter(self._ensure())

    def items(self):
        """``(label, index)`` pairs, mirroring ``dict.items``."""
        return self._ensure().items()

    def keys(self):
        """Label view, mirroring ``dict.keys`` (lets ``dict(index)`` work)."""
        return self._ensure().keys()


def load_csr(path: str, delete_on_close: bool = False):
    """Open a finalized block file as an mmap-backed ``CSRGraph``.

    Labels come back per the header flag, and in O(1) either way: identity
    labels materialize as a ``range`` (no per-vertex cost), sidecar labels
    become a :class:`LazyLabelStore` / :class:`LazyLabelIndex` pair that
    memory-maps ``<path>.labels`` on first access (a missing sidecar is
    still reported here, at open time), and a volatile-labels file (an
    engine-internal spill) is refused — it was never meant to outlive its
    process.
    """
    from repro.graph.csr import CSRGraph, IdentityIndex

    storage = MmapCSRStorage(path, delete_on_close=delete_on_close)
    try:
        n = storage.num_vertices
        if storage.labels_flag == LABELS_IDENTITY:
            labels: Sequence[object] = range(n)
            index_of: object = IdentityIndex(n)
        elif storage.labels_flag == LABELS_SIDECAR:
            store = LazyLabelStore(storage.path, n)
            # Closing (or finalizing) the block storage closes the label
            # mapping too, so the sidecar unlink of a temp spill never
            # races an open map.
            storage._state["extra_close"] = (store.close,)
            labels = store
            index_of = LazyLabelIndex(store)
        else:
            raise GraphFormatError(
                f"{path}: block stores no labels (an engine-internal "
                f"spill); rebuild it with stream_load or from_graph")
    except BaseException:
        storage.close()
        raise
    return CSRGraph(storage.indptr, storage.adjacency, labels,
                    index_of, source_version=None, storage=storage)
