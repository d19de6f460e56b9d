"""NumPy many-sources h-degree kernel for the ``numpy`` engine's bulk pass.

The per-vertex traversals (h-degree fills, bounds, the peel's decrements)
run on the interpreted :class:`~repro.traversal.array_bfs.ArrayBFS` on
every CSR engine: one NumPy dispatch per BFS level costs more than the
interpreted loop saves on a single source.  What NumPy wins is the bulk
h-degree pass, where many sources share each dispatch.
:class:`NumpyBulk` is that kernel, mapped onto NumPy gather/scatter
primitives:

* **Frontier expansion is one gather.**  The neighbors of a whole frontier
  are materialized with a single ``indptr``-sliced gather of ``adjacency``
  (the ``arange + repeat`` range-concatenation trick, see
  :func:`_gather_neighbors`).
* **Many-sources block mode.**  :meth:`NumpyBulk.bulk` expands a whole
  block of BFS sources per kernel invocation: frontiers are
  ``(slot, vertex)`` pairs in flat arrays, visit marks live in one flat
  ``slot·n + vertex`` stamped array, and per-source visit counts are summed
  level by level.  The per-level NumPy dispatch cost is amortized over the
  entire block.
* **Bit-parallel dense mode.**  When the h-balls cover a large fraction of
  the graph (hub-dominated topologies, larger ``h``), the frontier kernel
  pays per *candidate edge* while a bit-parallel sweep pays per 64: 64
  sources share one ``uint64`` lane, a level is one gather +
  ``bitwise_or.reduceat`` over the whole edge array, and h-degrees are bit
  counts of the reachability rows (the multi-source trick of Akiba et al.'s
  pruned landmark labeling).  :meth:`NumpyBulk.bulk` picks the cheaper of
  the two kernels per call from a sampled candidate-volume probe; both
  produce identical counts, so the choice is invisible to callers.

Importing this module requires NumPy (the ``numpy`` optional extra); callers
gate on :func:`repro.core.backends.numpy_available` and fall back to the
pure-Python engines when it is absent.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.instrumentation import Counters, NULL_COUNTERS
from repro.traversal.array_bfs import AliveMask

#: Upper bound on the number of *entries* of the block-mode visit-mark
#: scratch (``block_size × num_vertices`` uint8 stamps, 4 MiB at the
#: default — sized to stay L3-resident, which is what keeps the per-level
#: random gathers cheap).  The block size adapts: large graphs get smaller
#: blocks.
BLOCK_SCRATCH_BUDGET = 1 << 22

#: Sources per bit-parallel batch (8 ``uint64`` lanes).  One batch-level is
#: a ``(lanes, |adjacency|)`` gather + reduceat, so the working set stays a
#: few MiB for the graphs the dense mode targets.
DENSE_BATCH_SOURCES = 512

#: Byte budget for one dense batch's arrays (reachability rows + the
#: gathered edge matrix); graphs whose single-lane batch would exceed it
#: stay on the frontier kernel.
DENSE_MEMORY_BUDGET = 256 << 20

#: Minimum sources for the dense mode to be worth probing for at all —
#: below this the frontier kernel's fixed costs are already negligible.
DENSE_MIN_SOURCES = 256

#: Sampled sources whose balls estimate the bulk candidate volume.
DENSE_PROBE_SAMPLES = 8

#: Calibrated break-even: the dense sweep wins once the frontier kernel
#: would touch more than ``sources · h · |adjacency| / DENSE_SELECT_DIVISOR``
#: candidate edges (measured per-candidate ~28ns vs per-lane-word ~6ns,
#: with a ~1.5x safety margin so near-ties keep the battle-tested kernel).
DENSE_SELECT_DIVISOR = 200

_INT32_MAX = 2**31 - 1


def _as_index_array(values: object) -> "np.ndarray":
    """Convert ``values`` to a contiguous integer ndarray, int32 preferred.

    Already-ndarray inputs (e.g. the shared-memory workers' zero-copy int64
    views) are passed through untouched — never copied, whatever their
    width.  Fresh conversions from Python lists use int32 when every value
    fits: the traversal kernels are memory-bandwidth-bound, so halving the
    element width is a direct throughput win (and doubles sort speed in the
    dedup step).
    """
    if isinstance(values, np.ndarray):
        return np.ascontiguousarray(values)
    array = np.ascontiguousarray(values, dtype=np.int64)
    if array.size == 0 or (0 <= int(array.min())
                           and int(array.max()) <= _INT32_MAX):
        return array.astype(np.int32)
    return array


def _alive_view(alive: Union[AliveMask, "np.ndarray", None]
                ) -> Optional["np.ndarray"]:
    """Zero-copy uint8 view of an alive set (mask object, ndarray or None)."""
    if alive is None:
        return None
    if isinstance(alive, np.ndarray):
        return alive
    # AliveMask.mask is a bytearray (or a shared-memory region); both
    # support the buffer protocol, so this is a view, not a copy.
    return np.frombuffer(alive.mask, dtype=np.uint8)


def _gather_neighbors(indptr: "np.ndarray", adjacency: "np.ndarray",
                      frontier: "np.ndarray"
                      ) -> Tuple[Optional["np.ndarray"], "np.ndarray"]:
    """Concatenated CSR rows of every frontier vertex, in frontier order.

    Returns ``(neighbors, degs)`` where ``neighbors`` is the concatenation
    of ``adjacency[indptr[v]:indptr[v+1]]`` for each ``v`` (``None`` when
    every row is empty) and ``degs`` the per-vertex row lengths.  This is
    the ``arange + repeat`` range-concatenation trick: position ``j`` inside
    row ``i`` maps to ``starts[i] + (j - row_begin_i)``.
    """
    starts = indptr[frontier]
    degs = indptr[frontier + 1] - starts
    total = int(degs.sum())
    if total == 0:
        return None, degs
    ends = np.cumsum(degs)
    shift = np.repeat(starts - (ends - degs), degs)
    positions = np.arange(total, dtype=shift.dtype) + shift
    return adjacency[positions], degs


class NumpyBulk:
    """Many-sources h-degree kernel over one CSR snapshot.

    Takes anything exposing ``indptr`` / ``adjacency`` / ``num_vertices``
    (a :class:`~repro.graph.csr.CSRGraph`, or the shared-memory workers'
    arrays via :meth:`from_arrays`).  :meth:`bulk` is its one entry point.
    Not thread-safe: the stamp scratch is reused across calls, so worker
    threads each take a :meth:`clone`.
    """

    __slots__ = ("indptr", "adjacency", "num_vertices", "_block_seen",
                 "_dense_idx", "_dense_empty")

    def __init__(self, csr: object) -> None:
        self.indptr = _as_index_array(csr.indptr)
        self.adjacency = _as_index_array(csr.adjacency)
        self.num_vertices = int(csr.num_vertices)
        self._block_seen: Optional["np.ndarray"] = None
        # Lazy dense-mode caches: reduceat row starts (intp, clipped for the
        # trailing-empty-row quirk) and the empty-row mask.
        self._dense_idx: Optional["np.ndarray"] = None
        self._dense_empty: Optional["np.ndarray"] = None

    @classmethod
    def from_arrays(cls, indptr: "np.ndarray",
                    adjacency: "np.ndarray") -> "NumpyBulk":
        """Build a kernel over pre-existing int64 arrays (no copy).

        Used by the shared-memory workers, whose arrays are zero-copy
        ``np.frombuffer`` views of the shared block.
        """
        holder = _CSRArrays(indptr, adjacency)
        return cls(holder)

    def clone(self) -> "NumpyBulk":
        """A new kernel sharing this one's CSR arrays (for worker threads)."""
        return NumpyBulk.from_arrays(self.indptr, self.adjacency)

    # ------------------------------------------------------------------ #
    # many-sources block mode (bulk h-degree passes)
    # ------------------------------------------------------------------ #
    def _block_capacity(self, num_sources: int) -> int:
        """Sources per block so the flat stamp scratch stays in budget."""
        per_source = max(1, self.num_vertices)
        return max(1, min(num_sources, BLOCK_SCRATCH_BUDGET // per_source))

    def bulk(self, sources: Sequence[int], h: Optional[int],
             alive: Union[AliveMask, "np.ndarray", None] = None,
             counters: Counters = NULL_COUNTERS) -> "np.ndarray":
        """h-degree of every source, computed block-at-a-time.

        ``alive`` may be an :class:`AliveMask`, a raw ``uint8`` ndarray view
        (the shared-memory workers pass the mapped region directly), or
        ``None``.  Deaths are applied as a vectorized filter on each
        frontier rather than folded into the stamps — the O(n·block) stamp
        scratch would make per-discard upkeep quadratic.

        Full passes (``alive is None``) are dispatched to the cheaper of two
        kernels: the stamped frontier kernel (:meth:`_run_block`) or the
        bit-parallel dense sweep (:meth:`_run_dense`), selected by a sampled
        candidate-volume estimate (:meth:`_dense_preferred`).  The kernels
        produce identical counts — the probe decides speed, never results.

        Records one BFS per source into ``counters`` (batch form; totals
        identical to a per-source :class:`~repro.traversal.array_bfs.ArrayBFS`
        loop).  Returns an int64 ndarray aligned with ``sources``.
        """
        src = _as_index_array(list(sources))
        out = np.zeros(src.size, dtype=np.int64)
        if src.size == 0:
            counters.record_bfs_batch(0, 0)
            return out
        mask = _alive_view(alive)
        if mask is None and self._dense_preferred(src, h):
            out = self._run_dense(src, h)
            counters.record_bfs_batch(int(src.size), int(out.sum()))
            return out
        capacity = self._block_capacity(src.size)
        need = capacity * max(1, self.num_vertices)
        if self._block_seen is None or self._block_seen.size < need:
            # uint8 on purpose: a compact scratch keeps the per-level
            # gathers cache-friendly.  Allocated zeroed; every block clears
            # the stamps it made before returning (see _run_block), so the
            # zero state is an invariant between blocks.
            self._block_seen = np.zeros(need, dtype=np.uint8)
        for begin in range(0, src.size, capacity):
            block = src[begin:begin + capacity]
            out[begin:begin + capacity] = self._run_block(block, h, mask)
        counters.record_bfs_batch(int(src.size), int(out.sum()))
        return out

    #: ``seen`` stamp marking a block's source vertices; level marks cycle
    #: through [1, 250] so they can never collide with it.
    _SOURCE_MARK = 255

    def _run_block(self, src: "np.ndarray", h: Optional[int],
                   alive: Optional["np.ndarray"]) -> "np.ndarray":
        """One block of simultaneous BFS expansions; returns visit counts.

        State per live ``(slot, vertex)`` pair is one byte in the flat
        ``slot·n + vertex`` scratch, stamped with the level that first
        reached it; each level gathers the neighbors of every pair at once
        and a binary search of the sorted, deduplicated keys against the
        slot bases accumulates per-slot visits.  Dedup within a level is
        adaptive:

        * sparse levels sort the candidate keys (``np.unique`` touches only
          the candidates — cache-friendly O(k log k));
        * dense levels (candidates within a small factor of the whole
          scratch) skip the sort and recover the frontier with one
          sequential scan for the level's mark, O(block·n) but streaming.

        Visit *sets* are identical either way, so counts — the only thing
        that leaves this kernel — don't depend on the branch taken.
        """
        n = self.num_vertices
        block = src.size
        used = block * n
        seen = self._block_seen
        assert seen is not None
        # 32-bit key arithmetic whenever the key space fits (it always does
        # at the default scratch budget): the kernel is bandwidth-bound.
        key_dtype = np.int32 if used <= _INT32_MAX else np.int64
        bases = np.arange(block, dtype=key_dtype) * n
        source_keys = bases + src.astype(key_dtype, copy=False)
        seen[source_keys] = self._SOURCE_MARK
        # Every stamp this block writes, for the O(visits) cleanup below —
        # a full memset of the scratch would be O(block·n) per block and
        # dominate shallow traversals on large graphs.
        stamped = [source_keys]
        counts = np.zeros(block, dtype=np.int64)
        frontier_v = src
        frontier_bases = bases
        indptr = self.indptr
        adjacency = self.adjacency
        depth = 0
        while frontier_v.size and (h is None or depth < h):
            depth += 1
            cand_v, degs = _gather_neighbors(indptr, adjacency, frontier_v)
            if cand_v is None:
                break
            # One repeat of the per-pair key bases replaces a repeat of the
            # slot ids plus a length-k multiply.
            keys = np.repeat(frontier_bases, degs) + cand_v
            keep = seen[keys] == 0
            if alive is not None:
                keep &= alive[cand_v] != 0
            keys = keys[keep]
            if keys.size == 0:
                break
            mark = (depth - 1) % 250 + 1
            seen[keys] = mark
            stamped.append(keys)
            if keys.size * 16 >= used and depth <= 250:
                # Dense level: one streaming scan beats sorting millions of
                # keys.  (Guarded to depths before marks recycle; deeper
                # traversals fall back to the sort, which needs no marks.)
                frontier_keys = np.flatnonzero(
                    seen[:used] == mark).astype(key_dtype, copy=False)
            else:
                # Sorted-unique by hand: np.sort + a shift-compare mask.
                # (np.unique is avoided deliberately — its hash-based path
                # is an order of magnitude slower than a plain sort here.)
                frontier_keys = np.sort(keys)
                distinct = np.empty(frontier_keys.size, dtype=bool)
                distinct[0] = True
                np.not_equal(frontier_keys[1:], frontier_keys[:-1],
                             out=distinct[1:])
                frontier_keys = frontier_keys[distinct]
            # Both branches yield *sorted* keys, so per-slot frontier sizes
            # fall out of a binary search against the slot bases — no
            # elementwise integer division (int64 division has no SIMD path
            # and would dominate dense levels).
            boundaries = np.searchsorted(frontier_keys, bases)
            per_slot = np.empty(block, dtype=np.int64)
            per_slot[:-1] = boundaries[1:] - boundaries[:-1]
            per_slot[-1] = frontier_keys.size - boundaries[-1]
            counts += per_slot
            frontier_bases = np.repeat(bases, per_slot)
            frontier_v = frontier_keys - frontier_bases
        # Restore the all-zeros invariant: scatter-clear exactly the stamps
        # written (O(visits)), unless this block touched so much of the
        # scratch that one streaming memset is cheaper.
        if sum(keys.size for keys in stamped) * 4 >= used:
            seen[:used] = 0
        else:
            for keys in stamped:
                seen[keys] = 0
        return counts

    # ------------------------------------------------------------------ #
    # bit-parallel dense mode
    # ------------------------------------------------------------------ #
    def _dense_batch_lanes(self) -> int:
        """``uint64`` lanes per dense batch fitting the memory budget (0: none).

        One batch keeps four ``(lanes, n)`` reachability/frontier arrays
        plus the ``(lanes, |adjacency|)`` gathered edge matrix and its
        reduceat output live at once.
        """
        per_lane = (4 * max(1, self.num_vertices)
                    + 2 * self.adjacency.size) * 8
        return min(DENSE_BATCH_SOURCES // 64, DENSE_MEMORY_BUDGET // per_lane)

    def _dense_preferred(self, src: "np.ndarray", h: Optional[int]) -> bool:
        """Probe-based kernel choice for a full (no alive mask) bulk pass.

        The frontier kernel's cost is proportional to the *candidate
        volume* — every adjacency entry of every expanded vertex.  The
        dense sweep's cost is exactly ``sources/64 · levels · |adjacency|``
        lane-words, known a priori.  A handful of single-source probes
        (strided through ``src``, so skewed degree distributions are
        represented) estimates the former; the calibrated break-even is
        :data:`DENSE_SELECT_DIVISOR`.  Deterministic for a given graph and
        source list — the probe never consults timers.
        """
        if h is None or h < 2 or src.size < DENSE_MIN_SOURCES:
            return False
        m2 = self.adjacency.size
        if m2 == 0 or self._dense_batch_lanes() < 1:
            return False
        if np.unique(src).size != src.size:
            # Duplicate sources would collide on one (lane, vertex) bit in
            # the dense init; the frontier kernel gives each its own slot.
            # (Engine callers always pass unique targets — this is a guard
            # for direct kernel users.)
            return False
        stride = max(1, src.size // DENSE_PROBE_SAMPLES)
        sample = src[::stride][:DENSE_PROBE_SAMPLES]
        # Only vertices within distance h-1 are ever expanded (the final
        # level is reached, never gathered from), so a depth-(h-1) ball
        # prices the pass exactly at a fraction of its cost.
        candidates = [self._ball_volume(source, h - 1)
                      for source in sample.tolist()]
        # Median, not mean: on skewed degree distributions the strided
        # sample can land on a hub whose ball dwarfs the typical source's,
        # and one outlier must not flip the whole pass to the dense sweep.
        estimated = float(np.median(candidates)) * src.size
        return estimated * DENSE_SELECT_DIVISOR > src.size * h * m2

    def _ball_volume(self, source: int, depth: int) -> int:
        """Adjacency entries of every vertex within ``depth`` of ``source``."""
        indptr = self.indptr
        seen = np.zeros(self.num_vertices, dtype=bool)
        seen[source] = True
        frontier = np.array([source], dtype=np.int64)
        volume = int(indptr[source + 1] - indptr[source])
        for _ in range(depth):
            cand, _ = _gather_neighbors(indptr, self.adjacency, frontier)
            if cand is None:
                break
            frontier = np.unique(cand[~seen[cand]])
            if frontier.size == 0:
                break
            seen[frontier] = True
            volume += int((indptr[frontier + 1] - indptr[frontier]).sum())
        return volume

    def _run_dense(self, src: "np.ndarray", h: int) -> "np.ndarray":
        """Bit-parallel many-source sweep; returns h-degrees aligned with src.

        64 sources share one ``uint64`` lane: row ``v`` of the ``(lanes, n)``
        reachability matrix holds, per bit, "has source *b* reached ``v``".
        A level for *all* lanes at once is one fancy-index gather of the
        frontier columns through ``adjacency`` plus one
        ``bitwise_or.reduceat`` over the CSR row extents — per-edge-per-64-
        sources work, which is what beats the per-candidate frontier kernel
        on dense h-balls.  Per-source degrees are the column popcounts of
        the final matrix (minus the self bit).
        """
        n = self.num_vertices
        adjacency = self.adjacency
        if self._dense_idx is None:
            indptr = self.indptr
            starts = indptr[:-1].astype(np.intp)
            self._dense_empty = indptr[1:] == indptr[:-1]
            # reduceat quirk: an index equal to len(adjacency) (trailing
            # zero-degree rows) raises, and equal consecutive indices
            # return the *element* rather than an empty reduction — both
            # repaired by clipping here and zeroing empty rows below.
            self._dense_idx = np.minimum(starts, max(0, adjacency.size - 1))
        row_starts = self._dense_idx
        empty = self._dense_empty
        has_empty = bool(empty.any())
        out = np.zeros(src.size, dtype=np.int64)
        per_batch = self._dense_batch_lanes() * 64
        for begin in range(0, src.size, per_batch):
            batch = src[begin:begin + per_batch]
            lanes = (batch.size + 63) // 64
            slots = np.arange(batch.size)
            reached = np.zeros((lanes, n), dtype=np.uint64)
            # Sources are distinct vertices, so the (lane, vertex) pairs
            # are unique and plain fancy assignment cannot collide.
            reached[slots >> 6, batch] = (
                np.uint64(1) << (slots & 63).astype(np.uint64))
            frontier = reached.copy()
            for _ in range(h):
                gathered = frontier[:, adjacency]
                acc = np.bitwise_or.reduceat(gathered, row_starts, axis=1)
                if has_empty:
                    acc[:, empty] = 0
                np.bitwise_and(acc, ~reached, out=acc)
                if not acc.any():
                    break
                reached |= acc
                frontier = acc
            for lane in range(lanes):
                bits = np.unpackbits(reached[lane].view(np.uint8),
                                     bitorder="little")
                totals = bits.reshape(n, 64).sum(axis=0, dtype=np.int64)
                lane_begin = begin + lane * 64
                count = min(64, src.size - lane_begin)
                # Minus the source's own bit, set at initialization.
                out[lane_begin:lane_begin + count] = totals[:count] - 1
        return out


class _CSRArrays:
    """Minimal CSR-shaped holder for :meth:`NumpyBulk.from_arrays`."""

    __slots__ = ("indptr", "adjacency", "num_vertices")

    def __init__(self, indptr: "np.ndarray", adjacency: "np.ndarray") -> None:
        self.indptr = indptr
        self.adjacency = adjacency
        self.num_vertices = len(indptr) - 1
