"""Array-based h-bounded BFS over :class:`~repro.graph.csr.CSRGraph`.

This is the CSR counterpart of :func:`repro.traversal.bfs.h_bounded_bfs` and
the hot loop of the ``backend="csr"`` decomposition path.  Four ideas keep
the per-call cost down:

* **Flat int arrays instead of dicts.**  Visit marks live in a pre-allocated
  list indexed by vertex index, and the traversal walks neighbor slices of
  the flat CSR ``adjacency`` array.
* **Generation (epoch) trick.**  Instead of clearing the visit marks between
  calls, every call increments a generation counter and a vertex counts as
  visited only if ``seen[v]`` equals the current generation.  Resetting state
  is O(1) no matter how small the traversal was.
* **Alive set folded into the visit marks.**  The peeling algorithms restrict
  traversals to the surviving vertices (an :class:`AliveMask` byte array).
  When a mask is *installed* into the scratch, dead vertices get the
  integer ``DEAD`` sentinel in ``seen``, so the inner loop needs one combined
  test — ``seen[u] < generation`` — instead of a visited check plus an alive
  lookup.  ``AliveMask.discard`` keeps the installed sentinels in sync.
* **Level-synchronous frontiers.**  Distances are not written per vertex;
  the BFS expands whole levels and records segment boundaries, from which
  per-vertex distances are recovered on demand (the peeling only ever asks
  "is the distance exactly h?", i.e. "is it in the last segment?").

One :class:`ArrayBFS` instance is a reusable scratch area; it is **not**
thread-safe (each worker thread owns its own — see
:meth:`repro.core.backends.CSREngine.bulk_h_degrees`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import VertexNotFoundError
from repro.graph.csr import CSRGraph
from repro.graph.graph import Vertex
from repro.instrumentation import Counters, NULL_COUNTERS

#: Sentinel stored in ``seen`` for dead vertices: compares greater than every
#: generation number, so ``seen[u] < generation`` rejects dead vertices with
#: the same comparison that rejects already-visited ones.  An *integer*
#: sentinel keeps ``seen`` a homogeneous list of ints.  Generations count
#: traversals, so they can never realistically approach ``2**63 - 1``;
#: :meth:`ArrayBFS.run` still guards the rollover and resets the scratch if
#: it ever happens.
DEAD = 2**63 - 1


class AliveMask:
    """Byte-mask alive set for the CSR backend.

    Supports the small protocol the peeling algorithms need — membership,
    ``discard``, truthiness/length, iteration.  The ``mask`` bytearray is
    always authoritative; while the mask is installed in an :class:`ArrayBFS`
    scratch, ``discard`` additionally plants the ``DEAD`` sentinel there so
    in-flight peelings never rebuild the scratch.
    """

    __slots__ = ("mask", "_count", "_seen")

    def __init__(self, mask: bytearray, count: int) -> None:
        self.mask = mask
        self._count = count
        # The visit marks of the ArrayBFS this mask is installed in, which
        # discard keeps in sync (``seen[index] = DEAD``).
        self._seen: Optional[List[int]] = None

    @classmethod
    def full(cls, n: int) -> "AliveMask":
        return cls(bytearray(b"\x01") * n if n else bytearray(), n)

    @classmethod
    def of(cls, n: int, members: Iterable[int]) -> "AliveMask":
        mask = bytearray(n)
        count = 0
        for i in members:
            if not mask[i]:
                mask[i] = 1
                count += 1
        return cls(mask, count)

    def __contains__(self, index: int) -> bool:
        return self.mask[index] != 0

    def discard(self, index: int) -> None:
        if self.mask[index]:
            self.mask[index] = 0
            self._count -= 1
            seen = self._seen
            if seen is not None:
                seen[index] = DEAD

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def __iter__(self) -> Iterator[int]:
        return (i for i, byte in enumerate(self.mask) if byte)


class ArrayBFS:
    """Reusable scratch state for h-bounded BFS on one :class:`CSRGraph`.

    After :meth:`run` returns, :meth:`visited` / :meth:`visited_with_distance`
    expose the traversal (source excluded) as fresh lists.  The scratch
    buffers are overwritten by the next call, which is why those accessors
    copy.
    """

    __slots__ = ("csr", "order", "level_ends", "_seen", "_generation",
                 "_active")

    def __init__(self, csr: CSRGraph) -> None:
        self.csr = csr
        self.order: List[int] = []
        self.level_ends: List[int] = []
        self._seen: List[int] = [0] * csr.num_vertices
        self._generation = 0
        self._active: Optional[AliveMask] = None

    def _install(self, alive: Optional[AliveMask], hook: bool) -> None:
        """Rebuild ``seen`` for a new alive context.

        Costs O(n), paid only when the active alive set changes (once per
        decomposition for h-BZ/h-LB, once per partition for h-LB+UB).  The
        mask bytes are always current, so rebuilding from them is safe no
        matter how many discards happened while the mask was not installed.
        With ``hook`` the mask gets a back-reference for sentinel upkeep;
        worker threads install without hooking (they never discard).
        """
        previous = self._active
        if previous is not None and previous._seen is self._seen:
            previous._seen = None
        if alive is None:
            self._seen = [0] * self.csr.num_vertices
        else:
            self._seen = [0 if byte else DEAD for byte in alive.mask]
            if hook:
                alive._seen = self._seen
        self._active = alive

    def run(self, source: int, h: Optional[int],
            alive: Optional[AliveMask] = None,
            counters: Counters = NULL_COUNTERS,
            hook: bool = True) -> int:
        """BFS from index ``source``, truncated at depth ``h``.

        Parameters
        ----------
        source:
            Start vertex index; assumed alive (the decomposition algorithms
            only start traversals from surviving vertices).
        h:
            Maximum distance explored; ``None`` means unbounded.
        alive:
            Optional :class:`AliveMask` restricting the traversal; ``None``
            traverses the whole graph.
        counters:
            Instrumentation sink; records one BFS with the number of visited
            vertices (excluding the source), exactly like the dict-based
            :func:`~repro.traversal.bfs.h_bounded_bfs`.
        hook:
            Whether to keep the installed mask's sentinels in sync with
            future ``discard`` calls.  Leave True except from worker threads
            that share the mask read-only.

        Returns
        -------
        int
            The number of vertices visited, source excluded — i.e. the
            h-degree of ``source`` within the alive subgraph.
        """
        if alive is not self._active:
            self._install(alive, hook)
        if self._generation + 1 >= DEAD:
            # Generation rollover (unreachable in practice — it would take
            # 2**63 - 1 traversals — but cheap to guard): a wrapped counter
            # would make every stale stamp look "visited" and, worse, collide
            # with the DEAD sentinel.  Reinstalling resets all stamps to
            # 0/DEAD, so restarting from generation 1 is sound.
            self._install(self._active, hook)
            self._generation = 0
        seen = self._seen
        indptr = self.csr.indptr
        adjacency = self.csr.adjacency
        self._generation += 1
        generation = self._generation

        seen[source] = generation
        visited = [source]
        level_ends = [1]
        frontier = visited
        depth = 0
        while frontier and (h is None or depth < h):
            depth += 1
            next_frontier: List[int] = []
            append = next_frontier.append
            for v in frontier:
                for u in adjacency[indptr[v]:indptr[v + 1]]:
                    if seen[u] < generation:
                        seen[u] = generation
                        append(u)
            if not next_frontier:
                break
            visited.extend(next_frontier)
            level_ends.append(len(visited))
            frontier = next_frontier
        self.order = visited
        self.level_ends = level_ends
        counters.record_bfs(len(visited) - 1)
        return len(visited) - 1

    def visited(self) -> List[int]:
        """Visited vertex indices of the last run, source excluded (a copy)."""
        return self.order[1:]

    def visited_with_distance(self) -> List[Tuple[int, int]]:
        """``(index, distance)`` pairs of the last run, source excluded."""
        out: List[Tuple[int, int]] = []
        order = self.order
        start = 1
        for depth, end in enumerate(self.level_ends[1:], start=1):
            out.extend((u, depth) for u in order[start:end])
            start = end
        return out


def csr_h_bounded_bfs(csr: CSRGraph, source: Vertex, h: Optional[int],
                      alive=None,
                      counters: Counters = NULL_COUNTERS) -> Dict[Vertex, int]:
    """Label-space convenience wrapper around :class:`ArrayBFS`.

    Returns ``{vertex: distance}`` for every vertex within distance ``h`` of
    ``source`` — the same contract as the dict backend's
    :func:`~repro.traversal.bfs.h_bounded_bfs`, including the source itself
    at distance 0.  ``alive`` may be any iterable of vertex labels.  A fresh
    scratch area is allocated per call, so this is meant for tests and one-off
    queries; the decomposition engine reuses one scratch across calls.
    """
    source_index = csr.index(source)
    mask: Optional[AliveMask] = None
    if alive is not None:
        alive_labels = set(alive)
        if source not in alive_labels:
            raise VertexNotFoundError(source)
        # Alive labels that are not graph vertices are ignored, matching the
        # dict backend (membership in a larger set restricts nothing extra).
        index_of = csr.index_of
        mask = AliveMask.of(csr.num_vertices,
                            (index for index in map(index_of.get, alive_labels)
                             if index is not None))
    scratch = ArrayBFS(csr)
    scratch.run(source_index, h, mask, counters=counters)
    labels = csr.labels
    result = {labels[scratch.order[0]]: 0}
    for index, distance in scratch.visited_with_distance():
        result[labels[index]] = distance
    return result
