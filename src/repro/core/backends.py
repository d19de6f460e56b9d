"""Backend engines: one peeling-primitive API over two graph representations.

The (k,h)-core algorithms only touch a graph through a handful of primitives
— h-degree, h-neighborhood, h-neighbors-with-distance, bulk h-degrees, and an
"alive" set restricting traversals to the surviving vertices.  This module
packages those primitives behind three interchangeable *engines*:

* :class:`DictEngine` — the reference implementation.  Handles are the
  original vertex objects, the alive set is a plain Python ``set``, and every
  primitive delegates to the dict-of-sets traversal code in
  :mod:`repro.traversal`.
* :class:`CSREngine` — the fast path.  The graph is snapshotted into a
  :class:`~repro.graph.csr.CSRGraph`, handles are vertex *indices*, the alive
  set is a byte mask (:class:`AliveMask`) and traversals run through the
  array-based :class:`~repro.traversal.array_bfs.ArrayBFS` with its
  generation trick.  The engine owns its snapshot: vertices keep the
  graph's insertion order, the ``"auto"`` storage rule picks RAM lists or
  an mmap block (``KH_CORE_MMAP_THRESHOLD``), and :meth:`CSREngine.refresh`
  delta-rebuilds a RAM snapshot and fully rebuilds a spilled one.
* :class:`NumpyEngine` — the CSR engine with a NumPy bulk h-degree kernel
  (:class:`~repro.traversal.numpy_bfs.NumpyBulk`).  Everything per-vertex
  still runs on ``ArrayBFS``; only the many-sources bulk pass changes.

The ladder is dict → csr → numpy; ``dict`` is also the oracle the parity
tests compare against.

Algorithms are written once against the engine API (see
:mod:`repro.core.hbz`, :mod:`repro.core.peeling`, :mod:`repro.core.bounds`),
which is what guarantees every backend produces identical core numbers.

The bulk h-degree pass additionally selects an *executor* (``"serial"``,
``"thread"`` or ``"process"`` — see :data:`repro.core.parallel.EXECUTORS`).
The process executor is the only one that scales on CPython; on the CSR
engine it runs through the shared-memory subsystem (:mod:`repro.parallel`):
the flat arrays are exported once per snapshot generation, a persistent
worker pool attaches to the block, and :meth:`CSREngine.refresh` re-exports
with a bumped generation so workers never traverse a stale topology.
Engines that spun up a process pool own it — call :meth:`CSREngine.close`
(the facade does this for engines it resolved itself) to shut the pool down
and unlink the shared block; a GC finalizer backstops forgotten engines.

Engine contract
---------------
Handles are opaque to the algorithms; only the engine translates them back to
vertex labels (:meth:`label`, :meth:`labels_of`, :meth:`to_labels`).
``h_neighborhood`` and ``h_neighbors_with_distance`` return **materialized
snapshots** — the CSR scratch buffers are overwritten by the next traversal,
so lazily yielding from them would be a correctness bug.
"""

from __future__ import annotations

import importlib.util
import os
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.core.parallel import _validate_executor, map_batches
from repro.errors import (
    DeadlineExceededError,
    ParameterError,
    WorkerPoolError,
)
from repro.graph.csr import CSRGraph, csr_suitable, resolve_numpy_threshold
from repro.graph.graph import Graph, Vertex
from repro.graph.views import FrozenGraphView
from repro.instrumentation import Counters, NULL_COUNTERS
from repro.resilience.policies import ResilienceReport
from repro.traversal.array_bfs import AliveMask, ArrayBFS
from repro.traversal.bfs import h_bounded_neighbors
from repro.traversal.hneighborhood import h_degree as _dict_h_degree

#: Backend names accepted by the decomposition entry points.
BACKENDS = ("auto", "dict", "csr", "numpy")


def numpy_available() -> bool:
    """True when the optional NumPy dependency is importable.

    Gate for the ``numpy`` engine: ``backend="auto"`` consults this (plus
    the :func:`~repro.graph.csr.resolve_numpy_threshold` size gate) before
    preferring the vectorized engine, and an explicit ``backend="numpy"``
    raises a :class:`~repro.errors.ParameterError` when it returns False.
    Module-level on purpose so tests can monkeypatch NumPy "absent".

    Setting ``KH_CORE_DISABLE_NUMPY=1`` forces False even when NumPy is
    installed — an operator kill switch for broken NumPy builds, and the
    lever the test suite uses to exercise the pure-Python fallback without
    uninstalling anything.
    """
    if os.environ.get("KH_CORE_DISABLE_NUMPY", "") not in ("", "0"):
        return False
    return importlib.util.find_spec("numpy") is not None


class DictEngine:
    """Reference engine over the dict-of-sets :class:`Graph`."""

    name = "dict"

    __slots__ = ("graph", "_process_delegate")

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        # Lazily-built CSREngine serving executor="process" bulk passes, so
        # one dict-backend decomposition spins the worker pool up once, not
        # once per pass (see bulk_h_degrees).
        self._process_delegate = None

    # -- handle space -------------------------------------------------- #
    def nodes(self) -> List[Vertex]:
        return list(self.graph.vertices())

    @property
    def num_nodes(self) -> int:
        return self.graph.num_vertices

    def label(self, handle: Vertex) -> Vertex:
        return handle

    def handle_of(self, label: Vertex) -> Vertex:
        return label

    def labels_of(self, handles: Iterable[Vertex]) -> List[Vertex]:
        return list(handles)

    def to_labels(self, mapping) -> Dict[Vertex, int]:
        # Handles are the labels; dict-engine core maps are plain dicts.
        return mapping

    def degree(self, handle: Vertex) -> int:
        return self.graph.degree(handle)

    # -- alive sets ---------------------------------------------------- #
    def full_alive(self) -> set:
        return set(self.graph.vertices())

    def alive_subset(self, handles: Iterable[Vertex]) -> set:
        return set(handles)

    def refresh(self, touched=None) -> None:
        """Near no-op: the dict engine reads the live graph directly.

        Only the process-executor delegate (a CSR snapshot) needs syncing.
        """
        if self._process_delegate is not None:
            self._process_delegate.refresh(touched)

    def close(self) -> None:
        """Tear down the process-executor delegate's pool, if one was built."""
        delegate, self._process_delegate = self._process_delegate, None
        if delegate is not None:
            delegate.close()

    @property
    def resilience(self) -> Optional[ResilienceReport]:
        """Recovery tally of the process delegate (None before one exists)."""
        delegate = self._process_delegate
        return delegate.resilience if delegate is not None else None

    # -- traversal primitives ------------------------------------------ #
    def h_degree(self, handle: Vertex, h: int, alive=None,
                 counters: Counters = NULL_COUNTERS) -> int:
        return _dict_h_degree(self.graph, handle, h, alive=alive,
                              counters=counters)

    def h_neighborhood(self, handle: Vertex, h: int, alive=None,
                       counters: Counters = NULL_COUNTERS) -> List[Vertex]:
        return list(h_bounded_neighbors(self.graph, handle, h, alive=alive,
                                        counters=counters))

    def h_neighbors_with_distance(self, handle: Vertex, h: int, alive=None,
                                  counters: Counters = NULL_COUNTERS
                                  ) -> List[Tuple[Vertex, int]]:
        return list(h_bounded_neighbors(self.graph, handle, h, alive=alive,
                                        counters=counters).items())

    def bulk_h_degrees(self, h: int, targets=None, alive=None,
                       counters: Counters = NULL_COUNTERS,
                       executor: str = "thread",
                       num_workers: int = 1) -> Dict[Vertex, int]:
        """h-degree of every target vertex, optionally across a worker pool.

        The serial and thread executors run the dict traversal directly
        (each thread batch records into private counters, merged at the
        end).  ``executor="process"`` needs a CSR snapshot: one delegate
        :class:`CSREngine` (and its worker pool) is cached across this
        engine's bulk passes, and labels are translated to its handles and
        back here.
        """
        _validate_executor(executor)
        if executor == "process" and num_workers > 1:
            delegate = self._process_delegate
            if delegate is None:
                # A frozen view already carries its snapshot — reuse it
                # instead of re-expanding the graph.
                delegate = CSREngine(self.graph,
                                     csr=getattr(self.graph, "csr", None))
                self._process_delegate = delegate
            delegate.refresh(None)  # no-op while the snapshot is current
            handle_of = delegate.handle_of
            if targets is not None:
                targets = [handle_of(v) for v in targets]
            if alive is not None:
                alive = delegate.alive_subset(handle_of(v) for v in alive)
            degrees = delegate.bulk_h_degrees(h, targets=targets, alive=alive,
                                              counters=counters,
                                              executor=executor,
                                              num_workers=num_workers)
            return delegate.to_labels(degrees)

        graph = self.graph
        if targets is None:
            targets = alive if alive is not None else graph.vertices()
        targets = list(targets)
        if num_workers <= 1 or len(targets) < 2 or executor == "serial":
            result: Dict[Vertex, int] = {}
            for v in targets:
                result[v] = _dict_h_degree(graph, v, h, alive=alive,
                                           counters=counters)
                counters.count_hdegree()
            return result

        def worker(batch, local: Counters) -> Dict[Vertex, int]:
            out: Dict[Vertex, int] = {}
            for v in batch:
                out[v] = _dict_h_degree(graph, v, h, alive=alive,
                                        counters=local)
                local.count_hdegree()
            return out

        return map_batches(targets, num_workers, worker, counters)


class CSREngine:
    """Array engine over a :class:`CSRGraph` snapshot; handles are indices."""

    name = "csr"

    __slots__ = ("graph", "csr", "_scratch", "built_version", "_shm_pool",
                 "_process_downgraded", "_storage_dir", "_owns_csr",
                 "resilience")

    def __init__(self, graph: Graph, csr: Optional[CSRGraph] = None,
                 storage_dir: Optional[str] = None) -> None:
        self.graph = graph
        self._shm_pool = None
        #: Set by the first process->thread downgrade; later process passes
        #: run on threads without spawning a pool until close().
        self._process_downgraded = False
        #: Recovery tally for this engine's supervised dispatches (all-zero
        #: on a fault-free run); printed by ``kh-core --verbose``.
        self.resilience = ResilienceReport()
        #: Where engine-built snapshots spill when the ``"auto"`` storage
        #: rule sends them to an mmap block (default: the system temp dir).
        self._storage_dir = storage_dir
        if csr is not None and (
                (csr.source_version is not None
                 and csr.source_version != graph.version)
                or csr.num_vertices != graph.num_vertices
                or csr.num_edges != graph.num_edges):
            # The built_version stamp below only vouches for snapshots
            # taken *now*, so validate a supplied snapshot here: its
            # recorded source version must match (catching equal-size
            # mutations like remove+add of an edge), with the size check as
            # a backstop for hand-assembled snapshots that carry no stamp.
            raise ParameterError(
                "the supplied CSR snapshot does not match the graph "
                "(was the graph mutated after CSRGraph.from_graph?)"
            )
        # The engine owns (and closes) only storage it allocated itself; a
        # supplied snapshot's mmap block belongs to whoever built it.
        self._owns_csr = csr is None
        self.csr = csr if csr is not None else self._build_csr()
        self._scratch = ArrayBFS(self.csr)
        self.built_version = graph.version

    @property
    def scratch(self) -> ArrayBFS:
        """The engine's reusable BFS scratch (current for this snapshot).

        Exposed for the array-native peel kernels, which read the scratch's
        ``order`` / ``level_ends`` buffers directly instead of
        materializing per-neighbor lists.  Not thread-safe — same caveat as
        every other single-scratch traversal primitive on this engine.
        """
        return self._scratch

    def _build_csr(self) -> CSRGraph:
        """Full snapshot of the graph under the ``"auto"`` storage rule.

        The snapshot spills to an mmap block under ``storage_dir`` when its
        estimated payload reaches ``KH_CORE_MMAP_THRESHOLD``, and stays in
        RAM lists otherwise.
        """
        return CSRGraph.from_graph(self.graph, storage="auto",
                                   storage_dir=self._storage_dir)

    def refresh(self, touched=None) -> None:
        """Re-snapshot a mutated graph, reusing untouched CSR rows.

        ``touched`` is the set of vertex labels whose adjacency may have
        changed since the snapshot (see :meth:`CSRGraph.rebuilt`); passing
        ``None`` forces a full rebuild.  Indices of surviving vertices are
        stable across a delta refresh, so handles held by callers remain
        valid.  No-op when the snapshot is already current.

        Where the current snapshot lives picks the path: a RAM snapshot is
        delta-rebuilt, while an mmap snapshot (immutable file views) is
        rebuilt in full under the ``"auto"`` storage rule, so a spilled
        snapshot stays spilled.
        """
        if self.built_version == self.graph.version:
            return
        previous = self.csr
        if previous.storage_kind == "ram":
            self.csr = previous.rebuilt(self.graph, touched)
        else:
            self.csr = self._build_csr()
        if self._owns_csr and previous is not self.csr:
            previous.close()
        self._owns_csr = True
        self._scratch = ArrayBFS(self.csr)
        self.built_version = self.graph.version
        if self._shm_pool is not None:
            # Version-stamped re-export: the worker pool survives the
            # refresh, but the stale block is unlinked now and the next
            # process dispatch exports the new snapshot under a bumped
            # generation (every dispatch calls ensure_export), so no worker
            # ever traverses the stale topology.  Invalidate-only keeps a
            # mutation stream from paying an O(n + m) export per refresh
            # when no dispatch happens in between.
            self._shm_pool.invalidate_export()

    def close(self) -> None:
        """Tear down the process pool, shared export and owned storage.

        Idempotent with respect to the pool; the engine remains usable for
        RAM snapshots afterwards (a later ``executor="process"`` bulk pass
        simply spins the pool up again, even after a process->thread
        downgrade).  An *owned* mmap-backed snapshot is
        closed too — its temp spill file is unlinked — so call ``close``
        only when done with the engine; supplied snapshots are left alone.
        """
        pool, self._shm_pool = self._shm_pool, None
        if pool is not None:
            pool.close()
        self._process_downgraded = False
        if self._owns_csr and self.csr.storage_kind != "ram":
            self.csr.close()

    def _process_pool(self, num_workers: int,
                      start_method: Optional[str] = None):
        """Return the persistent shared-memory executor, (re)building it
        when the requested worker count changes.

        The executor records its recovery events in this engine's
        :class:`ResilienceReport`.
        """
        from repro.parallel.pool import SharedMemoryExecutor
        pool = self._shm_pool
        if pool is not None and (pool.closed
                                 or pool.num_workers != num_workers):
            # A failed dispatch tears its executor down; discard it here so
            # the next process request recovers with a fresh pool instead
            # of erroring forever on the cached corpse.
            pool.close()
            pool = None
        if pool is None:
            pool = SharedMemoryExecutor(num_workers,
                                        start_method=start_method,
                                        report=self.resilience)
            self._shm_pool = pool
        return pool

    # -- handle space -------------------------------------------------- #
    def nodes(self) -> range:
        return range(self.csr.num_vertices)

    @property
    def num_nodes(self) -> int:
        return self.csr.num_vertices

    def label(self, handle: int) -> Vertex:
        return self.csr.labels[handle]

    def handle_of(self, label: Vertex) -> int:
        return self.csr.index(label)

    def labels_of(self, handles: Iterable[int]) -> List[Vertex]:
        labels = self.csr.labels
        return [labels[i] for i in handles]

    def to_labels(self, mapping) -> Dict[Vertex, int]:
        # Accepts any ``items()``-bearing handle-keyed map — a dict or the
        # runtime's flat ArrayCoreMap.
        labels = self.csr.labels
        return {labels[i]: value for i, value in mapping.items()}

    def degree(self, handle: int) -> int:
        return self.csr.degree(handle)

    # -- alive sets ---------------------------------------------------- #
    def full_alive(self) -> AliveMask:
        return AliveMask.full(self.csr.num_vertices)

    def alive_subset(self, handles: Iterable[int]) -> AliveMask:
        return AliveMask.of(self.csr.num_vertices, handles)

    # -- traversal primitives ------------------------------------------ #
    def h_degree(self, handle: int, h: int, alive: Optional[AliveMask] = None,
                 counters: Counters = NULL_COUNTERS) -> int:
        return self._scratch.run(handle, h, alive, counters)

    def h_neighborhood(self, handle: int, h: int,
                       alive: Optional[AliveMask] = None,
                       counters: Counters = NULL_COUNTERS) -> List[int]:
        self._scratch.run(handle, h, alive, counters)
        return self._scratch.visited()

    def h_neighbors_with_distance(self, handle: int, h: int,
                                  alive: Optional[AliveMask] = None,
                                  counters: Counters = NULL_COUNTERS
                                  ) -> List[Tuple[int, int]]:
        self._scratch.run(handle, h, alive, counters)
        return self._scratch.visited_with_distance()

    def bulk_h_degrees(self, h: int, targets=None,
                       alive: Optional[AliveMask] = None,
                       counters: Counters = NULL_COUNTERS,
                       executor: str = "thread",
                       num_workers: int = 1) -> Dict[int, int]:
        """h-degree of every target index, optionally across a worker pool.

        ``executor`` selects the scheduler (see
        :data:`repro.core.parallel.EXECUTORS`).  The thread path mirrors
        :meth:`DictEngine.bulk_h_degrees`: each worker owns a
        private :class:`ArrayBFS` scratch (the shared one is not
        thread-safe) and a private :class:`Counters`, merged at the end.
        The process path exports the CSR arrays into shared memory once per
        snapshot generation and fans degree-weighted chunks out to a
        persistent worker pool (:mod:`repro.parallel`) — the only executor
        that scales on CPython.

        The dispatch (executor validation, target defaulting,
        degree-weighted process fan-out) lives here exactly once; the
        serial and per-thread *kernels* are the :meth:`_bulk_serial` /
        :meth:`_bulk_worker_batch` hooks :class:`NumpyEngine` overrides,
        and ``engine_kind=self.name`` rides the shared-memory task
        descriptors so workers run the matching kernel.
        """
        _validate_executor(executor)
        if targets is None:
            targets = alive if alive is not None else range(self.csr.num_vertices)
        indices = list(targets)

        if executor == "process" and self._process_downgraded:
            executor = "thread"
        if executor == "process" and num_workers > 1 and len(indices) >= 2:
            indptr = self.csr.indptr
            weights = [indptr[i + 1] - indptr[i] for i in indices]
            pool = self._process_pool(num_workers)
            try:
                return pool.bulk_h_degrees(self.csr, h, indices, alive=alive,
                                           counters=counters, weights=weights,
                                           engine_kind=self.name)
            except (WorkerPoolError, DeadlineExceededError):
                # First rung of the degradation ladder: the pool exhausted
                # its retry/rebuild budget, so finish this pass and every
                # later one on threads until close() — re-spawning a pool
                # per pass would burn the whole rebuild budget each time.
                self._process_downgraded = True
                self.resilience.record_downgrade("process", "thread")
                if counters is not NULL_COUNTERS:
                    counters.bump("resilience.downgrades")
                executor = "thread"

        if num_workers <= 1 or len(indices) < 2 or executor == "serial":
            return self._bulk_serial(indices, h, alive, counters)

        def worker(batch, local: Counters) -> Dict[int, int]:
            return self._bulk_worker_batch(batch, h, alive, local)

        try:
            return map_batches(indices, num_workers, worker, counters)
        except RuntimeError:
            # Last rung: thread creation failed (resource exhaustion).  The
            # serial kernel needs no scheduler at all, so the pass still
            # completes.
            self.resilience.record_downgrade("thread", "serial")
            if counters is not NULL_COUNTERS:
                counters.bump("resilience.downgrades")
            return self._bulk_serial(indices, h, alive, counters)

    def _bulk_serial(self, indices: List[int], h: int,
                     alive: Optional[AliveMask],
                     counters: Counters) -> Dict[int, int]:
        """Serial bulk kernel: one interpreted BFS per target."""
        run = self._scratch.run
        result: Dict[int, int] = {}
        for i in indices:
            result[i] = run(i, h, alive, counters)
            counters.count_hdegree()
        return result

    def _bulk_worker_batch(self, batch: List[int], h: int,
                           alive: Optional[AliveMask],
                           local: Counters) -> Dict[int, int]:
        """Thread-pool bulk kernel for one batch.

        Private scratch per worker: ArrayBFS state is not thread-safe.
        The shared mask is installed without hooking — workers only read
        it, so sentinel upkeep stays with the engine's scratch.
        """
        scratch = ArrayBFS(self.csr)
        out: Dict[int, int] = {}
        for i in batch:
            out[i] = scratch.run(i, h, alive, local, hook=False)
            local.count_hdegree()
        return out


class NumpyEngine(CSREngine):
    """The CSR engine with a NumPy bulk h-degree kernel.

    Same handle space, alive masks, snapshot/refresh lifecycle, per-vertex
    ``ArrayBFS`` scratch, peel and bounds as :class:`CSREngine`.  Only the
    serial and thread bulk kernels differ: they run
    :class:`~repro.traversal.numpy_bfs.NumpyBulk`, which expands whole
    blocks of BFS sources per NumPy dispatch.  The process path's workers
    run the same kernel over ``np.frombuffer`` views of the shared block.
    Results and counter totals are identical to the CSR engine.

    Requires the optional NumPy dependency (``pip install
    kh-core-repro[numpy]``); :func:`resolve_engine` raises a clear error
    when it is missing, and ``backend="auto"`` simply never selects it.
    """

    name = "numpy"

    __slots__ = ("_bulk",)

    def __init__(self, graph: Graph, csr: Optional[CSRGraph] = None,
                 storage_dir: Optional[str] = None) -> None:
        super().__init__(graph, csr=csr, storage_dir=storage_dir)
        # Built (and NumPy imported) eagerly, never on the first bulk pass:
        # process-pool workers forked later inherit the imported module
        # instead of each importing NumPy themselves.
        from repro.traversal.numpy_bfs import NumpyBulk

        self._bulk = NumpyBulk(self.csr)

    def refresh(self, touched=None) -> None:
        """:meth:`CSREngine.refresh`, plus a bulk kernel for a new snapshot."""
        stale = self.built_version != self.graph.version
        super().refresh(touched)
        if stale:
            from repro.traversal.numpy_bfs import NumpyBulk

            self._bulk = NumpyBulk(self.csr)

    def _bulk_serial(self, indices: List[int], h: int,
                     alive: Optional[AliveMask],
                     counters: Counters) -> Dict[int, int]:
        """Serial bulk kernel: one many-sources ``bulk`` call.

        Result dicts preserve target order, so downstream bucket fills see
        the exact sequence the CSR engine produces.
        """
        degrees = self._bulk.bulk(indices, h, alive, counters)
        counters.count_hdegrees(len(indices))
        return dict(zip(indices, degrees.tolist()))

    def _bulk_worker_batch(self, batch: List[int], h: int,
                           alive: Optional[AliveMask],
                           local: Counters) -> Dict[int, int]:
        """Thread-pool bulk kernel: a private cloned kernel per batch.

        The kernel's stamp buffers are not thread-safe; the CSR ndarrays
        themselves are shared read-only.
        """
        degrees = self._bulk.clone().bulk(batch, h, alive, local)
        local.count_hdegrees(len(batch))
        return dict(zip(batch, degrees.tolist()))


Engine = Union[DictEngine, CSREngine]

#: Graph-like inputs the resolver accepts: a mutable dict graph or a frozen
#: CSR snapshot view (the out-of-core entry path).
GraphLike = Union[Graph, FrozenGraphView]


def resolve_engine(graph: GraphLike, backend: Union[str, Engine] = "dict",
                   storage_dir: Optional[str] = None) -> Engine:
    """Return the engine requested by ``backend`` for ``graph``.

    ``backend`` may be one of the names in :data:`BACKENDS` or an
    already-constructed engine (useful to amortize a CSR build across
    several decompositions of the same graph).  ``"auto"`` climbs the
    engine ladder dict → csr → numpy as far as the graph and the installed
    extras allow: the NumPy engine for integer-friendly graphs above the
    NumPy threshold (when NumPy is importable; ``KH_CORE_NUMPY_THRESHOLD``
    gates the step-up), the CSR engine for smaller integer-friendly
    graphs, and the dict reference engine otherwise.

    A CSR-family engine builds its own snapshot in the graph's insertion
    order and picks the storage tier itself: RAM lists, or an mmap block
    under ``storage_dir`` once the estimated payload reaches
    ``KH_CORE_MMAP_THRESHOLD``.  A :class:`~repro.graph.views.FrozenGraphView`
    input skips the build entirely — its embedded snapshot (whatever tier
    it lives on) is reused as the engine's arrays, which is how a
    stream-loaded on-disk graph decomposes without ever expanding into
    dicts.
    """
    if isinstance(backend, (DictEngine, CSREngine)):
        if backend.graph is not graph:
            raise ParameterError(
                "the supplied engine was built for a different graph"
            )
        if isinstance(backend, CSREngine) and (
                backend.built_version != graph.version):
            # The CSR snapshot is immutable; a mutated graph would silently
            # decompose the old topology.  The graph's version counter makes
            # this an exact staleness test — refresh the engine
            # (CSREngine.refresh) after any mutation.
            raise ParameterError(
                "the supplied CSR engine is stale: the graph was mutated "
                "after the snapshot was built (call engine.refresh() or "
                "rebuild with resolve_engine)"
            )
        return backend
    # Single source of truth for name validation and the "auto" policy.
    name = resolved_backend_name(graph, backend)
    # A frozen view carries its snapshot: hand it straight to the engine
    # (its version property matches the snapshot's stamp, so the supplied-
    # snapshot validation passes) instead of rebuilding the arrays.
    frozen_csr = graph.csr if isinstance(graph, FrozenGraphView) else None
    if name == "dict":
        return DictEngine(graph)
    if name == "numpy":
        if not numpy_available():
            if os.environ.get("KH_CORE_DISABLE_NUMPY", "") not in ("", "0"):
                raise ParameterError(
                    "backend='numpy' is disabled by KH_CORE_DISABLE_NUMPY "
                    "in this environment; unset it (or use the 'csr' / "
                    "'dict' engines)"
                )
            raise ParameterError(
                "backend='numpy' requires the optional NumPy dependency "
                "(pip install 'kh-core-repro[numpy]'); the 'csr' and "
                "'dict' engines run without it"
            )
        return NumpyEngine(graph, csr=frozen_csr, storage_dir=storage_dir)
    return CSREngine(graph, csr=frozen_csr, storage_dir=storage_dir)


def resolved_backend_name(graph: GraphLike, backend: Union[str, Engine]) -> str:
    """Return the concrete backend name ``backend`` resolves to for ``graph``.

    Cheap (no engine is built): used by the CLI to surface which backend an
    ``"auto"`` request actually selected.  The ``"auto"`` ladder: dict for
    graphs that are not integer-friendly, then numpy when NumPy is
    importable and the graph clears the NumPy size threshold, csr
    otherwise.  A frozen CSR view skips the
    suitability probe — its arrays already exist, so ``"auto"`` never
    falls back to dict for it.
    """
    if isinstance(backend, (DictEngine, CSREngine)):
        return backend.name
    if backend == "auto":
        # A frozen view's arrays already exist, so it skips the dict rung.
        if not isinstance(graph, FrozenGraphView) and not csr_suitable(graph):
            return "dict"
        if (numpy_available()
                and graph.num_vertices >= resolve_numpy_threshold()):
            return "numpy"
        return "csr"
    if backend in BACKENDS:
        return backend
    raise ParameterError(
        f"unknown backend {backend!r}; expected one of {BACKENDS}"
    )
