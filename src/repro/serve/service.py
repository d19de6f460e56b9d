"""`CoreService`: a resident dynamic engine behind an epoch-publication wall.

The service owns one warm :class:`~repro.dynamic.DynamicKHCore` engine and
enforces the concurrency discipline the HTTP layer relies on:

* **Single writer.**  All update batches are applied on one dedicated
  writer thread, serialized by an asyncio lock.  The dynamic engine is
  never touched from anywhere else after construction.
* **Copy-on-publish.**  After every committed batch the writer publishes a
  fresh :class:`~repro.serve.snapshot.CoreSnapshot` (defensive copy of the
  core map + the engine's immutable CSR structure snapshot) with a single
  attribute assignment — atomic under the GIL, so readers swap epochs
  wholesale and can never observe a half-applied batch.
* **Non-blocking reads.**  Readers only ever dereference
  :attr:`snapshot`; a long re-peel in the writer thread delays the *next*
  epoch, never an in-flight read, which keeps serving the previous one.

The query methods return JSON-ready dicts, each stamped with the epoch
(``generation`` / ``graph_version``) it was answered from.

A persistent core index (:mod:`repro.index`) can be attached with
``index_path=``: spectrum and off-h point queries are then served as pure
index reads instead of per-snapshot recomputes — but only while the live
graph still matches the graph the index was built from.  The first
accepted update batch moves the graph version past the attach point and
every later query falls back to snapshot computation (correctness first;
the HTTP service has no index-refresh path).
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.dynamic.engine import DynamicKHCore
from repro.dynamic.stream import EdgeUpdate, normalize_op
from repro.errors import ParameterError, ServiceOverloadedError
from repro.graph.graph import Graph
from repro.serve.snapshot import CoreSnapshot

Vertex = Hashable

#: Default cap on the number of updates accepted in one ``POST /update``
#: batch; larger batches are rejected with :class:`OversizedBatchError`
#: (HTTP 413) before touching the engine.
DEFAULT_MAX_BATCH = 1024

#: Default cap on update batches queued behind the single writer thread;
#: batches past the cap are shed with :class:`~repro.errors.
#: ServiceOverloadedError` (HTTP 503 + ``Retry-After``) instead of growing
#: an unbounded queue under sustained overload.
DEFAULT_MAX_PENDING = 64


class OversizedBatchError(ParameterError):
    """An update batch exceeded the service's configured size cap."""

    def __init__(self, size: int, max_batch: int) -> None:
        super().__init__(
            f"update batch of {size} exceeds the service cap of "
            f"{max_batch} updates"
        )
        self.size = size
        self.max_batch = max_batch


def _wire_vertex(value: object) -> Vertex:
    """Map a JSON-decoded vertex back to its graph label.

    JSON has no tuples, so tuple labels (and only tuples) arrive as lists;
    everything else (ints, strings) round-trips unchanged.
    """
    if isinstance(value, list):
        return tuple(_wire_vertex(item) for item in value)
    return value


class CoreService:
    """One loaded graph, one resident engine, one published epoch at a time.

    Parameters
    ----------
    graph:
        Initial graph (owned by the service's engine from here on).
    h:
        Distance threshold the resident engine maintains.
    backend / algorithm / fallback_ratio / executor / num_workers:
        Forwarded to :class:`~repro.dynamic.DynamicKHCore`.
    max_batch:
        Upper bound on updates per batch (see :data:`DEFAULT_MAX_BATCH`).
    name:
        Display name of the loaded graph (for ``/healthz`` and logs).
    index_path:
        Optional persistent core index to serve spectrum / off-h point
        queries from.  Validated at attach time: the index's stored graph
        checksum must match ``graph`` (:class:`~repro.errors.IndexMismatchError`
        otherwise), so a stale or wrong-graph index can never answer.
    max_pending:
        Backpressure cap on update batches queued behind the writer thread;
        batches past the cap are shed with
        :class:`~repro.errors.ServiceOverloadedError` (HTTP 503).
    repeel_budget:
        Writer watchdog budget in seconds.  When an *incremental* re-peel
        exceeds it, the engine is pinned to full recomputes
        (``fallback_ratio = 0``) so one pathological cascade cannot stall
        every later batch behind the same slow path.
    """

    def __init__(
        self,
        graph: Optional[Graph] = None,
        h: int = 2,
        backend: str = "auto",
        algorithm: str = "auto",
        fallback_ratio: Optional[float] = None,
        executor: str = "thread",
        num_workers: Optional[int] = None,
        max_batch: int = DEFAULT_MAX_BATCH,
        name: str = "graph",
        index_path: Optional[str] = None,
        max_pending: int = DEFAULT_MAX_PENDING,
        repeel_budget: Optional[float] = None,
    ) -> None:
        if max_batch < 1:
            raise ParameterError("max_batch must be >= 1")
        if max_pending < 1:
            raise ParameterError("max_pending must be >= 1")
        if repeel_budget is not None and repeel_budget <= 0:
            raise ParameterError("repeel_budget must be positive")
        engine_kwargs: Dict[str, object] = {}
        if fallback_ratio is not None:
            engine_kwargs["fallback_ratio"] = fallback_ratio
        self.engine = DynamicKHCore(
            graph,
            h=h,
            backend=backend,
            algorithm=algorithm,
            executor=executor,
            num_workers=num_workers,
            **engine_kwargs,
        )
        self.name = name
        self.max_batch = max_batch
        self.max_pending = max_pending
        self.repeel_budget = repeel_budget
        #: Update batches admitted but not yet committed (event-loop thread
        #: only); the gauge behind the :attr:`max_pending` backpressure cap.
        self._pending = 0
        self.shed_requests = 0
        self.watchdog_trips = 0
        self.request_counts: Dict[str, int] = {}
        self._generation = 0
        self._write_lock: Optional[asyncio.Lock] = None
        #: The writer thread: every engine mutation after construction runs
        #: here, so the (thread-unsafe) engine has exactly one mutator.
        self._writer = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="kh-serve-writer"
        )
        #: Readers only used for heavy analytics queries, which operate on
        #: immutable snapshots and are therefore lock-free.
        self._readers = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="kh-serve-reader"
        )
        self._publish_mutex = threading.Lock()
        self._snapshot = self._publish()
        self._index = None
        self._index_graph_version: Optional[int] = None
        self.index_hits = 0
        self.index_misses = 0
        if index_path is not None:
            # Deferred import: the sqlite index stack is only pulled in
            # when a service actually attaches one.
            from repro.errors import IndexMismatchError
            from repro.index.query import CoreIndexReader

            reader = CoreIndexReader(index_path)
            if not reader.matches_graph(self.engine.graph):
                reader.close()
                raise IndexMismatchError(
                    f"index {index_path!r} was built from a different graph "
                    f"than the one being served; rebuild it with "
                    f"'kh-core index build'"
                )
            self._index = reader
            self._index_graph_version = self.engine.graph.version
        self.closed = False

    # ------------------------------------------------------------------ #
    # epoch publication
    # ------------------------------------------------------------------ #
    @property
    def snapshot(self) -> CoreSnapshot:
        """The currently published epoch (an immutable object).

        Grab it **once** per request and answer everything from that
        reference; re-reading the property mid-request could cross an epoch
        boundary.
        """
        return self._snapshot

    def _publish(self) -> CoreSnapshot:
        """Build and atomically install a fresh epoch from the engine state.

        Runs on the writer thread (or at construction).  The core map is a
        defensive copy (:meth:`DynamicKHCore.core_numbers` guarantees it)
        and the structure is the engine's immutable CSR snapshot, so the
        published object shares no mutable state with the engine.
        """
        with self._publish_mutex:
            self._generation += 1
            snapshot = CoreSnapshot(
                self._generation,
                self.engine.graph.version,
                self.engine.h,
                self.engine.core_numbers(),
                self.engine.csr_snapshot(),
            )
            self._snapshot = snapshot
        return snapshot

    # ------------------------------------------------------------------ #
    # updates (single writer)
    # ------------------------------------------------------------------ #
    def parse_updates(self, payload: object) -> List[Tuple[str, Vertex, Vertex]]:
        """Validate a decoded ``POST /update`` body into ``(op, u, v)`` triples.

        Accepts ``{"updates": [[op, u, v], ...]}`` or a bare list of
        triples; op spellings are the ones
        :func:`repro.dynamic.stream.normalize_op` accepts.  Raises
        :class:`~repro.errors.ParameterError` on malformed payloads and
        :class:`OversizedBatchError` past the batch cap — both *before* the
        engine sees anything.
        """
        if isinstance(payload, dict):
            payload = payload.get("updates")
        if not isinstance(payload, list):
            raise ParameterError(
                "the update body must be {'updates': [[op, u, v], ...]}"
            )
        if len(payload) > self.max_batch:
            raise OversizedBatchError(len(payload), self.max_batch)
        updates: List[Tuple[str, Vertex, Vertex]] = []
        for entry in payload:
            if not isinstance(entry, (list, tuple)) or len(entry) != 3:
                raise ParameterError(f"each update must be [op, u, v]; got {entry!r}")
            op, u, v = entry
            updates.append((normalize_op(op), _wire_vertex(u), _wire_vertex(v)))
        return updates

    def apply_updates_sync(
        self, updates: Sequence[Tuple[str, Vertex, Vertex]]
    ) -> Dict[str, object]:
        """Apply one batch and publish the next epoch (writer thread only)."""
        started = time.monotonic()
        summary = self.engine.apply_batch(
            [EdgeUpdate(op, u, v) for op, u, v in updates]
        )
        elapsed = time.monotonic() - started
        if (
            self.repeel_budget is not None
            and summary.mode == "incremental"
            and elapsed > self.repeel_budget
            and self.engine.fallback_ratio != 0.0
        ):
            # Watchdog: an incremental re-peel blew its budget, so the
            # cascade heuristic is mispriced for this workload.  Pin the
            # engine to full recomputes — bounded, predictable cost —
            # instead of letting the next batch stall the writer again.
            self.engine.fallback_ratio = 0.0
            self.watchdog_trips += 1
        snapshot = self._publish()
        return {
            "mode": summary.mode,
            "applied": summary.applied,
            "skipped": summary.skipped,
            "cores_changed": summary.cores_changed,
            "generation": snapshot.generation,
            "graph_version": snapshot.graph_version,
        }

    async def apply_updates(
        self, updates: Sequence[Tuple[str, Vertex, Vertex]]
    ) -> Dict[str, object]:
        """Serialize a batch onto the writer thread; resolves when published.

        Applies backpressure first: with :attr:`max_pending` batches already
        admitted and waiting on the writer, the batch is shed with
        :class:`~repro.errors.ServiceOverloadedError` (HTTP 503 +
        ``Retry-After``) before any engine state is touched, so overload
        degrades into fast rejections instead of an unbounded queue.
        """
        if self._pending >= self.max_pending:
            self.shed_requests += 1
            raise ServiceOverloadedError(
                f"{self._pending} update batches already pending "
                f"(cap {self.max_pending}); retry later"
            )
        if self._write_lock is None:
            self._write_lock = asyncio.Lock()
        loop = asyncio.get_running_loop()
        self._pending += 1
        try:
            async with self._write_lock:
                return await loop.run_in_executor(
                    self._writer, self.apply_updates_sync, updates
                )
        finally:
            self._pending -= 1

    # ------------------------------------------------------------------ #
    # queries (each reads exactly one snapshot)
    # ------------------------------------------------------------------ #
    def _index_for(self, snapshot: CoreSnapshot):
        """The attached index reader, iff it is still exact for ``snapshot``.

        Freshness is a version check, not a recheck of the checksum: the
        reader was validated against the graph at attach time, so any
        snapshot still carrying the attach-time graph version describes the
        indexed graph verbatim.  The first accepted update invalidates the
        index for good (tallied in :attr:`index_misses`).
        """
        if (self._index is not None
                and snapshot.graph_version == self._index_graph_version):
            return self._index
        if self._index is not None:
            self.index_misses += 1
        return None

    def _stamp(
        self, snapshot: CoreSnapshot, payload: Dict[str, object]
    ) -> Dict[str, object]:
        payload["generation"] = snapshot.generation
        payload["graph_version"] = snapshot.graph_version
        return payload

    def query_health(self) -> Dict[str, object]:
        snapshot = self.snapshot
        return self._stamp(
            snapshot,
            {
                "status": "ok",
                "graph": self.name,
                "h": snapshot.h,
                "vertices": snapshot.num_vertices,
                "edges": snapshot.num_edges,
                "degeneracy": snapshot.degeneracy,
            },
        )

    def query_stats(self) -> Dict[str, object]:
        snapshot = self.snapshot
        stats = self.engine.stats
        index_stats: Optional[Dict[str, object]] = None
        if self._index is not None:
            index_stats = {
                "path": self._index.path,
                "h_values": list(self._index.h_values),
                "fresh": snapshot.graph_version == self._index_graph_version,
                "hits": self.index_hits,
                "misses": self.index_misses,
            }
        return self._stamp(
            snapshot,
            {
                "graph": self.name,
                "h": snapshot.h,
                "backend": self.engine.backend,
                "requests": dict(self.request_counts),
                "index": index_stats,
                "maintenance": {
                    "updates_applied": stats.updates_applied,
                    "batches": stats.batches,
                    "incremental_repeels": stats.incremental_repeels,
                    "full_recomputes": stats.full_recomputes,
                    "cores_changed": stats.cores_changed,
                    "peak_universe_size": stats.peak_universe_size,
                },
                "resilience": {
                    "pending_updates": self._pending,
                    "max_pending": self.max_pending,
                    "shed_requests": self.shed_requests,
                    "watchdog_trips": self.watchdog_trips,
                    "repeel_budget": self.repeel_budget,
                },
            },
        )

    def query_core_number(
        self, v: Vertex, k: Optional[int] = None, h: Optional[int] = None
    ) -> Dict[str, object]:
        """Point lookup: the core index of ``v`` (optionally membership in k)."""
        snapshot = self.snapshot
        core: Optional[int] = None
        if h is not None and h != snapshot.h:
            # Off-h lookups otherwise cost a full decomposition at that
            # threshold (cached per snapshot); a fresh index answers them
            # with one primary-key probe.
            index = self._index_for(snapshot)
            if index is not None and h in index.h_values:
                core = index.core_number(v, h)  # raises VertexNotFoundError
                self.index_hits += 1
        if core is None:
            core = snapshot.cores_for(h).get(v)
        if core is None:
            core = snapshot.core_number(v)  # raises VertexNotFoundError
        payload: Dict[str, object] = {
            "v": v,
            "h": snapshot.h if h is None else h,
            "core": core,
        }
        if k is not None:
            payload["k"] = k
            payload["in_core"] = core >= k
        return self._stamp(snapshot, payload)

    def query_cores(self, h: Optional[int] = None) -> Dict[str, object]:
        """The full core map of one epoch, with its published checksum."""
        snapshot = self.snapshot
        payload: Dict[str, object] = {
            "h": snapshot.h if h is None else h,
            "cores": [[v, c] for v, c in snapshot.core_items(h)],
        }
        if h is None or h == snapshot.h:
            payload["checksum"] = snapshot.checksum
        return self._stamp(snapshot, payload)

    def query_core_members(self, k: int, h: Optional[int] = None) -> Dict[str, object]:
        snapshot = self.snapshot
        members = snapshot.core_members(k, h)
        return self._stamp(
            snapshot,
            {
                "k": k,
                "h": snapshot.h if h is None else h,
                "size": len(members),
                "vertices": members,
            },
        )

    def query_core_subgraph(self, k: int, h: Optional[int] = None) -> Dict[str, object]:
        snapshot = self.snapshot
        vertices, edges = snapshot.core_subgraph(k, h)
        return self._stamp(
            snapshot,
            {
                "k": k,
                "h": snapshot.h if h is None else h,
                "vertices": vertices,
                "edges": [[u, v] for u, v in edges],
            },
        )

    def query_spectrum(self, v: Vertex, h_values: Sequence[int]) -> Dict[str, object]:
        snapshot = self.snapshot
        index = self._index_for(snapshot)
        if index is not None and all(h in index.h_values for h in h_values):
            persisted = dict(index.spectrum(v))  # raises VertexNotFoundError
            self.index_hits += 1
            return self._stamp(
                snapshot,
                {
                    "v": v,
                    "spectrum": [[h, persisted[h]] for h in h_values],
                },
            )
        return self._stamp(
            snapshot,
            {
                "v": v,
                "spectrum": [[h, c] for h, c in snapshot.spectrum(v, h_values)],
            },
        )

    def query_top_communities(
        self, k: Optional[int] = None, limit: int = 5
    ) -> Dict[str, object]:
        snapshot = self.snapshot
        communities = snapshot.top_communities(k=k, limit=limit)
        return self._stamp(snapshot, {"communities": communities})

    async def run_heavy(self, fn, *args, **kwargs):
        """Run a heavy snapshot-only query off the event loop.

        Heavy analytics (spectra, community scoring, secondary thresholds)
        are pure functions of immutable snapshots, so they can run on the
        reader pool without locks — keeping point lookups on the loop
        latency-flat while an analytics query grinds.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._readers, lambda: fn(*args, **kwargs))

    def count_request(self, kind: str) -> None:
        """Tally one served request (event-loop thread only)."""
        self.request_counts[kind] = self.request_counts.get(kind, 0) + 1

    def publish_final(self) -> CoreSnapshot:
        """Publish one last epoch during graceful shutdown.

        Routed through the writer executor so it serializes behind any
        batch still committing when the drain started — the final published
        epoch therefore reflects every update the service acknowledged.
        No-op (returns the current epoch) once the service is closed.
        """
        if self.closed:
            return self._snapshot
        return self._writer.submit(self._publish).result()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop the writer/reader pools and the engine; idempotent."""
        if self.closed:
            return
        self.closed = True
        self._writer.shutdown(wait=True)
        self._readers.shutdown(wait=True)
        if self._index is not None:
            self._index.close()
        self.engine.close()

    def __enter__(self) -> "CoreService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        snapshot = self.snapshot
        return (
            f"CoreService(graph={self.name!r}, h={snapshot.h}, "
            f"generation={snapshot.generation}, "
            f"|V|={snapshot.num_vertices}, |E|={snapshot.num_edges})"
        )
