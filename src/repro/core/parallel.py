"""Parallel h-degree computation (§4.6 of the paper): scheduling layer.

The paper parallelizes the bulk h-degree computations — the initial h-degree
pass and the per-removal neighbor updates — by handing disjoint batches of
h-bounded BFS traversals to a pool of workers.  This module is the
scheduler-agnostic dispatch for that fan-out:

* ``executor="serial"`` — one inline batch (the reference path).
* ``executor="thread"`` — a :class:`~concurrent.futures.ThreadPoolExecutor`.
  On CPython the GIL serializes pure-Python BFS, so this path is correct but
  does not scale; it exists for the paper-faithful structure and for
  workloads that release the GIL.
* ``executor="process"`` — real cores, through the shared-memory pool in
  :mod:`repro.parallel` (CSR arrays exported once, persistent supervised
  worker pool, no graph pickling per task), reached via
  :meth:`repro.core.backends.CSREngine.bulk_h_degrees`.

:func:`map_batches` is the in-process fan-out the serial and thread
executors share; it never starts processes.

Chunking is exact and optionally weight-balanced (:func:`chunk_plan`): with
per-item weights (typically vertex degrees) chunks are packed
largest-first onto the currently lightest chunk, which keeps skewed degree
distributions from serializing the pass behind one heavy chunk.
"""

from __future__ import annotations

import heapq
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import ParameterError
from repro.graph.graph import Graph, Vertex
from repro.instrumentation import Counters, NULL_COUNTERS
from repro.runtime.context import ExecutionContext

#: Executor names accepted by the decomposition entry points.
EXECUTORS = ("serial", "thread", "process")


def _validate_executor(executor: str) -> None:
    if executor not in EXECUTORS:
        raise ParameterError(
            f"unknown executor {executor!r}; expected one of {EXECUTORS}"
        )


def _chunks(items: Sequence[Vertex], num_chunks: int) -> List[Sequence[Vertex]]:
    """Split ``items`` into exactly ``min(num_chunks, len(items))`` chunks.

    Chunks are contiguous, non-empty and their sizes differ by at most one.
    (An earlier version produced *more* than ``num_chunks`` chunks whenever
    ``len(items)`` was not divisible — harmless for threads, but every extra
    chunk is a round-trip on the process pool.)  A single chunk — possibly
    empty — is returned when ``num_chunks <= 1`` or there is at most one
    item, preserving the historical contract of :func:`map_batches`.
    """
    n = len(items)
    if num_chunks <= 1 or n <= 1:
        return [items]
    num_chunks = min(num_chunks, n)
    base, extra = divmod(n, num_chunks)
    chunks: List[Sequence[Vertex]] = []
    start = 0
    for index in range(num_chunks):
        size = base + (1 if index < extra else 0)
        chunks.append(items[start:start + size])
        start += size
    return chunks


def chunk_plan(items: Sequence, num_chunks: int,
               weights: Optional[Sequence[int]] = None) -> List[Sequence]:
    """Cut ``items`` into at most ``num_chunks`` balanced, non-empty chunks.

    Without ``weights`` this is the exact contiguous split of
    :func:`_chunks`.  With ``weights`` (``weights[i]`` belongs to
    ``items[i]``; typically the degree of the vertex, a cheap proxy for its
    h-BFS cost) items are assigned largest-first to the currently lightest
    chunk (LPT scheduling), so a handful of hubs cannot serialize a
    process-pool dispatch behind one overweight chunk.
    """
    n = len(items)
    if n == 0:
        return []
    if weights is None:
        return [chunk for chunk in _chunks(items, num_chunks) if len(chunk)]
    if len(weights) != n:
        raise ParameterError(
            f"chunk_plan got {n} items but {len(weights)} weights"
        )
    num_chunks = max(1, min(num_chunks, n))
    if num_chunks == 1:
        return [list(items)]
    chunks: List[List] = [[] for _ in range(num_chunks)]
    # (current load, chunk index) min-heap; ties broken by chunk index.
    heap: List[Tuple[int, int]] = [(0, index) for index in range(num_chunks)]
    order = sorted(range(n), key=lambda i: weights[i], reverse=True)
    for i in order:
        load, index = heapq.heappop(heap)
        chunks[index].append(items[i])
        heapq.heappush(heap, (load + weights[i], index))
    return [chunk for chunk in chunks if chunk]


def map_batches(targets: Sequence, num_workers: int, worker,
                counters: Counters = NULL_COUNTERS) -> Dict:
    """Fan ``targets`` out over a thread pool and merge the per-batch dicts.

    ``worker(batch, local_counters)`` must return a dict for its batch and
    record instrumentation only into its private ``local_counters``; the
    locals are merged into ``counters`` after all workers finish, so the
    reported totals are identical to a sequential run.  With one worker (or
    fewer than two targets) the single batch runs inline.
    """
    if num_workers <= 1 or len(targets) < 2:
        local = Counters()
        merged = dict(worker(targets, local))
        if counters is not NULL_COUNTERS:
            counters.merge(local)
        return merged

    batches = chunk_plan(targets, num_workers)
    merged = {}
    local_counters = [Counters() for _ in batches]
    with ThreadPoolExecutor(max_workers=num_workers) as pool:
        futures = [
            pool.submit(worker, batch, local)
            for batch, local in zip(batches, local_counters)
        ]
        for future in futures:
            merged.update(future.result())
    if counters is not NULL_COUNTERS:
        for local in local_counters:
            counters.merge(local)
    return merged


def compute_h_degrees(graph: Graph, h: int,
                      vertices: Optional[Iterable[Vertex]] = None,
                      alive: Optional[Set[Vertex]] = None,
                      counters: Counters = NULL_COUNTERS,
                      backend: object = "dict",
                      executor: str = "thread",
                      num_workers: Optional[int] = None) -> Dict[Vertex, int]:
    """Compute the h-degree of every vertex in ``vertices`` (default: all alive).

    A label-space wrapper over the engine's bulk pass: ``vertices`` /
    ``alive`` and the result are keyed by the original vertices whatever
    ``backend`` resolves to.  With ``num_workers > 1`` the per-vertex
    h-bounded BFS traversals are distributed over the selected ``executor``
    (see :data:`EXECUTORS`); each worker accumulates into a private counter
    object that is merged into ``counters`` once all workers finish, so the
    reported totals are identical to the sequential run.

    ``executor="process"`` always runs on a CSR snapshot (any hashable
    vertex type works — only the shared flat arrays can cross the process
    boundary without pickling the graph).  An engine resolved here from a
    name, with its snapshot and worker pool, is torn down before returning;
    a pre-built engine passed as ``backend`` is left open.  Consequence:
    each name-resolved process call pays a full pool spin-up — callers with
    repeated bulk passes should pass an engine (or use an
    :class:`~repro.runtime.ExecutionContext`) to amortize it.
    """
    with ExecutionContext(graph, backend=backend, executor=executor,
                          num_workers=num_workers) as ctx:
        engine = ctx.engine
        targets = None if vertices is None else \
            [engine.handle_of(v) for v in vertices]
        alive_set = None if alive is None else \
            engine.alive_subset(engine.handle_of(v) for v in alive)
        degrees = ctx.bulk_h_degrees(h, targets=targets, alive=alive_set,
                                     counters=counters)
        return engine.to_labels(degrees)
