"""Persistent, supervised process pool over a shared-memory CSR export.

:class:`SharedMemoryExecutor` is the one process-dispatch path of the
parallel subsystem: it owns one :class:`~concurrent.futures.ProcessPoolExecutor`
(spawned lazily, reused across bulk passes) and at most one live
:class:`~repro.parallel.shm.SharedCSRExport` at a time.  The division of
labor:

* :meth:`ensure_export` — version-stamped (re-)export: whenever the engine's
  CSR snapshot object changes (initial build, or a
  :meth:`~repro.core.backends.CSREngine.refresh` after graph mutation), the
  generation counter is bumped, a fresh block is exported and the previous
  one unlinked.  Workers notice the new name in the task descriptor and
  re-attach; stale attachments are dropped.
* :meth:`bulk_h_degrees` — one synchronous fan-out: write the alive region,
  cut the targets into degree-weighted chunks
  (:func:`~repro.core.parallel.chunk_plan`), submit ``(chunk, h,
  generation)`` descriptors and drive every chunk to completion.
* :meth:`close` — teardown: shut the pool down and unlink the export.  Any
  error *or* ``KeyboardInterrupt`` inside a dispatch triggers the same
  teardown before the exception propagates, and a :mod:`weakref` finalizer
  backstops interpreter exit, so ``/dev/shm`` segments are never leaked.

Every dispatch is supervised, with budgets from
:class:`~repro.resilience.policies.RetryPolicy`:

* a **transient worker exception** (an ``OSError`` such as a lost
  shared-memory attach race, or an injected fault) re-dispatches just that
  chunk, with exponential backoff + jitter, up to ``max_retries`` times —
  any other exception is a deterministic application error and propagates
  unchanged on the first failure;
* a **broken pool** (worker killed abruptly — every pending future is lost)
  rebuilds the pool against the *same* shared export and re-dispatches only
  the unfinished chunks, up to ``max_pool_rebuilds`` times;
* a **stalled round** (per-chunk deadline × queue depth exceeded) is treated
  like a broken pool: the stragglers are abandoned to the old pool and their
  chunks re-dispatched on a fresh one.

When the budgets are exhausted the dispatch raises
:class:`~repro.errors.WorkerPoolError` (or
:class:`~repro.errors.DeadlineExceededError` when deadlines were the cause),
which the engine's degradation ladder catches to fall back to the thread and
finally the serial executor — a decomposition always completes.

Determinism: chunk results are merged in chunk-plan order, and worker
counters reach the caller's counters only when the whole dispatch succeeds —
so a pass that fails halfway and is re-run by the ladder never
double-counts, and a recovered run is bit-identical (results *and*
counters, minus the ``resilience.*`` cost tallies) to a fault-free one.

``fork`` (the platform default on Linux) and ``spawn`` start methods both
work and produce identical results; ``spawn`` pays a per-worker interpreter
start-up plus re-import, ``fork`` only a copy-on-write fork.
"""

from __future__ import annotations

import math
import multiprocessing
import random
import time
import weakref
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures import as_completed
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import (
    DeadlineExceededError,
    FaultInjectedError,
    ParameterError,
    WorkerPoolError,
)
from repro.graph.csr import CSRGraph
from repro.instrumentation import Counters, NULL_COUNTERS
from repro.parallel.shm import FileCSRExport, SharedCSRExport
from repro.parallel.worker import run_chunk
from repro.core.parallel import chunk_plan
from repro.resilience import faults
from repro.resilience.policies import (
    ResilienceReport,
    RetryPolicy,
    chunk_deadline_from_env,
)
from repro.traversal.array_bfs import AliveMask

#: How many chunks each worker gets on average.  Oversubscription lets the
#: pool balance skewed degree distributions dynamically: a worker that drew
#: a heavy chunk keeps crunching while the others drain the queue.
DEFAULT_OVERSUBSCRIPTION = 4

#: One finished chunk as a worker returns it: ``(index, degree)`` pairs and
#: the task's private counters.
ChunkOutcome = Tuple[List[Tuple[int, int]], Counters]


def _shutdown_pool(pool: Any) -> None:
    """Shut a process pool down, tolerating one that already crashed.

    A pool whose workers died abruptly (``BrokenProcessPool``) can raise
    from ``shutdown()`` while flushing its management pipes; swallowing
    that here is what guarantees the shm export below it still gets
    unlinked — a crashed pool must never leak the shared block.
    """
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass


def _teardown(state: Dict[str, Any]) -> None:
    """Shut the pool down and unlink the export (idempotent, finalizer-safe)."""
    pool = state.get("pool")
    state["pool"] = None
    if pool is not None:
        _shutdown_pool(pool)
    export = state.get("export")
    state["export"] = None
    if export is not None:
        export.close()


class SharedMemoryExecutor:
    """Supervised persistent worker pool attached to a shared-memory block.

    ``report`` receives the recovery tally (the engine passes its own
    :class:`ResilienceReport`); retry budgets and the per-chunk deadline
    come from the ``KH_CORE_*`` environment (see ``docs/operations.md``).
    """

    def __init__(self, num_workers: int,
                 start_method: Optional[str] = None,
                 report: Optional[ResilienceReport] = None) -> None:
        if num_workers < 1:
            raise ParameterError("num_workers must be a positive integer")
        self.num_workers = num_workers
        self.start_method = start_method
        self._mp_context = multiprocessing.get_context(start_method)
        self.retry = RetryPolicy.from_env()
        self.chunk_deadline = chunk_deadline_from_env()
        self.report = report if report is not None else ResilienceReport()
        self._rng = random.Random(self.retry.seed)
        self._dispatch_seq = 0
        # Pool and export live in a plain dict shared with the finalizer so
        # the finalizer never holds (and never needs) a reference to self.
        self._state: Dict[str, Any] = {"pool": None, "export": None}
        self._exported_for: Optional[CSRGraph] = None
        self._generation = 0
        self._alive_stamp = 0
        self._finalizer = weakref.finalize(self, _teardown, self._state)

    # -- lifecycle ------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        """True once :meth:`close` (or the error-path teardown) has run."""
        return not self._finalizer.alive

    @property
    def shm_name(self) -> Optional[str]:
        """Name of the live shared block (None before export / after close)."""
        export = self._state["export"]
        return export.name if export is not None else None

    def invalidate_export(self) -> None:
        """Unlink the current export; the next dispatch re-exports.

        O(1) plus the unlink — used by :meth:`CSREngine.refresh
        <repro.core.backends.CSREngine.refresh>` so a stream of graph
        mutations does not pay an O(n + m) array copy per refresh when no
        process dispatch happens in between.
        """
        export = self._state["export"]
        self._state["export"] = None
        self._exported_for = None
        if export is not None:
            export.close()

    def ensure_export(self, csr: CSRGraph) -> None:
        """Export ``csr`` unless it is already the live export.

        Identity-keyed: engines build a *new* ``CSRGraph`` object on every
        refresh, so object identity doubles as a version stamp.  The old
        block is unlinked only after the new one exists, and workers switch
        atomically because every task names its block explicitly.

        The export style follows the snapshot's storage tier: an in-RAM
        snapshot is copied into a shared-memory block
        (:class:`SharedCSRExport`); an mmap-backed snapshot already lives in
        a block file, so only its small alive mask gets a segment and
        workers map the file directly (:class:`FileCSRExport`).
        """
        if self.closed:
            raise ParameterError("the shared-memory executor is closed")
        if self._exported_for is csr:
            return
        previous = self._state["export"]
        self._generation += 1
        if csr.storage_kind == "mmap":
            export: Any = FileCSRExport(csr, self._generation)
        else:
            export = SharedCSRExport(csr, self._generation)
        self._state["export"] = export
        self._exported_for = csr
        if previous is not None:
            previous.close()

    def close(self) -> None:
        """Shut down the pool and unlink the export (idempotent)."""
        self._exported_for = None
        if self._finalizer.alive:
            self._finalizer()

    def __enter__(self) -> "SharedMemoryExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- dispatch ------------------------------------------------------- #
    def _pool(self) -> ProcessPoolExecutor:
        pool = self._state["pool"]
        if pool is None:
            pool = ProcessPoolExecutor(max_workers=self.num_workers,
                                       mp_context=self._mp_context)
            self._state["pool"] = pool
        return pool

    def _rebuild_pool(self) -> None:
        """Discard the (typically broken) process pool, keeping the export.

        The next submit lazily spawns a fresh pool against the *same*
        shared block, so only the unfinished chunks are re-dispatched and
        no re-export is paid.
        """
        pool = self._state["pool"]
        self._state["pool"] = None
        if pool is not None:
            _shutdown_pool(pool)

    def bulk_h_degrees(self, csr: CSRGraph, h: int,
                       targets: Iterable[int],
                       alive: Optional[AliveMask] = None,
                       counters: Counters = NULL_COUNTERS,
                       weights: Optional[Sequence[int]] = None,
                       engine_kind: str = "csr"
                       ) -> Dict[int, int]:
        """h-degree of every index in ``targets``, fanned over the pool.

        ``weights`` (typically the plain degree of each target) steers the
        chunk planner toward balanced per-chunk work on skewed graphs.  The
        dispatch is synchronous: the alive region is written before any task
        is submitted and no task outlives the call, so workers always read a
        consistent mask.  Recoverable failures are retried as described in
        the module docstring; anything that escapes — an application error,
        an exhausted budget, ``KeyboardInterrupt`` — tears the executor down
        (pool shutdown + shm unlink) before propagating.

        ``engine_kind`` rides along in each task descriptor and selects the
        worker-side traversal kernel (``"csr"`` interpreted loop /
        ``"numpy"`` vectorized block kernel over ``np.frombuffer`` views of
        the same shared block) — see :func:`repro.parallel.worker.run_chunk`.
        """
        indices = list(targets)
        if not indices:
            return {}
        self._dispatch_seq += 1
        scope = f"dispatch-{self._dispatch_seq}"
        try:
            self.ensure_export(csr)
            export = self._state["export"]
            use_alive = alive is not None
            if use_alive:
                export.write_alive(bytes(alive.mask))
                self._alive_stamp += 1
            layout, alive_stamp = export.layout(), self._alive_stamp

            def submit(chunk: Sequence[int], fault: Optional[tuple]) -> Any:
                return self._pool().submit(run_chunk, layout, chunk, h,
                                           use_alive, alive_stamp,
                                           engine_kind, fault)

            chunks = chunk_plan(indices,
                                self.num_workers * DEFAULT_OVERSUBSCRIPTION,
                                weights=weights)
            outcomes = self._run_chunks(chunks, submit, scope, counters)
        except BaseException:
            # Teardown before propagating so no /dev/shm segment outlives a
            # failed dispatch (worker exception or KeyboardInterrupt alike).
            self.close()
            raise
        merged: Dict[int, int] = {}
        for pairs, local in outcomes:
            merged.update(pairs)
            if counters is not NULL_COUNTERS:
                counters.merge(local)
        return merged

    # -- supervision ---------------------------------------------------- #
    def _note(self, counters: Counters, event: str, amount: int = 1) -> None:
        """Record a recovery event in the report and the run's counters."""
        if amount <= 0:
            return
        self.report.note(event, amount)
        if counters is not NULL_COUNTERS:
            counters.bump(f"resilience.{event}", amount)

    def _chunk_fault(self, scope: str) -> Optional[Tuple[Any, ...]]:
        """Parent-side fault probe for one chunk submission.

        Kill/stall schedules are evaluated here — in the parent, on one
        deterministic counter — rather than inside workers, where every
        freshly respawned worker would restart the schedule and re-kill
        forever.  ``scope`` is the dispatch generation, so ``once``
        schedules fire once *per dispatch*.
        """
        plan = faults.active_plan()
        if plan is None:
            return None
        if plan.should_fire("worker.kill", scope=scope):
            self.report.note("faults_injected")
            return ("kill",)
        if plan.should_fire("worker.stall", scope=scope):
            self.report.note("faults_injected")
            return ("stall", plan.stall_seconds)
        return None

    def _round_timeout(self, queued: int) -> Optional[float]:
        """Deadline for one wait round: per-chunk budget × queue depth."""
        if self.chunk_deadline is None:
            return None
        waves = max(1, math.ceil(queued / self.num_workers))
        return self.chunk_deadline * waves

    def _run_chunks(self, chunks: Sequence[Sequence[int]],
                    submit: Callable[[Sequence[int], Optional[tuple]], Any],
                    scope: str, counters: Counters) -> List[ChunkOutcome]:
        """Drive every chunk to completion through retries and rebuilds.

        Returns one outcome per chunk, in chunk-plan order.
        """
        pending = set(range(len(chunks)))
        results: List[Any] = [None] * len(chunks)
        attempts = [0] * len(chunks)
        rebuilds = 0
        deadline_was_cause = False
        while pending:
            futures: Dict[Any, int] = {}
            broken = False
            try:
                for chunk_id in sorted(pending):
                    future = submit(chunks[chunk_id], self._chunk_fault(scope))
                    futures[future] = chunk_id
            except (BrokenExecutor, RuntimeError):
                # Pool already broken (or shut down) at submit time.
                broken = True
            timed_out = False
            if futures and not broken:
                broken, timed_out = self._collect_round(
                    futures, pending, results, attempts, counters)
            if not pending:
                break
            if not broken and not timed_out:
                # Healthy pool, chunk-level retries pending: loop around
                # and re-submit them.
                continue
            # The pool is gone (abrupt worker death) or the round blew its
            # deadline: every future still in flight is wasted work.
            deadline_was_cause = deadline_was_cause or timed_out
            rebuilds += 1
            self._note(counters, "pool_rebuilds")
            self._note(counters, "wasted_chunks", len(futures))
            if timed_out:
                self._note(counters, "deadline_hits")
            if rebuilds > self.retry.max_pool_rebuilds:
                budget = self.chunk_deadline or 0.0
                if deadline_was_cause and budget:
                    raise DeadlineExceededError(
                        f"bulk dispatch exceeded its {budget:.3g}s per-chunk "
                        f"deadline after {rebuilds} pool rebuilds", budget)
                raise WorkerPoolError(
                    f"process pool broke {rebuilds} times during one "
                    f"dispatch (budget: {self.retry.max_pool_rebuilds} "
                    f"rebuilds); degrading")
            self._rebuild_pool()
            time.sleep(self.retry.delay(rebuilds, self._rng))
        return results

    def _collect_round(self, futures: Dict[Any, int], pending: set,
                       results: List[Any], attempts: List[int],
                       counters: Counters) -> Tuple[bool, bool]:
        """Consume one round of futures; returns ``(broken, timed_out)``."""
        timeout = self._round_timeout(len(futures))
        try:
            for future in as_completed(list(futures), timeout=timeout):
                chunk_id = futures.pop(future)
                try:
                    results[chunk_id] = future.result()
                except BrokenExecutor:
                    futures[future] = chunk_id
                    return True, False
                except Exception as error:
                    if not isinstance(error, (OSError, FaultInjectedError)):
                        # A deterministic application error (bad target
                        # index, corrupt input): retrying cannot help, and
                        # callers expect the original exception type.
                        raise
                    attempts[chunk_id] += 1
                    self._note(counters, "retries")
                    if attempts[chunk_id] > self.retry.max_retries:
                        raise WorkerPoolError(
                            f"chunk {chunk_id} failed "
                            f"{attempts[chunk_id]} times (budget: "
                            f"{self.retry.max_retries} retries): {error}"
                        ) from error
                    time.sleep(
                        self.retry.delay(attempts[chunk_id], self._rng))
                else:
                    pending.discard(chunk_id)
        except FuturesTimeout:
            return False, True
        return False, False
