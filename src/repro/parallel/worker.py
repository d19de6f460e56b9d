"""Process-pool worker for the shared-memory bulk h-degree pass.

:func:`run_chunk` is the only function the parent ever submits.  It is a
module-level callable (picklable by qualified name under both ``fork`` and
``spawn`` start methods) and keeps a small per-process cache so that the
expensive steps — attaching to the shared block and (re)installing the alive
mask into the BFS scratch — happen once per export generation / alive stamp
rather than once per task.

The task descriptor is deliberately tiny: ``(layout, chunk, h, use_alive,
alive_stamp, engine_kind)`` where ``layout`` is the attach descriptor
(:data:`~repro.parallel.shm.SharedCSRLayout` — an shm block name or a block
file path plus an alive-segment name) and ``chunk`` is a list of vertex
indices.  No graph data ever crosses the pipe.

``engine_kind`` selects the traversal kernel the worker runs over the
shared arrays:

* ``"csr"`` — the interpreted :class:`~repro.traversal.array_bfs.ArrayBFS`
  over ``memoryview('q')`` casts (the historical path);
* ``"numpy"`` — the many-sources block kernel
  (:meth:`~repro.traversal.numpy_bfs.NumpyBulk.bulk`) over zero-copy
  ``np.frombuffer`` views of the very same block.  If NumPy turns out to be
  unimportable in the worker (a mixed deployment), the worker silently
  falls back to the interpreted kernel — results are identical either way.
"""

from __future__ import annotations

import atexit
import os
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import FaultInjectedError
from repro.instrumentation import Counters
from repro.parallel.shm import SharedCSRLayout, SharedCSRView
from repro.traversal.array_bfs import AliveMask, ArrayBFS

#: Per-process cache: the attached view, its BFS scratch (keyed also by the
#: engine kind that built it), and the alive mask installed for the current
#: ``alive_stamp``.
_STATE: Dict[str, Any] = {
    "key": None,
    # "requested" is the engine_kind of the task that built this attachment
    # (the cache key); "kind" is what _attach actually resolved it to — they
    # differ only when a NumPy-less worker downgraded a "numpy" request, and
    # keying the cache on the *request* keeps that downgrade from forcing a
    # detach/attach cycle on every subsequent task.
    "requested": None,
    "kind": None,
    "view": None,
    "bfs": None,
    "alive_stamp": None,
    "mask": None,
}


def _detach() -> None:
    """Drop the cached attachment (called when the export generation moves).

    The kernel is dropped *before* the view is closed: the NumPy kernel
    holds ``np.frombuffer`` views that pin the shared block's memoryviews,
    and releasing a pinned memoryview raises ``BufferError``.
    """
    view = _STATE["view"]
    _STATE.update(key=None, requested=None, kind=None, view=None, bfs=None,
                  alive_stamp=None, mask=None)
    if view is not None:
        view.close()


# Release the cached memoryview casts before interpreter teardown: a worker
# exiting with them alive would hit ``BufferError: cannot close exported
# pointers exist`` inside SharedMemory.__del__.
atexit.register(_detach)


def _layout_key(layout: SharedCSRLayout) -> tuple:
    """Identity of one export: kind, block name/path, generation.

    The generation matters for file attachments — a re-export keeps the
    same block path but allocates a fresh alive segment, so a stale cached
    attachment must be dropped.
    """
    return (layout[0], layout[1], layout[4])


def _execute_fault(fault: Tuple[Any, ...]) -> None:
    """Act on an injected-fault directive shipped in the task descriptor.

    Directives are decided *parent-side* (one deterministic schedule, not
    one per respawned worker) and only simulate crashes here: ``kill``
    dies abruptly mid-task exactly like a segfault or OOM kill would,
    ``stall`` sleeps past the supervisor's chunk deadline first and then
    completes normally.
    """
    kind = fault[0]
    if kind == "kill":
        # os._exit skips atexit/finally — the parent sees the same broken
        # pipe a SIGKILLed worker produces, breaking the whole pool.
        os._exit(1)
    elif kind == "stall":
        time.sleep(float(fault[1]))


def _attach(layout: SharedCSRLayout, engine_kind: str) -> None:
    _detach()
    from repro.resilience.faults import should_fire

    if should_fire("shm.attach_fail"):
        # Fires before the view exists, so nothing is half-attached; the
        # probe counter has advanced, so the supervised retry succeeds.
        raise FaultInjectedError("shm.attach_fail",
                                 "simulated shared-memory attach failure")
    view = SharedCSRView(layout)
    kind = "csr"
    bfs: Any = None
    if engine_kind == "numpy":
        try:
            from repro.traversal.numpy_bfs import NumpyBulk

            indptr, adjacency, _ = view.numpy_views()
            bfs = NumpyBulk.from_arrays(indptr, adjacency)
            kind = "numpy"
        except ImportError:
            pass  # a NumPy-less worker runs the interpreted kernel
    if bfs is None:
        bfs = ArrayBFS(view)
    _STATE.update(key=_layout_key(layout), requested=engine_kind, kind=kind,
                  view=view, bfs=bfs)


def run_chunk(layout: SharedCSRLayout, chunk: List[int], h: int,
              use_alive: bool, alive_stamp: int,
              engine_kind: str = "csr",
              fault: Optional[Tuple[Any, ...]] = None
              ) -> Tuple[List[Tuple[int, int]], Counters]:
    """h-degree of every index in ``chunk`` within the shared snapshot.

    Returns ``(pairs, counters)`` where ``pairs`` is ``[(index, h-degree)]``
    and ``counters`` is this task's private instrumentation, merged by the
    parent so the reported totals are identical to a serial run.

    ``fault`` is a parent-decided injection directive (``("kill",)`` /
    ``("stall", seconds)``) used only by the chaos-test harness.
    """
    if fault is not None:
        _execute_fault(fault)
    if (_STATE["key"] != _layout_key(layout)
            or _STATE["requested"] != engine_kind):
        _attach(layout, engine_kind)
    local = Counters()

    if _STATE["kind"] == "numpy":
        # Many-sources block kernel straight over the shared arrays.  The
        # alive region is read per call (a frontier filter), so no
        # per-stamp mask reinstall is needed on this path.
        view: SharedCSRView = _STATE["view"]
        alive_view = view.numpy_views()[2] if use_alive else None
        degrees = _STATE["bfs"].bulk(chunk, h, alive_view, local)
        local.count_hdegrees(len(chunk))
        return list(zip(chunk, degrees.tolist())), local

    mask: Optional[AliveMask] = None
    if use_alive:
        if _STATE["alive_stamp"] != alive_stamp:
            region = _STATE["view"].alive_region
            # A fresh AliveMask object per stamp forces ArrayBFS to rebuild
            # its sentinel-folded visit marks from the (rewritten) shared
            # region; reusing the old object would skip the reinstall and
            # traverse a stale alive set.
            _STATE["mask"] = AliveMask(region, bytes(region).count(1))
            _STATE["alive_stamp"] = alive_stamp
        mask = _STATE["mask"]

    bfs: ArrayBFS = _STATE["bfs"]
    run = bfs.run
    pairs: List[Tuple[int, int]] = []
    append = pairs.append
    for index in chunk:
        # hook=False: this process never discards from the mask, so the
        # scratch does not need sentinel upkeep hooks.
        append((index, run(index, h, mask, local, hook=False)))
        local.count_hdegree()
    return pairs, local
