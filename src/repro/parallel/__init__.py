"""True multi-core execution for the bulk h-degree passes (§4.6).

The paper parallelizes the bulk h-degree computations; on CPython a thread
pool cannot deliver that for pure-Python BFS (the GIL serializes the
workers), so this subpackage provides the *process* backend: CSR adjacency
arrays are exported once into :mod:`multiprocessing.shared_memory`, a
persistent pool of worker processes attaches to the block, and only tiny
``(chunk, h, generation)`` descriptors cross the pipe per task.

Layering
--------
* :mod:`repro.parallel.shm` — block layout, parent-side exports
  (:class:`SharedCSRExport` for in-RAM snapshots, :class:`FileCSRExport`
  for mmap-backed block files — workers then map the file zero-copy and
  only the alive mask rides in shared memory), worker-side view
  (:class:`SharedCSRView`).
* :mod:`repro.parallel.worker` — the per-process task entry point
  (:func:`run_chunk`) with its attach/alive caches.
* :mod:`repro.parallel.pool` — :class:`SharedMemoryExecutor`: pool
  lifecycle, version-stamped re-export, supervised chunk dispatch (retries,
  pool rebuilds, round deadlines), teardown.  It is the only place a
  worker process pool is built.

Consumers select it through the ``executor="process"`` argument of the
decomposition entry points (see :func:`repro.core.core_decomposition` and
the ``kh-core --executor process --workers N`` CLI flags); the executor
choice and the degradation ladder live in
:meth:`repro.core.backends.CSREngine.bulk_h_degrees`.
"""

from repro.core.parallel import EXECUTORS
from repro.parallel.pool import DEFAULT_OVERSUBSCRIPTION, SharedMemoryExecutor
from repro.parallel.shm import FileCSRExport, SharedCSRExport, SharedCSRView
from repro.parallel.worker import run_chunk

__all__ = [
    "DEFAULT_OVERSUBSCRIPTION",
    "EXECUTORS",
    "FileCSRExport",
    "SharedCSRExport",
    "SharedCSRView",
    "SharedMemoryExecutor",
    "run_chunk",
]
