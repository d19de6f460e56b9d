"""Shared pieces of the benchmark: statistics, tracing, memory, caching.

Everything here is imported by the runner and by the child processes it
starts (the decomposition worker and the server launcher), so importing it
starts nothing and touches no file.
"""

from __future__ import annotations

import contextvars
import functools
import hashlib
import itertools
import json
import os
import platform
import statistics
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
#: Scratch for one run's files (edge lists, blocks, indexes); removed at exit.
WORK_ROOT = os.path.join(REPO_ROOT, ".perfbench_work")
#: Reference core maps, keyed by the hash of the graph they belong to.
CACHE_DIR = os.path.join(REPO_ROOT, ".perfbench_cache")
#: Span dumps and full run records.
OUT_DIR = os.path.join(REPO_ROOT, ".perfbench_out")


def import_library():
    """Put ``src`` on the path and import the library (exit 2 if absent)."""
    src = os.path.join(REPO_ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"error: cannot import the library from {src}: {error}",
              file=sys.stderr)
        raise SystemExit(2)
    return sys.modules["repro"]


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #
def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0..100), linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


#: Set-ups are repeated for about this long (at least five, at most 50
#: times) and ``setup_s`` is their median: one set-up of the small inputs
#: takes 20 to 400 ms, too little to read once against the machine's noise.
SETUP_BUDGET_S = 1.5


def more_setups(times: Sequence[float]) -> bool:
    return len(times) < 5 or (sum(times) < SETUP_BUDGET_S and len(times) < 50)


# --------------------------------------------------------------------- #
# environment pinning
# --------------------------------------------------------------------- #
def environment() -> Dict[str, object]:
    """What a run's numbers depend on besides the code."""
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        import numba
        numba_version: Optional[str] = numba.__version__
    except ImportError:
        numba_version = None
    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba": numba_version,
        "machine": platform.machine(),
    }


# --------------------------------------------------------------------- #
# memory, read from outside the measured processes
# --------------------------------------------------------------------- #
def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def _children(pid: int) -> List[int]:
    found: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                found.extend(int(part) for part in handle.read().split())
        except (OSError, ValueError):
            pass
    return found


class PeakRSS:
    """Samples the peak resident set of a process tree from ``/proc``.

    Each sample sums ``VmHWM`` (every process's own high-water mark) over
    the processes of the tree alive at that moment; the peak is the largest
    such sum.  Pool workers that come and go between samples therefore
    count only while they coexist, and a process sampled once before it
    exits still contributes its full peak.
    """

    def __init__(self, pid: int, interval: float = 0.05) -> None:
        self.pid = pid
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def sample(self) -> None:
        total = 0
        pending = [self.pid]
        while pending:
            pid = pending.pop()
            total += _status_kb(pid, "VmHWM")
            pending.extend(_children(pid))
        self.peak_kb = max(self.peak_kb, total)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def start(self) -> "PeakRSS":
        self.sample()
        self._thread.start()
        return self

    def stop(self) -> float:
        """Stop sampling; return the peak in MiB."""
        self._stop.set()
        self._thread.join(timeout=5)
        return self.peak_kb / 1024.0


# --------------------------------------------------------------------- #
# reference cache
# --------------------------------------------------------------------- #
def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:32]


def cached_reference(key: str, compute: Callable[[], object]) -> object:
    """JSON value for ``key``, computed once and kept under ``CACHE_DIR``."""
    path = os.path.join(CACHE_DIR, key + ".json")
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        pass
    value = compute()
    os.makedirs(CACHE_DIR, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as handle:
        json.dump(value, handle)
    os.replace(tmp, path)
    return value


# --------------------------------------------------------------------- #
# tracing
# --------------------------------------------------------------------- #
class Tracer:
    """In-memory spans recorded around calls into the library.

    A span is ``(trace_id, span_id, parent_id, name, start, end)`` with
    ``perf_counter`` times.  A span opened with no enclosing span starts a
    new trace; nested spans inherit the trace id, so every span of one
    decomposition or one request shares an identifier.  Recording happens
    only while :attr:`enabled` is set, which lets one run alternate traced
    and untraced work to measure the tracing overhead.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None)
        self._lock = threading.Lock()
        self._patched: List[tuple] = []

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, owner, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` by a spanned version (undone by :meth:`restore`)."""
        original = getattr(owner, attribute)
        own = attribute in vars(owner)
        tracer = self

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            with tracer.span(name):
                return original(*args, **kwargs)

        self._patched.append((owner, attribute, original if own else None))
        setattr(owner, attribute, spanned)

    def restore(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    def durations(self, name: str) -> List[float]:
        return [end - start for _t, _s, _p, n, start, end in self.spans
                if n == name]

    def self_times(self, name: str) -> List[float]:
        """Each ``name`` span's duration minus the time its children cover."""
        children: Dict[int, List[tuple]] = {}
        for span in self.spans:
            children.setdefault(span[2], []).append(span)
        result = []
        for trace_id, span_id, _parent, span_name, start, end in self.spans:
            if span_name != name:
                continue
            covered = 0.0
            cursor = start
            for child in sorted(children.get(span_id, ()), key=lambda s: s[4]):
                lo, hi = max(child[4], cursor), min(child[5], end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result.append(end - start - covered)
        return result

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"fields": ["trace", "span", "parent", "name", "start",
                                  "end"], "spans": self.spans}, handle)


class _Span:
    __slots__ = ("tracer", "name", "token", "ids", "start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        parent = tracer._current.get()
        span_id = next(tracer._ids)
        trace_id = parent[0] if parent is not None else span_id
        self.ids = (trace_id, span_id, parent[1] if parent is not None else 0)
        self.token = tracer._current.set((trace_id, span_id))
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        tracer = self.tracer
        tracer._current.reset(self.token)
        with tracer._lock:
            tracer.spans.append((*self.ids, self.name, self.start, end))
