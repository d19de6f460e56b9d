"""Peel-state structures: the mutable bookkeeping behind every peeling loop.

Every peeling algorithm in the repository (h-BZ, the shared ``core_decomp``
kernel of h-LB / h-LB+UB, the upper-bound peeling of Algorithm 5, and the
dynamic engine's region re-peel) maintains the same four pieces of state per
queued vertex:

* its current **bucket key** (a lower bound on, or the exact value of, its
  current h-degree),
* its **stored degree** (exact current h-degree, when known),
* a **lower-bound flag** (``True`` while the bucket key is only a bound and
  the true h-degree has not been computed yet), and
* membership in the queue at all (peeled vertices leave it).

:class:`DictPeelState` and :class:`ArrayPeelState` package the whole bundle
behind one small protocol (:class:`PeelState`) with two interchangeable
layouts:

* :class:`DictPeelState` — hash-based, works for any hashable handle (the
  dict engine's labels).  Buckets are insertion-ordered dicts used as
  ordered sets, popped LIFO.
* :class:`ArrayPeelState` — flat ``array('q')`` / ``bytearray`` state
  indexed by dense integer handles (the CSR engine's vertex indices).
  Buckets are intrusive doubly-linked lists threaded through ``nxt`` /
  ``prv`` arrays: insert, move and pop are a handful of integer stores, no
  hashing anywhere.

Both implementations pop **the most recently inserted vertex** of a bucket
(the array lists push-front and pop-head; the dict buckets ``popitem()``),
so driving them with identical operation sequences yields identical removal
orders — which in turn makes h-degree recomputation counts identical.  The
test suite relies on this to assert that the two layouts are observationally
equivalent, not merely "both correct".

The engine decides the layout: :func:`make_peel_state` picks the array
layout on CSR-family engines and the dict layout otherwise.  The one other
caller that chooses is the dynamic engine's region re-peel
(:func:`repro.dynamic.repeel.repeel_region`), which takes the dict layout
for regions too small to amortize an O(n) array allocation.
"""

from __future__ import annotations

from array import array
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.instrumentation import Counters, NULL_COUNTERS

Handle = Union[int, Hashable]

#: ``key_of`` / linked-list sentinel in :class:`ArrayPeelState`.
_ABSENT = -1


class DictPeelState:
    """Hash-based peel state for arbitrary hashable handles.

    Buckets are insertion-ordered dicts used as ordered sets; ``pop`` removes
    the most recently inserted vertex (``dict.popitem``), mirroring the
    push-front / pop-head discipline of :class:`ArrayPeelState`.
    """

    name = "dict"

    __slots__ = ("_buckets", "_key", "_degree", "_lb", "_counters")

    def __init__(self, counters: Counters = NULL_COUNTERS) -> None:
        self._buckets: Dict[int, Dict[Handle, None]] = {}
        self._key: Dict[Handle, int] = {}
        self._degree: Dict[Handle, int] = {}
        self._lb: Dict[Handle, bool] = {}
        self._counters = counters

    def __len__(self) -> int:
        return len(self._key)

    def __contains__(self, vertex: Handle) -> bool:
        return vertex in self._key

    def insert(self, vertex: Handle, key: int, lb: bool = False) -> None:
        """Queue ``vertex`` at bucket ``key`` (it must not be queued)."""
        if vertex in self._key:
            raise ValueError(f"handle {vertex!r} is already queued")
        if key < 0:
            raise ValueError("bucket keys must be non-negative")
        self._buckets.setdefault(key, {})[vertex] = None
        self._key[vertex] = key
        self._lb[vertex] = lb

    def pop(self, key: int) -> Optional[Handle]:
        """Dequeue and return the newest vertex of bucket ``key`` (or None)."""
        bucket = self._buckets.get(key)
        if not bucket:
            return None
        vertex, _ = bucket.popitem()
        if not bucket:
            del self._buckets[key]
        del self._key[vertex]
        return vertex

    def move_to(self, vertex: Handle, key: int) -> None:
        """Move a queued ``vertex`` to bucket ``key`` (no-op if already there)."""
        current = self._key.get(vertex)
        if current is None:
            raise KeyError(f"handle {vertex!r} is not queued")
        if current == key:
            return
        if key < 0:
            raise ValueError("bucket keys must be non-negative")
        bucket = self._buckets[current]
        del bucket[vertex]
        if not bucket:
            del self._buckets[current]
        self._buckets.setdefault(key, {})[vertex] = None
        self._key[vertex] = key
        self._counters.record_bucket_move()

    def key_of(self, vertex: Handle) -> int:
        """Current bucket key of a queued ``vertex``."""
        return self._key[vertex]

    def degree_of(self, vertex: Handle) -> int:
        """Stored exact h-degree of ``vertex``."""
        return self._degree[vertex]

    def set_degree(self, vertex: Handle, degree: int) -> None:
        self._degree[vertex] = degree

    def decrement(self, vertex: Handle) -> int:
        """Decrease the stored degree by one and return the new value."""
        degree = self._degree[vertex] - 1
        self._degree[vertex] = degree
        return degree

    def is_lb(self, vertex: Handle) -> bool:
        """True while the bucket key of ``vertex`` is only a lower bound."""
        return self._lb.get(vertex, False)

    def set_lb(self, vertex: Handle, flag: bool) -> None:
        self._lb[vertex] = flag

    def fill_exact(self, pairs: Iterable[Tuple[Handle, int]]) -> None:
        """Bulk-insert ``(vertex, degree)`` pairs keyed at their exact degree."""
        degree_map = self._degree
        for vertex, degree in pairs:
            self.insert(vertex, degree)
            degree_map[vertex] = degree

    def fill_lb(self, pairs: Iterable[Tuple[Handle, int]]) -> None:
        """Bulk-insert ``(vertex, bound)`` pairs keyed at a lower bound."""
        for vertex, bound in pairs:
            self.insert(vertex, bound, lb=True)


class ArrayPeelState:
    """Flat-array peel state for dense integer handles (the CSR engine).

    Buckets are intrusive doubly-linked lists over pre-allocated ``array('q')``
    storage: ``heads[key]`` is the newest queued handle of bucket ``key``
    (push-front, pop-head), ``nxt`` / ``prv`` thread the list through the
    handle space, ``key_of[v]`` doubles as the queued test (-1 = not queued),
    ``degrees[v]`` is the stored exact h-degree and ``lb[v]`` the
    lower-bound flag.  Every operation is O(1) with no hashing.

    The public array attributes are deliberately exposed: the specialized
    CSR peel kernels (:mod:`repro.core.peeling`, :mod:`repro.core.bounds`)
    bind them to locals and update them directly in their inner loops.
    """

    name = "array"

    __slots__ = ("heads", "nxt", "prv", "key_of_", "degrees", "lb",
                 "_count", "_counters")

    def __init__(self, num_handles: int,
                 counters: Counters = NULL_COUNTERS) -> None:
        n = num_handles
        # Bucket keys are h-degrees / core bounds, hence <= n in every
        # caller; pop()/insert() still guard and grow for safety.
        self.heads = array("q", [_ABSENT]) * (n + 1)
        self.nxt = array("q", [_ABSENT]) * n
        self.prv = array("q", [_ABSENT]) * n
        self.key_of_ = array("q", [_ABSENT]) * n
        self.degrees = array("q", bytes(8 * n))
        self.lb = bytearray(n)
        self._count = 0
        self._counters = counters

    def __len__(self) -> int:
        return self._count

    def __contains__(self, vertex: int) -> bool:
        return self.key_of_[vertex] != _ABSENT

    def _ensure_key(self, key: int) -> None:
        heads = self.heads
        if key >= len(heads):
            heads.extend([_ABSENT] * (key + 1 - len(heads)))

    def insert(self, vertex: int, key: int, lb: bool = False) -> None:
        """Queue ``vertex`` at bucket ``key`` (it must not be queued)."""
        if self.key_of_[vertex] != _ABSENT:
            raise ValueError(f"handle {vertex!r} is already queued")
        if key < 0:
            raise ValueError("bucket keys must be non-negative")
        self._ensure_key(key)
        head = self.heads[key]
        self.nxt[vertex] = head
        self.prv[vertex] = _ABSENT
        if head != _ABSENT:
            self.prv[head] = vertex
        self.heads[key] = vertex
        self.key_of_[vertex] = key
        self.lb[vertex] = 1 if lb else 0
        self._count += 1

    def pop(self, key: int) -> Optional[int]:
        """Dequeue and return the newest vertex of bucket ``key`` (or None)."""
        heads = self.heads
        if key >= len(heads):
            return None
        vertex = heads[key]
        if vertex == _ABSENT:
            return None
        follower = self.nxt[vertex]
        heads[key] = follower
        if follower != _ABSENT:
            self.prv[follower] = _ABSENT
        self.key_of_[vertex] = _ABSENT
        self._count -= 1
        return vertex

    def _unlink(self, vertex: int, key: int) -> None:
        before, after = self.prv[vertex], self.nxt[vertex]
        if before != _ABSENT:
            self.nxt[before] = after
        else:
            self.heads[key] = after
        if after != _ABSENT:
            self.prv[after] = before

    def move_to(self, vertex: int, key: int) -> None:
        """Move a queued ``vertex`` to bucket ``key`` (no-op if already there)."""
        current = self.key_of_[vertex]
        if current == _ABSENT:
            raise KeyError(f"handle {vertex!r} is not queued")
        if current == key:
            return
        if key < 0:
            raise ValueError("bucket keys must be non-negative")
        self._unlink(vertex, current)
        self._ensure_key(key)
        head = self.heads[key]
        self.nxt[vertex] = head
        self.prv[vertex] = _ABSENT
        if head != _ABSENT:
            self.prv[head] = vertex
        self.heads[key] = vertex
        self.key_of_[vertex] = key
        self._counters.record_bucket_move()

    def key_of(self, vertex: int) -> int:
        """Current bucket key of a queued ``vertex``."""
        key = self.key_of_[vertex]
        if key == _ABSENT:
            raise KeyError(f"handle {vertex!r} is not queued")
        return key

    def degree_of(self, vertex: int) -> int:
        """Stored exact h-degree of ``vertex``."""
        return self.degrees[vertex]

    def set_degree(self, vertex: int, degree: int) -> None:
        self.degrees[vertex] = degree

    def decrement(self, vertex: int) -> int:
        """Decrease the stored degree by one and return the new value."""
        degree = self.degrees[vertex] - 1
        self.degrees[vertex] = degree
        return degree

    def is_lb(self, vertex: int) -> bool:
        """True while the bucket key of ``vertex`` is only a lower bound."""
        return bool(self.lb[vertex])

    def set_lb(self, vertex: int, flag: bool) -> None:
        self.lb[vertex] = 1 if flag else 0

    def _fill(self, pairs: Iterable[Tuple[int, int]], lb_flag: int,
              store_degree: bool) -> None:
        """Bulk push-front loop with the arrays bound to locals."""
        heads = self.heads
        nxt = self.nxt
        prv = self.prv
        key_of = self.key_of_
        degrees = self.degrees
        lb = self.lb
        count = 0
        for vertex, key in pairs:
            if key_of[vertex] != _ABSENT:
                raise ValueError(f"handle {vertex!r} is already queued")
            if key < 0:
                raise ValueError("bucket keys must be non-negative")
            if key >= len(heads):
                self._ensure_key(key)
                heads = self.heads
            head = heads[key]
            nxt[vertex] = head
            prv[vertex] = _ABSENT
            if head != _ABSENT:
                prv[head] = vertex
            heads[key] = vertex
            key_of[vertex] = key
            lb[vertex] = lb_flag
            if store_degree:
                degrees[vertex] = key
            count += 1
        self._count += count

    def fill_exact(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Bulk-insert ``(vertex, degree)`` pairs keyed at their exact degree."""
        self._fill(pairs, 0, True)

    def fill_lb(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Bulk-insert ``(vertex, bound)`` pairs keyed at a lower bound."""
        self._fill(pairs, 1, False)


PeelState = Union[DictPeelState, ArrayPeelState]


class ArrayCoreMap:
    """Dict-like core-index map over dense integer handles.

    A flat ``array('q')`` with -1 marking "not assigned"; supports the small
    mapping subset the peel kernels and ``CSREngine.to_labels`` use
    (``in`` / ``[]`` / ``get`` / ``setdefault`` / ``items`` / ``values``).
    """

    __slots__ = ("_values", "_count")

    def __init__(self, num_handles: int) -> None:
        self._values = array("q", [_ABSENT]) * num_handles
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def __contains__(self, vertex: int) -> bool:
        return self._values[vertex] != _ABSENT

    def __getitem__(self, vertex: int) -> int:
        value = self._values[vertex]
        if value == _ABSENT:
            raise KeyError(vertex)
        return value

    def __setitem__(self, vertex: int, core: int) -> None:
        if self._values[vertex] == _ABSENT:
            self._count += 1
        self._values[vertex] = core

    def get(self, vertex: int, default: Optional[int] = None) -> Optional[int]:
        value = self._values[vertex]
        return default if value == _ABSENT else value

    def setdefault(self, vertex: int, default: int) -> int:
        value = self._values[vertex]
        if value == _ABSENT:
            self[vertex] = default
            return default
        return value

    def items(self) -> Iterator[Tuple[int, int]]:
        return ((i, value) for i, value in enumerate(self._values)
                if value != _ABSENT)

    def keys(self) -> Iterator[int]:
        return (i for i, value in enumerate(self._values) if value != _ABSENT)

    def values(self) -> List[int]:
        return [value for value in self._values if value != _ABSENT]

    def to_dict(self) -> Dict[int, int]:
        return dict(self.items())


def make_peel_state(engine, counters: Counters = NULL_COUNTERS) -> PeelState:
    """Build the peel state for ``engine``: flat arrays on CSR, dicts otherwise."""
    from repro.core.backends import CSREngine

    if isinstance(engine, CSREngine):
        return ArrayPeelState(engine.num_nodes, counters)
    return DictPeelState(counters)


def make_core_map(engine):
    """Build the core-index map matching :func:`make_peel_state` for ``engine``."""
    from repro.core.backends import CSREngine

    if isinstance(engine, CSREngine):
        return ArrayCoreMap(engine.num_nodes)
    return {}
