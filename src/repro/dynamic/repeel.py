"""Region re-peeling: recompute core indices inside a dirty region.

This is the computational kernel of the dynamic maintenance engine
(:mod:`repro.dynamic.engine`).  Given a *region* of vertices whose core
indices may have changed and a *shell* of surrounding vertices whose core
indices are assumed unchanged, :func:`repeel_region` re-runs the peeling on
``region ∪ shell`` only:

* Region vertices are bucketed by their exact h-degree inside the restricted
  universe and peeled bottom-up exactly like h-BZ, with the paper's
  distance-``h`` decrement shortcut (Algorithm 3, line 17) to avoid most
  h-degree recomputations.
* Shell vertices are **pinned**: each one is force-removed while the peeling
  index equals its (old) core index — the level at which the reference
  global peeling would have removed it.  They are never re-bucketed and never
  receive a new core index.

The per-vertex bookkeeping (buckets + stored degrees) drives the shared
:class:`~repro.runtime.peel.PeelState` protocol — the same kernel state the
batch algorithms peel through: flat arrays on the CSR engine, except for
dirty universes under a quarter of the graph, which take the dict state.

Why the restricted universe is sufficient: every path of length ``<= h``
from a region vertex ``w`` only traverses vertices at distance ``<= h - 1``
from ``w``, so all vertices that can ever appear in (or on a path to) the
h-neighborhood of a region vertex lie inside ``N_h[region]`` = region ∪
shell.  Vertices further out can neither contribute to nor subtract from any
region h-degree, at any peeling level.

The interleaving of forced shell removals and degree-triggered region pops
within one level is irrelevant for correctness: the set of vertices removed
by the end of level ``k`` is order-independent (the standard monotonicity
argument for peeling), and that set is all that level ``k + 1`` sees.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.core.backends import Engine
from repro.instrumentation import Counters, NULL_COUNTERS
from repro.runtime.peel import DictPeelState, make_peel_state

Handle = object


def repeel_region(engine: Engine, h: int,
                  region: Iterable[Handle],
                  shell_levels: Dict[Handle, int],
                  counters: Counters = NULL_COUNTERS) -> Dict[Handle, int]:
    """Re-peel ``region`` against a frozen ``shell`` and return its new cores.

    Parameters
    ----------
    engine:
        Backend engine over the *current* graph
        (:class:`~repro.core.backends.DictEngine` or a refreshed
        :class:`~repro.core.backends.CSREngine`).
    h:
        Distance threshold.
    region:
        Handles whose core indices are recomputed.
    shell_levels:
        ``handle -> old core index`` for every vertex of
        ``N_h[region] \\ region``; each shell vertex is removed when the
        peeling index reaches its level.  Must be disjoint from ``region``.
    counters:
        Instrumentation sink.

    Returns
    -------
    dict
        ``handle -> new core index`` for every region handle.
    """
    remaining = set(region)
    if not remaining:
        return {}
    alive = engine.alive_subset(list(remaining) + list(shell_levels))

    degrees = engine.bulk_h_degrees(h, targets=remaining, alive=alive,
                                    counters=counters)
    if len(alive) * 4 < engine.num_nodes:
        # The array layout allocates O(n) buckets/degree buffers; a typical
        # dirty region is a few dozen vertices of a large graph, where that
        # allocation would dominate the re-peel (the exact cost the dynamic
        # engine exists to avoid).  Both layouts are observationally
        # identical, so below a quarter of the graph the hash-based state
        # with its O(|region|) footprint is the cheaper choice.
        state = DictPeelState(counters)
    else:
        state = make_peel_state(engine, counters)
    state.fill_exact(degrees.items())

    shell_by_level: Dict[int, List[Handle]] = {}
    for x, level in shell_levels.items():
        shell_by_level.setdefault(level, []).append(x)

    new_core: Dict[Handle, int] = {}
    k = 0

    def remove_and_update(vertex: Handle) -> None:
        # The h-neighborhood is taken in the current alive universe before
        # the removal, exactly like the global peeling algorithms.
        neighborhood = engine.h_neighbors_with_distance(vertex, h, alive,
                                                        counters)
        alive.discard(vertex)
        for u, distance in neighborhood:
            if u not in remaining:
                continue  # shell vertices and already-peeled region vertices
            if distance < h:
                # Removal may have destroyed shortest paths through ``vertex``:
                # recompute from scratch (Algorithm 3, line 15).
                state.set_degree(u, engine.h_degree(u, h, alive, counters))
                counters.count_hdegree()
            else:
                # A neighbor at distance exactly h can only lose ``vertex``
                # itself, so a O(1) decrement suffices (line 17).
                state.decrement(u)
                counters.record_decrement()
            state.move_to(u, max(state.degree_of(u), k))

    while remaining:
        vertex = state.pop(k)
        if vertex is not None:
            new_core[vertex] = k
            remaining.discard(vertex)
            remove_and_update(vertex)
            continue
        pending_shell = shell_by_level.get(k)
        if pending_shell:
            remove_and_update(pending_shell.pop())
            continue
        k += 1
    return new_core
