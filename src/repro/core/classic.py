"""Classic k-core decomposition (h = 1), Batagelj–Zaveršnik peeling.

The (k,1)-core is exactly the classic k-core, so for h = 1 the library
dispatches to this specialized linear-time peeling instead of running the
h-generalized machinery.  It is also used on the materialized h-power graph
to compute the upper bound of §4.4 in tests (the production upper bound in
:mod:`repro.core.bounds` avoids materializing the power graph).
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.graph.graph import Graph, Vertex
from repro.core.result import CoreDecomposition
from repro.instrumentation import Counters, NULL_COUNTERS
from repro.runtime.peel import DictPeelState


def classic_core_decomposition(graph: Graph,
                               counters: Counters = NULL_COUNTERS,
                               alive: Optional[Set[Vertex]] = None
                               ) -> CoreDecomposition:
    """Compute the classic k-core decomposition by bucket peeling.

    Runs in O(|V| + |E|) time.  If ``alive`` is given the decomposition is of
    the induced subgraph (but the result still reports a core index for every
    graph vertex only if ``alive`` covers them; normally leave it None).
    The peel pops the most recently bucketed vertex first (the
    :class:`~repro.runtime.peel.DictPeelState` discipline); any pop order
    yields the same core indices and a smallest-last removal order.
    """
    universe: Set[Vertex] = set(alive) if alive is not None else set(graph.vertices())
    state = DictPeelState(counters)
    state.fill_exact(
        (v, len(graph.neighbors(v) & universe) if alive is not None
         else graph.degree(v))
        for v in universe
    )

    core_index: Dict[Vertex, int] = {}
    removal_order: list = []
    k = 0
    while state:
        vertex = state.pop(k)
        if vertex is None:
            k += 1
            continue
        core_index[vertex] = k
        removal_order.append(vertex)
        for u in graph.neighbors(vertex):
            if u in state:
                state.move_to(u, max(state.decrement(u), k))

    result_graph = graph if alive is None else graph.subgraph(universe)
    return CoreDecomposition(result_graph, 1, core_index, algorithm="classic-BZ",
                             removal_order=removal_order)


def classic_core_indices(graph: Graph) -> Dict[Vertex, int]:
    """Convenience wrapper returning just the ``vertex -> core index`` map."""
    return classic_core_decomposition(graph).core_index
