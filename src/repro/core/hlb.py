"""h-LB: lower-bound-driven (k,h)-core decomposition (Algorithm 2).

The baseline h-BZ recomputes the h-degree of every h-neighbor each time a
vertex is removed.  h-LB avoids most of those recomputations: each vertex is
initially bucketed at the lower bound ``LB2(v) <= core(v)`` and its true
h-degree is computed only once the peeling index has reached that bound; up
to that point, removals of its neighbors require no work at all.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.errors import InvalidDistanceThresholdError
from repro.graph.graph import Graph
from repro.core.backends import Engine
from repro.core.bounds import engine_lb1, engine_lb2
from repro.core.peeling import core_decomp
from repro.core.result import CoreDecomposition
from repro.instrumentation import Counters, NULL_COUNTERS
from repro.runtime.context import ExecutionContext, scoped_context


def h_lb(graph: Graph, h: int,
         counters: Counters = NULL_COUNTERS,
         use_lb1_only: bool = False,
         backend: Union[str, Engine] = "dict",
         executor: str = "thread",
         num_workers: Optional[int] = None,
         context: Optional[ExecutionContext] = None) -> CoreDecomposition:
    """Compute the (k,h)-core decomposition with the h-LB algorithm.

    Parameters
    ----------
    graph:
        Undirected, unweighted input graph.
    h:
        Distance threshold (h >= 1).
    counters:
        Instrumentation sink.
    num_workers:
        Workers for the initial bound computation (kept for API symmetry; the
        LB1/LB2 pass is cheap compared to the peeling).
    executor:
        Scheduler name, kept for API symmetry with h-BZ and h-LB+UB (h-LB
        has no bulk h-degree pass: LB1 for h in {2, 3} is the plain degree
        and the peeling itself is inherently sequential).
    use_lb1_only:
        If True, bucket vertices by LB1 instead of LB2.  This reproduces the
        "LB1" column of the paper's bound-ablation experiment (Table 5); the
        default (LB2) is the algorithm as published.
    backend:
        ``"dict"`` (reference), ``"csr"`` (array backend), ``"auto"``, or a
        pre-built engine.  Both backends produce identical core numbers.
    context:
        Optional pre-built :class:`~repro.runtime.ExecutionContext`; when
        given it supersedes the keywords above and is **not** closed here.

    Returns
    -------
    CoreDecomposition
    """
    if not isinstance(h, int) or isinstance(h, bool) or h < 1:
        raise InvalidDistanceThresholdError(h)

    with scoped_context(graph, context, backend=backend, executor=executor,
                        num_workers=num_workers, counters=counters) as ctx:
        sink = ctx.sink(counters)
        engine = ctx.engine
        alive = engine.full_alive()
        algorithm = "h-LB(LB1)" if use_lb1_only else "h-LB"
        if not alive:
            return CoreDecomposition(graph, h, {}, algorithm=algorithm)

        lb1 = engine_lb1(engine, h, counters=sink)
        bounds = lb1 if use_lb1_only else engine_lb2(engine, h, lb1=lb1,
                                                     counters=sink)

        state = ctx.make_peel_state(counters=sink)
        state.fill_lb((v, bounds[v]) for v in alive)

        # kmin = 0 so that vertices with h-degree 0 receive core index 0 (the
        # paper's pseudocode starts at kmin = 1, leaving isolated vertices
        # implicitly at 0; making it explicit keeps the result object total).
        core_index = ctx.make_core_map()
        removal_order: list = []
        core_decomp(engine, h, kmin=0, kmax=engine.num_nodes, state=state,
                    alive=alive, core_index=core_index, counters=sink,
                    removal_order=removal_order)

        return CoreDecomposition(graph, h, engine.to_labels(core_index),
                                 algorithm=algorithm,
                                 removal_order=engine.labels_of(removal_order))
