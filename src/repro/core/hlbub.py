"""h-LB+UB: top-down, partitioned (k,h)-core decomposition (Algorithm 4).

The upper bound ``UB(v)`` (classic core index in the implicit h-power graph,
Algorithm 5) lets the computation be split into totally independent
sub-computations: all (k,h)-cores with ``k >= i`` live inside
``V[i] = {v : UB(v) >= i}`` (Observation 3).  The partitions are visited
top-down, so the expensive high-core vertices are peeled early and never
touched again, and each partition is first cleaned and re-bounded by
``ImproveLB`` (Algorithm 6, bound LB3).

The cross-partition core-index map persists for the whole run (a flat array
on the CSR engine).  A vertex with an entry is *settled*: a higher partition
fixed its core index, so each later partition's ``ImproveLB`` keeps it only
as BFS support and runs its bulk h-degree pass over the *open* candidates
alone (exact; see :func:`repro.core.bounds.engine_improve_lb`).  A partition
whose cleaned set holds no open vertex cannot assign anything and is
skipped; every other one drives the shared peeling kernel
(:func:`repro.core.peeling.core_decomp`) through a fresh
:class:`~repro.runtime.peel.PeelState`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.errors import InvalidDistanceThresholdError, ParameterError
from repro.graph.graph import Graph, Vertex
from repro.core.backends import Engine
from repro.core.bounds import (
    engine_improve_lb,
    engine_lb1,
    engine_lb2,
    engine_upper_bound,
)
from repro.core.peeling import core_decomp
from repro.core.result import CoreDecomposition
from repro.instrumentation import Counters, NULL_COUNTERS
from repro.runtime.context import ExecutionContext, scoped_context


def build_partitions(upper_bounds: Dict[Vertex, int], min_lower_bound: int,
                     partition_size: int) -> List[Tuple[int, int]]:
    """Return the top-down list of ``(kmin, kmax)`` intervals (Algorithm 4, line 11).

    The distinct upper-bound values, together with ``min_lower_bound - 1``,
    are sorted in descending order and grouped ``partition_size`` values at a
    time; each group becomes one interval ``[next_value + 1, first_value]``.

    Example (paper, Example 4): with upper bounds {5,10,15,20,25,30},
    ``min_lower_bound = 3`` and S = 2 the partitions are
    ``[(30, 21), (20, 11), (10, 3)]`` expressed as (kmax, kmin) pairs —
    we return them as ``(kmin, kmax)`` tuples: ``[(21, 30), (11, 20), (3, 10)]``.
    """
    if partition_size < 1:
        raise ParameterError("partition size S must be a positive integer")
    values = set(upper_bounds.values())
    values.add(min_lower_bound - 1)
    ordered = sorted(values, reverse=True)
    partitions: List[Tuple[int, int]] = []
    index = 0
    while index < len(ordered) - 1 or (index == 0 and len(ordered) == 1):
        kmax = ordered[index]
        next_index = index + partition_size
        if next_index < len(ordered):
            kmin = ordered[next_index] + 1
        else:
            kmin = ordered[-1] + 1
        kmin = max(kmin, 0)
        if kmin > kmax:
            kmin = kmax
        partitions.append((kmin, kmax))
        if next_index >= len(ordered):
            break
        index = next_index
    return partitions


def h_lb_ub(graph: Graph, h: int,
            partition_size: int = 1,
            counters: Counters = NULL_COUNTERS,
            use_hdegree_as_upper_bound: bool = False,
            precomputed_upper_bound: Optional[Dict[Vertex, int]] = None,
            backend: Union[str, Engine] = "dict",
            executor: str = "thread",
            num_workers: Optional[int] = None,
            context: Optional[ExecutionContext] = None) -> CoreDecomposition:
    """Compute the (k,h)-core decomposition with the h-LB+UB algorithm.

    Parameters
    ----------
    graph:
        Undirected, unweighted input graph.
    h:
        Distance threshold (h >= 1).
    partition_size:
        The parameter ``S``: how many consecutive distinct upper-bound values
        each partition covers (the paper uses small values; S = 1 yields the
        finest top-down exploration).
    counters:
        Instrumentation sink.
    num_workers:
        Workers used for the bulk h-degree computations (§4.6).
    executor:
        Scheduler for the bulk h-degree passes (the initial pass, the upper
        bound's seeding pass, and each partition's ``ImproveLB`` pass):
        ``"serial"``, ``"thread"`` (GIL-bound) or ``"process"``
        (shared-memory worker pool).  All executors produce identical core
        numbers.
    use_hdegree_as_upper_bound:
        If True, use the plain h-degree as the upper bound instead of the
        power-graph core index.  Reproduces the "h-degree" column of the
        bound-ablation experiment (Table 5); default is the published UB.
    precomputed_upper_bound:
        Optionally reuse an already-computed UB map, keyed by original
        vertices (used by experiments that evaluate bound quality separately
        from runtime).
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
        all_handles = list(engine.nodes())
        algorithm = ("h-LB+UB(h-degree)" if use_hdegree_as_upper_bound
                     else "h-LB+UB")
        if not all_handles:
            return CoreDecomposition(graph, h, {}, algorithm=algorithm)

        # Lines 3-6: initial h-degrees and the LB2 lower bound.
        initial_degrees = ctx.bulk_h_degrees(h, targets=all_handles,
                                             counters=sink)
        lb1 = engine_lb1(engine, h, counters=sink)
        lb2 = engine_lb2(engine, h, lb1=lb1, counters=sink)
        lb3: Dict[object, int] = {v: 0 for v in all_handles}

        # Line 7: the upper bound (Algorithm 5), or the h-degree ablation
        # variant.
        if precomputed_upper_bound is not None:
            ub = {engine.handle_of(v): value
                  for v, value in precomputed_upper_bound.items()}
        elif use_hdegree_as_upper_bound:
            ub = dict(initial_degrees)
        else:
            ub = engine_upper_bound(engine, h,
                                    initial_h_degrees=initial_degrees,
                                    counters=sink,
                                    num_workers=ctx.num_workers,
                                    executor=ctx.executor)

        # Lines 8-11: partition the interval [min LB2, max UB] top-down.
        min_lb = min(lb2.values())
        partitions = build_partitions(ub, min_lb, partition_size)

        core_index = ctx.make_core_map()
        # Lines 11-18: process each partition independently, top-down.
        for kmin, kmax in partitions:
            candidate = [v for v in all_handles if ub[v] >= kmin]
            if not candidate:
                continue
            cleaned, min_degree = engine_improve_lb(engine, h, candidate,
                                                    kmin, counters=sink,
                                                    num_workers=ctx.num_workers,
                                                    executor=ctx.executor,
                                                    settled=core_index)
            if all(v in core_index for v in cleaned):
                continue
            for v in cleaned:
                lb3[v] = max(lb3[v], lb2[v], min_degree)

            state = ctx.make_peel_state(counters=sink)
            alive = cleaned
            floor = max(kmin - 1, 0)
            state.fill_lb(
                (v, max(core_index.get(v, 0), lb3[v], floor)) for v in alive)

            core_decomp(engine, h, kmin=kmin, kmax=kmax, state=state,
                        alive=alive, core_index=core_index, counters=sink)

        # Vertices never assigned belong to core 0 (isolated or below the
        # lowest partition; the lowest kmin equals the minimum LB2, which is
        # 0 for them).
        for v in all_handles:
            core_index.setdefault(v, 0)

        return CoreDecomposition(graph, h, engine.to_labels(core_index),
                                 algorithm=algorithm)
