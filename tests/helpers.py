"""Importable test helpers (oracle conversions and deterministic randomness).

Kept out of ``conftest.py`` on purpose: test modules import these with
``from helpers import ...``, and a bare ``from conftest import ...`` breaks
when another directory's ``conftest.py`` (e.g. ``benchmarks/``) wins the
``conftest`` module name in a whole-repo pytest run.

networkx is used throughout the tests as an *independent oracle* (shortest
paths, classic core numbers, power graphs); the library itself never imports
it.
"""

from __future__ import annotations

import random
from collections import deque

import networkx as nx

from repro.graph import Graph
from repro.graph.generators import erdos_renyi_graph
from repro.instrumentation import NULL_COUNTERS


def to_networkx(graph: Graph) -> "nx.Graph":
    """Convert a repro Graph into a networkx Graph (for oracle comparisons)."""
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(graph.vertices())
    nx_graph.add_edges_from(graph.edges())
    return nx_graph


def from_networkx(nx_graph: "nx.Graph") -> Graph:
    """Convert a networkx Graph into a repro Graph."""
    graph = Graph(vertices=nx_graph.nodes())
    for u, v in nx_graph.edges():
        if u != v:
            graph.add_edge(u, v)
    return graph


def random_graph(num_vertices: int, edge_probability: float, seed: int) -> Graph:
    """Deterministic Erdős–Rényi graph helper used all over the tests."""
    return erdos_renyi_graph(num_vertices, edge_probability, seed=seed)


def random_vertex(graph: Graph, seed: int = 0):
    """Pick a deterministic 'random' vertex from a graph."""
    vertices = sorted(graph.vertices(), key=repr)
    return random.Random(seed).choice(vertices)


def force_dict_peel(monkeypatch) -> None:
    """Peel through the dict layout on every engine, CSR included.

    The engine picks the peel-state layout (flat arrays on CSR).  The
    layout-parity tests compare it with the dict layout by swapping the
    factories the execution context and the upper bound call.
    """
    from repro.core import bounds
    from repro.runtime import DictPeelState, context

    def dict_state(engine, counters=NULL_COUNTERS):
        return DictPeelState(counters)

    monkeypatch.setattr(context, "make_peel_state", dict_state)
    monkeypatch.setattr(bounds, "make_peel_state", dict_state)
    monkeypatch.setattr(context, "make_core_map", lambda engine: {})


#: Vertex insertion orders the engine parity batteries sweep.  A CSR
#: snapshot indexes vertices in the graph's insertion order, so
#: re-inserting a graph hub-first or breadth-first hands every CSR-family
#: engine a permuted index layout; label-space results must not move.
INSERTION_ORDERS = [None, "degree", "bfs"]


def reinserted(graph: Graph, order) -> Graph:
    """``graph`` with its vertices inserted in ``order`` (``None``: as is).

    ``"degree"`` inserts vertices degree-descending, ties by insertion
    position; ``"bfs"`` inserts them breadth-first from the highest-degree
    vertex of each component, expanding neighbors in that same rank.  Ties
    never compare labels, so any hashable vertex type works.
    """
    if order is None:
        return graph
    vertices = list(graph.vertices())
    position = {v: i for i, v in enumerate(vertices)}

    def rank(v):
        return (-graph.degree(v), position[v])

    sequence = sorted(vertices, key=rank)
    if order == "bfs":
        by_degree, sequence, seen = sequence, [], set()
        for start in by_degree:
            if start in seen:
                continue
            seen.add(start)
            queue = deque((start,))
            while queue:
                v = queue.popleft()
                sequence.append(v)
                for u in sorted(graph.neighbors(v), key=rank):
                    if u not in seen:
                        seen.add(u)
                        queue.append(u)
    permuted = Graph(vertices=sequence)
    permuted.add_edges_from(graph.edges())
    return permuted
