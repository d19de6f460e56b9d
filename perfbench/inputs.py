"""Seeded inputs for every workload.

The library only ever receives what these functions return: a graph (or its
edge-list bytes), a read schedule and an update stream.  The same seed
always gives byte-identical inputs; the sizes live in :data:`SIZES` so the
self-test can run every workload on tiny inputs.
"""

from __future__ import annotations

import bisect
import json
import random
from typing import Dict, List, Tuple

#: Input sizes per workload.  ``tiny`` is what the self-test uses.
SIZES = {
    "full": {
        "social_n": 1500,         # Barabasi-Albert vertices, m = 3
        "serve_n": 400,           # powerlaw-cluster vertices, m = 2
    },
    "tiny": {
        "social_n": 60,
        "serve_n": 80,
    },
}

#: Share of edges a seed rewires in the social and serve graphs.
REWIRE_FRACTION = 0.1

#: Read mix of the LDBC-style loadgen without its updates (weights).
READ_MIX = (("point", 70), ("community", 20), ("analytics", 2))

#: Zipf exponent of vertex popularity in reads.
ZIPF_S = 1.0

# Why the graphs are built this way: the work h-LB+UB does swings by 15%
# or more between independently seeded graphs of one family (the largest
# hub degrees move the upper-bound partitions), which would drown a change
# of a few percent.  So each graph keeps one base graph and its degree
# sequence, and the seed rewires a tenth of the edges by degree-preserving
# swaps.


def rewired(graph, seed: int, fraction: float = REWIRE_FRACTION):
    """``graph`` with ``fraction`` of its edges moved by double-edge swaps.

    A swap replaces edges (a, b) and (c, d) by (a, d) and (c, b), so every
    vertex keeps its degree.
    """
    rng = random.Random(seed)
    edges = sorted(tuple(sorted(edge)) for edge in graph.edges())
    graph = graph.copy()
    swaps = int(fraction * len(edges))
    while swaps:
        i, j = rng.randrange(len(edges)), rng.randrange(len(edges))
        (a, b), (c, d) = edges[i], edges[j]
        if len({a, b, c, d}) < 4 or graph.has_edge(a, d) or graph.has_edge(c, b):
            continue
        graph.remove_edge(a, b)
        graph.remove_edge(c, d)
        graph.add_edge(a, d)
        graph.add_edge(c, b)
        edges[i], edges[j] = (a, d), (c, b)
        swaps -= 1
    return graph


def social_graph(seed: int, size: str = "full"):
    from repro.graph.generators import barabasi_albert_graph

    return rewired(barabasi_albert_graph(SIZES[size]["social_n"], 3, seed=0),
                   seed)


def serve_graph(seed: int, size: str = "full"):
    from repro.graph.generators import powerlaw_cluster_graph

    return rewired(powerlaw_cluster_graph(SIZES[size]["serve_n"], 2, 0.3,
                                          seed=0), seed)


def edge_bytes(graph) -> bytes:
    """The graph as an edge list: sorted ``u v`` lines, every vertex listed."""
    lines = []
    for u, v in sorted(tuple(sorted(edge)) for edge in graph.edges()):
        lines.append(f"{u} {v}\n")
    isolated = sorted(v for v in graph.vertices() if graph.degree(v) == 0)
    lines.extend(f"{v}\n" for v in isolated)
    return "".join(lines).encode("ascii")


def graph_from_edges(data: bytes):
    """Rebuild a :class:`Graph` from :func:`edge_bytes` output."""
    from repro.graph.graph import Graph

    graph = Graph()
    for line in data.decode("ascii").splitlines():
        parts = line.split()
        if len(parts) == 2:
            graph.add_edge(int(parts[0]), int(parts[1]))
        elif len(parts) == 1:
            graph.add_vertex(int(parts[0]))
    return graph


class Zipf:
    """Vertex popularity: rank r (of a seeded permutation) drawn with weight 1/r^s."""

    def __init__(self, vertices: List[int], rng: random.Random) -> None:
        self.order = list(vertices)
        rng.shuffle(self.order)
        total = 0.0
        self.cumulative = []
        for rank in range(1, len(self.order) + 1):
            total += 1.0 / rank ** ZIPF_S
            self.cumulative.append(total)

    def draw(self, rng: random.Random) -> int:
        roll = rng.random() * self.cumulative[-1]
        return self.order[bisect.bisect_left(self.cumulative, roll)]


def read_schedule(graph, seed: int, count: int, degeneracy: int
                  ) -> List[Tuple[str, str]]:
    """``count`` reads as ``(class, path)``, in the order they are due.

    Point lookups ask the primary threshold, or h=1 one time in five (an
    index read while the index is fresh); community reads ask a (k,h)-core
    or the top communities; analytics ask a spectrum or the full core map.
    """
    rng = random.Random(seed * 7919 + 1)
    zipf = Zipf(sorted(graph.vertices()), rng)
    total = sum(weight for _, weight in READ_MIX)
    schedule = []
    for _ in range(count):
        roll = rng.random() * total
        for kind, weight in READ_MIX:
            roll -= weight
            if roll <= 0:
                break
        v = zipf.draw(rng)
        if kind == "point":
            if rng.random() < 0.2:
                path = f"/core_number?v={v}&h=1"
            else:
                path = f"/core_number?v={v}"
        elif kind == "community":
            if rng.random() < 0.5:
                path = f"/core?k={rng.randint(1, max(degeneracy, 1))}"
            else:
                path = "/top_communities?limit=3"
        else:
            if rng.random() < 0.5:
                path = f"/spectrum?v={v}&hs=1,2"
            else:
                path = "/cores"
        schedule.append((kind, path))
    return schedule


def update_stream(graph, seed: int, batches: int, batch_size: int = 2
                  ) -> Tuple[List[List[List[object]]], object]:
    """Update batches plus the graph they leave behind.

    Inserts close a triangle: u gets an edge to a neighbour's neighbour it
    is not yet adjacent to.  Deletions (two in five updates, once any exist)
    remove an edge this stream inserted earlier.  The stream is replayed on
    a private copy, so every update is valid when applied in order.
    """
    rng = random.Random(seed * 104729 + 3)
    final = graph.copy()
    vertices = sorted(final.vertices())
    inserted: List[Tuple[int, int]] = []
    stream = []
    for _ in range(batches):
        batch = []
        for _ in range(batch_size):
            if inserted and rng.random() < 0.4:
                u, v = inserted.pop(rng.randrange(len(inserted)))
                final.remove_edge(u, v)
                batch.append(["-", u, v])
                continue
            while True:
                u = rng.choice(vertices)
                neighbours = sorted(final.neighbors(u))
                if not neighbours:
                    continue
                w = rng.choice(neighbours)
                options = sorted(x for x in final.neighbors(w)
                                 if x != u and not final.has_edge(u, x))
                if options:
                    v = rng.choice(options)
                    break
            final.add_edge(u, v)
            inserted.append((u, v))
            batch.append(["+", u, v])
        stream.append(batch)
    return stream, final


def request_bytes(schedule, stream) -> bytes:
    """Canonical bytes of generated traffic (for the determinism self-test)."""
    return json.dumps({"reads": schedule, "updates": stream},
                      separators=(",", ":")).encode("ascii")


def reference_cores(graph, h: int) -> Dict[int, int]:
    """Core map by a different algorithm and engine than the measured ones.

    The decompose workload runs h-LB+UB on the NumPy engine and the server
    runs the dynamic engine on CSR; the reference is h-LB (classic peeling
    for h=1) on the dict engine, serially.
    """
    from repro import core_decomposition

    algorithm = "classic" if h == 1 else "h-LB"
    result = core_decomposition(graph, h, algorithm=algorithm, backend="dict",
                                executor="serial")
    return {int(v): int(c) for v, c in result.core_index.items()}
