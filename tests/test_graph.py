"""Unit tests for the core Graph data structure."""

import pytest

from repro.errors import EdgeNotFoundError, GraphError, VertexNotFoundError
from repro.graph import Graph

from helpers import reinserted


class TestConstruction:
    def test_empty_graph(self):
        g = Graph()
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert list(g.vertices()) == []
        assert list(g.edges()) == []

    def test_from_edge_list(self):
        g = Graph([(1, 2), (2, 3)])
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_from_vertices_and_edges(self):
        g = Graph(edges=[(1, 2)], vertices=[5, 6])
        assert g.num_vertices == 4
        assert g.has_vertex(5)
        assert g.degree(5) == 0

    def test_self_loop_rejected(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.add_edge(1, 1)

    def test_parallel_edges_collapse(self):
        g = Graph([(1, 2), (1, 2), (2, 1)])
        assert g.num_edges == 1

    def test_add_vertex_idempotent(self):
        g = Graph()
        g.add_vertex("a")
        g.add_vertex("a")
        assert g.num_vertices == 1

    def test_string_vertices(self):
        g = Graph([("alice", "bob"), ("bob", "carol")])
        assert g.degree("bob") == 2


class TestMutation:
    def test_remove_vertex(self):
        g = Graph([(1, 2), (2, 3), (1, 3)])
        g.remove_vertex(2)
        assert not g.has_vertex(2)
        assert g.num_edges == 1
        assert g.has_edge(1, 3)

    def test_remove_missing_vertex_raises(self):
        g = Graph([(1, 2)])
        with pytest.raises(VertexNotFoundError):
            g.remove_vertex(99)

    def test_remove_vertices_from(self):
        g = Graph([(1, 2), (2, 3), (3, 4)])
        g.remove_vertices_from([1, 4])
        assert set(g.vertices()) == {2, 3}
        assert g.num_edges == 1

    def test_remove_edge(self):
        g = Graph([(1, 2), (2, 3)])
        g.remove_edge(1, 2)
        assert not g.has_edge(1, 2)
        assert g.has_vertex(1)

    def test_remove_missing_edge_raises(self):
        g = Graph([(1, 2)])
        with pytest.raises(EdgeNotFoundError):
            g.remove_edge(1, 3)

    def test_add_edges_from(self):
        g = Graph()
        g.add_edges_from([(1, 2), (3, 4)])
        assert g.num_edges == 2


class TestVersionAndListeners:
    def test_version_starts_at_zero(self):
        assert Graph().version == 0

    def test_structural_changes_bump_version(self):
        g = Graph()
        g.add_vertex(1)
        after_vertex = g.version
        assert after_vertex > 0
        g.add_edge(1, 2)
        after_edge = g.version
        assert after_edge > after_vertex
        g.remove_edge(1, 2)
        assert g.version > after_edge
        before_removal = g.version
        g.remove_vertex(2)
        assert g.version > before_removal

    def test_idempotent_noops_do_not_bump_version(self):
        g = Graph([(1, 2)])
        version = g.version
        g.add_vertex(1)
        g.add_edge(1, 2)
        g.add_edge(2, 1)
        assert g.version == version

    def test_listener_receives_events(self):
        g = Graph()
        log = []
        g.add_mutation_listener(lambda event, payload: log.append((event, payload)))
        g.add_edge(1, 2)
        g.remove_edge(1, 2)
        g.remove_vertex(1)
        assert ("add_vertex", 1) in log
        assert ("add_edge", (1, 2)) in log
        assert ("remove_edge", (1, 2)) in log
        assert log[-1] == ("remove_vertex", (1, frozenset()))

    def test_remove_vertex_event_carries_incident_neighbors(self):
        # Incident edges vanish without individual remove_edge events; the
        # payload's neighbor set is what touched-adjacency trackers need.
        g = Graph([(1, 2), (1, 3), (2, 3)])
        log = []
        g.add_mutation_listener(lambda event, payload: log.append((event, payload)))
        g.remove_vertex(1)
        assert log == [("remove_vertex", (1, frozenset({2, 3})))]

    def test_listener_not_called_for_noops(self):
        g = Graph([(1, 2)])
        log = []
        g.add_mutation_listener(lambda event, payload: log.append(event))
        g.add_edge(1, 2)
        assert log == []

    def test_remove_listener(self):
        g = Graph()
        log = []
        listener = lambda event, payload: log.append(event)  # noqa: E731
        g.add_mutation_listener(listener)
        g.remove_mutation_listener(listener)
        g.add_vertex(1)
        assert log == []

    def test_copy_does_not_share_version_or_listeners(self):
        g = Graph([(1, 2)])
        log = []
        g.add_mutation_listener(lambda event, payload: log.append(event))
        clone = g.copy()
        clone.add_edge(2, 3)
        assert log == []
        assert clone.version != g.version or g.version == 0


class TestRemovalSemantics:
    """Removal behavior the dynamic engine depends on."""

    def test_remove_edge_keeps_isolated_endpoints(self):
        g = Graph([(1, 2)])
        g.remove_edge(1, 2)
        assert g.has_vertex(1) and g.has_vertex(2)
        assert g.degree(1) == 0 and g.degree(2) == 0

    def test_remove_edge_is_symmetric(self):
        g = Graph([(1, 2)])
        g.remove_edge(2, 1)
        assert not g.has_edge(1, 2)

    def test_remove_edge_twice_raises(self):
        g = Graph([(1, 2)])
        g.remove_edge(1, 2)
        with pytest.raises(EdgeNotFoundError):
            g.remove_edge(1, 2)

    def test_errors_are_key_errors_and_graph_errors(self):
        g = Graph([(1, 2)])
        with pytest.raises(KeyError):
            g.remove_vertex(9)
        with pytest.raises(GraphError):
            g.remove_edge(1, 9)

    def test_remove_vertex_after_neighbor_removed(self):
        g = Graph([(1, 2), (2, 3)])
        g.remove_vertex(2)
        g.remove_vertex(1)
        assert set(g.vertices()) == {3}

    def test_removed_edge_error_carries_edge(self):
        g = Graph([(1, 2)])
        with pytest.raises(EdgeNotFoundError) as excinfo:
            g.remove_edge(1, 3)
        assert excinfo.value.edge == (1, 3)

    def test_removed_vertex_error_carries_vertex(self):
        g = Graph()
        with pytest.raises(VertexNotFoundError) as excinfo:
            g.remove_vertex("ghost")
        assert excinfo.value.vertex == "ghost"


class TestQueries:
    def test_neighbors(self):
        g = Graph([(1, 2), (1, 3), (2, 3)])
        assert g.neighbors(1) == {2, 3}

    def test_neighbors_missing_vertex(self):
        g = Graph()
        with pytest.raises(VertexNotFoundError):
            g.neighbors(42)

    def test_degree_and_degrees(self):
        g = Graph([(1, 2), (1, 3)])
        assert g.degree(1) == 2
        assert g.degrees() == {1: 2, 2: 1, 3: 1}

    def test_contains_and_len_and_iter(self):
        g = Graph([(1, 2)])
        assert 1 in g
        assert 9 not in g
        assert len(g) == 2
        assert set(iter(g)) == {1, 2}

    def test_edges_iterated_once(self):
        g = Graph([(1, 2), (2, 3), (3, 1)])
        edges = list(g.edges())
        assert len(edges) == 3
        normalized = {frozenset(e) for e in edges}
        assert normalized == {frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3})}

    def test_has_edge_symmetric(self):
        g = Graph([(1, 2)])
        assert g.has_edge(1, 2)
        assert g.has_edge(2, 1)
        assert not g.has_edge(1, 99)


class TestDerivedGraphs:
    def test_copy_is_independent(self):
        g = Graph([(1, 2)])
        clone = g.copy()
        clone.add_edge(2, 3)
        assert g.num_vertices == 2
        assert clone.num_vertices == 3

    def test_copy_equality(self):
        g = Graph([(1, 2), (2, 3)])
        assert g.copy() == g

    def test_subgraph_induces_edges(self):
        g = Graph([(1, 2), (2, 3), (3, 4), (4, 1)])
        sub = g.subgraph([1, 2, 3])
        assert set(sub.vertices()) == {1, 2, 3}
        assert sub.num_edges == 2

    def test_subgraph_ignores_unknown_vertices(self):
        g = Graph([(1, 2)])
        sub = g.subgraph([1, 2, 99])
        assert set(sub.vertices()) == {1, 2}

    def test_relabeled(self):
        g = Graph([("x", "y"), ("y", "z")])
        relabeled, mapping = g.relabeled()
        assert set(relabeled.vertices()) == {0, 1, 2}
        assert relabeled.num_edges == 2
        assert set(mapping) == {"x", "y", "z"}

    def test_to_adjacency_lists(self):
        g = Graph([(1, 2), (1, 3)])
        adjacency = g.to_adjacency_lists()
        assert adjacency[1] == [2, 3]
        assert adjacency[2] == [1]

    def test_repr_mentions_sizes(self):
        g = Graph([(1, 2)])
        assert "2" in repr(g) and "1" in repr(g)

    def test_equality_with_non_graph(self):
        assert Graph() != 42


class TestRelabelOrder:
    """CSR snapshots index vertices in insertion order.

    The engine parity batteries permute CSR indices by re-inserting a graph
    in another vertex order (``helpers.reinserted``); these tests pin that
    the snapshot follows the order and that the permutations are the ones
    the batteries claim to sweep.
    """

    def _star_with_tail(self):
        # hub 0 with leaves 1..4, plus a path 5-6 appended later.
        g = Graph([(0, 1), (0, 2), (0, 3), (0, 4), (5, 6)])
        return g

    def test_none_is_insertion_order(self):
        from repro.graph.csr import CSRGraph

        g = self._star_with_tail()
        assert CSRGraph.from_graph(g).labels == list(g.vertices())
        assert reinserted(g, None) is g

    def test_degree_descending_with_insertion_ties(self):
        from repro.graph.csr import CSRGraph

        order = CSRGraph.from_graph(
            reinserted(self._star_with_tail(), "degree")).labels
        assert order[0] == 0  # the hub
        # All degree-1 vertices follow in insertion order.
        assert order[1:] == [1, 2, 3, 4, 5, 6]

    def test_bfs_clusters_neighbors_per_component(self):
        from repro.graph.csr import CSRGraph

        g = Graph([(0, 1), (1, 2), (2, 3), (3, 0), (10, 11)])
        order = CSRGraph.from_graph(reinserted(g, "bfs")).labels
        assert set(order) == set(g.vertices())
        # Within the cycle, each vertex appears adjacent to a neighbor.
        positions = {v: i for i, v in enumerate(order)}
        assert abs(positions[0] - positions[1]) <= 2
        # The second component comes as one contiguous run.
        tail = order[-2:]
        assert set(tail) == {10, 11}

    def test_deterministic_for_non_comparable_labels(self):
        from repro.graph.csr import CSRGraph

        # Mixed label types: ties must never compare labels directly.
        g = Graph([("a", 1), (1, (2, 3)), (("x",), "a")])
        for strategy in ("degree", "bfs"):
            first = CSRGraph.from_graph(reinserted(g, strategy)).labels
            second = CSRGraph.from_graph(reinserted(g, strategy)).labels
            assert first == second
            assert set(first) == set(g.vertices())

    def test_from_graph_relabel_preserves_topology(self):
        from repro.graph import CSRGraph

        g = self._star_with_tail()
        plain = CSRGraph.from_graph(g)
        for strategy in ("degree", "bfs"):
            permuted = CSRGraph.from_graph(reinserted(g, strategy))
            assert permuted.num_vertices == plain.num_vertices
            assert permuted.num_edges == plain.num_edges
            for v in g.vertices():
                assert (permuted.neighbors_of_label(v)
                        == plain.neighbors_of_label(v))
