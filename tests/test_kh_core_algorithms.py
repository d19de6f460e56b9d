"""Correctness tests for the three (k,h)-core algorithms (h-BZ, h-LB, h-LB+UB).

Every algorithm is validated against the naive reference implementation on a
battery of deterministic graphs and random graphs, for several values of h.
"""

import pytest

from repro.core import (
    core_decomposition,
    h_bz,
    h_lb,
    h_lb_ub,
    naive_core_decomposition,
)
from repro.errors import InvalidDistanceThresholdError
from repro.graph import Graph
from repro.graph.generators import (
    caveman_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
    random_tree,
    star_graph,
    watts_strogatz_graph,
)
from repro.instrumentation import Counters

ALGORITHMS = {
    "h-BZ": h_bz,
    "h-LB": h_lb,
    "h-LB+UB": h_lb_ub,
}


def assert_matches_naive(graph, h):
    expected = naive_core_decomposition(graph, h).core_index
    for name, algorithm in ALGORITHMS.items():
        got = algorithm(graph, h).core_index
        assert got == expected, f"{name} disagrees with the naive oracle for h={h}"


class TestAgainstNaiveOracle:
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_deterministic_graphs(self, h, standard_graphs):
        for name, graph in standard_graphs.items():
            assert_matches_naive(graph, h)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("h", [2, 3])
    def test_random_graphs(self, seed, h):
        graph = erdos_renyi_graph(22, 0.14, seed=seed)
        assert_matches_naive(graph, h)

    @pytest.mark.parametrize("h", [2, 4])
    def test_sparse_tree(self, h):
        assert_matches_naive(random_tree(25, seed=2), h)

    @pytest.mark.parametrize("h", [2, 3])
    def test_small_world(self, h):
        assert_matches_naive(watts_strogatz_graph(20, 4, 0.2, seed=1), h)

    def test_disconnected_graph(self, disconnected_graph):
        assert_matches_naive(disconnected_graph, 2)

    def test_paper_style_graph(self, paper_style_graph):
        assert_matches_naive(paper_style_graph, 2)
        assert_matches_naive(paper_style_graph, 3)


class TestPaperStyleGraphStructure:
    def test_distance_2_decomposition_is_finer_than_classic(self, paper_style_graph):
        classic = core_decomposition(paper_style_graph, 1)
        distance2 = core_decomposition(paper_style_graph, 2)
        assert len(set(distance2.core_index.values())) >= len(set(classic.core_index.values()))
        # The sparse tail (vertex 1) lands in a strictly lower (k,2)-core than
        # the dense region (vertices 4..13), like Figure 1 of the paper.
        assert distance2.core_index[1] < distance2.core_index[4]

    def test_tail_vertices_between(self, paper_style_graph):
        decomposition = core_decomposition(paper_style_graph, 2)
        assert (decomposition.core_index[1]
                <= decomposition.core_index[2]
                <= decomposition.core_index[4])


class TestSpecialShapes:
    @pytest.mark.parametrize("h", [2, 3, 5])
    def test_complete_graph(self, h):
        g = complete_graph(7)
        result = core_decomposition(g, h, algorithm="h-LB")
        assert all(c == 6 for c in result.core_index.values())

    def test_cycle_h2(self):
        result = h_lb(cycle_graph(10), 2)
        assert all(c == 4 for c in result.core_index.values())

    def test_star_h2(self):
        # All leaves are within distance 2 of each other through the hub.
        result = h_lb_ub(star_graph(6), 2)
        assert all(c == 6 for c in result.core_index.values())

    def test_path_h3(self):
        result = h_bz(path_graph(8), 3)
        assert max(result.core_index.values()) <= 6
        assert result.core_index == naive_core_decomposition(path_graph(8), 3).core_index

    def test_grid_h2(self):
        assert_matches_naive(grid_graph(4, 5), 2)

    def test_caveman_structure(self):
        g = caveman_graph(3, 5)
        result = h_lb(g, 2)
        # Each clique member reaches its whole clique plus the ring link(s).
        assert result.degeneracy >= 4

    def test_empty_and_single_vertex(self):
        for algorithm in ALGORITHMS.values():
            assert algorithm(Graph(), 2).core_index == {}
            single = Graph(vertices=["x"])
            assert algorithm(single, 2).core_index == {"x": 0}

    def test_isolated_vertices(self):
        g = cycle_graph(5)
        g.add_vertex(100)
        g.add_vertex(101)
        for algorithm in ALGORITHMS.values():
            result = algorithm(g, 2)
            assert result.core_index[100] == 0
            assert result.core_index[101] == 0


class TestAlgorithmParameters:
    def test_invalid_h_rejected(self):
        g = cycle_graph(5)
        for algorithm in ALGORITHMS.values():
            with pytest.raises(InvalidDistanceThresholdError):
                algorithm(g, 0)
            with pytest.raises(InvalidDistanceThresholdError):
                algorithm(g, "2")  # type: ignore[arg-type]

    def test_h1_reduces_to_classic(self, seeded_random_graph):
        from repro.core import classic_core_decomposition
        expected = classic_core_decomposition(seeded_random_graph).core_index
        for algorithm in ALGORITHMS.values():
            assert algorithm(seeded_random_graph, 1).core_index == expected

    @pytest.mark.parametrize("partition_size", [1, 2, 5])
    def test_hlbub_partition_size(self, partition_size):
        g = erdos_renyi_graph(20, 0.18, seed=8)
        expected = naive_core_decomposition(g, 2).core_index
        assert h_lb_ub(g, 2, partition_size=partition_size).core_index == expected

    def test_hlb_with_lb1_only(self):
        g = erdos_renyi_graph(20, 0.15, seed=9)
        expected = naive_core_decomposition(g, 3).core_index
        assert h_lb(g, 3, use_lb1_only=True).core_index == expected

    def test_hlbub_with_hdegree_upper_bound(self):
        g = erdos_renyi_graph(20, 0.15, seed=10)
        expected = naive_core_decomposition(g, 2).core_index
        assert h_lb_ub(g, 2, use_hdegree_as_upper_bound=True).core_index == expected

    def test_multithreaded_matches_sequential(self):
        g = erdos_renyi_graph(24, 0.15, seed=11)
        sequential = h_lb_ub(g, 2, num_workers=1).core_index
        threaded = h_lb_ub(g, 2, num_workers=4).core_index
        assert sequential == threaded

    def test_counters_populated(self):
        g = erdos_renyi_graph(18, 0.2, seed=12)
        counters = Counters()
        h_bz(g, 2, counters=counters)
        assert counters.vertices_visited > 0
        assert counters.bfs_calls > 0

    def test_lower_bound_algorithm_visits_fewer_vertices(self):
        g = caveman_graph(4, 6)
        bz_counters, lb_counters = Counters(), Counters()
        h_bz(g, 2, counters=bz_counters)
        h_lb(g, 2, counters=lb_counters)
        assert lb_counters.vertices_visited <= bz_counters.vertices_visited

    def test_removal_order_recorded_by_hbz_and_hlb(self):
        g = erdos_renyi_graph(15, 0.2, seed=13)
        assert sorted(h_bz(g, 2).removal_order, key=repr) == sorted(g.vertices(), key=repr)
        assert sorted(h_lb(g, 2).removal_order, key=repr) == sorted(g.vertices(), key=repr)
