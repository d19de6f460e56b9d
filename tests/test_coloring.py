"""Tests for distance-h coloring and the Theorem 1 chromatic-number bound."""

import pytest

from repro.applications.coloring import (
    chromatic_number_upper_bound,
    distance_h_greedy_coloring,
    exact_distance_h_chromatic_number,
    is_valid_distance_h_coloring,
    smallest_last_order,
)
from repro.core.classic import classic_core_decomposition
from repro.errors import InvalidDistanceThresholdError, ParameterError
from repro.graph import Graph
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    path_graph,
    star_graph,
)


class TestGreedyColoring:
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_coloring_is_valid(self, h, standard_graphs):
        for graph in standard_graphs.values():
            colors = distance_h_greedy_coloring(graph, h)
            assert is_valid_distance_h_coloring(graph, h, colors)

    def test_every_vertex_colored(self):
        g = erdos_renyi_graph(20, 0.15, seed=1)
        colors = distance_h_greedy_coloring(g, 2)
        assert set(colors) == set(g.vertices())

    def test_custom_order(self):
        g = cycle_graph(6)
        order = sorted(g.vertices())
        colors = distance_h_greedy_coloring(g, 2, order=order)
        assert is_valid_distance_h_coloring(g, 2, colors)

    def test_incomplete_order_rejected(self):
        g = cycle_graph(5)
        with pytest.raises(ParameterError):
            distance_h_greedy_coloring(g, 2, order=[0, 1])

    def test_invalid_h(self):
        with pytest.raises(InvalidDistanceThresholdError):
            distance_h_greedy_coloring(cycle_graph(4), 0)

    def test_path_h2_uses_three_colors(self):
        # On a long path, vertices within distance 2 must differ: 3 colors.
        colors = distance_h_greedy_coloring(path_graph(10), 2)
        assert len(set(colors.values())) == 3

    def test_complete_graph_needs_n_colors(self):
        colors = distance_h_greedy_coloring(complete_graph(5), 2)
        assert len(set(colors.values())) == 5


class TestSmallestLastOrder:
    def test_contains_every_vertex_once(self):
        g = erdos_renyi_graph(15, 0.2, seed=2)
        order = smallest_last_order(g, 2)
        assert sorted(order, key=repr) == sorted(g.vertices(), key=repr)

    def test_h1_uses_classic_decomposition(self):
        g = star_graph(4)
        order = smallest_last_order(g, 1)
        assert order == classic_core_decomposition(g).removal_order
        # The hub's degree stays above the leaves' until only one leaf is
        # left, so at least three leaves are removed before it.
        assert order.index(0) >= 3


class TestValidityChecker:
    def test_detects_conflict(self):
        g = path_graph(3)
        bad = {0: 0, 1: 1, 2: 0}
        assert is_valid_distance_h_coloring(g, 1, bad)
        assert not is_valid_distance_h_coloring(g, 2, bad)

    def test_detects_missing_vertex(self):
        g = path_graph(3)
        assert not is_valid_distance_h_coloring(g, 1, {0: 0, 1: 1})


class TestChromaticNumberBound:
    def test_bound_on_empty_graph(self):
        assert chromatic_number_upper_bound(Graph(), 2) == 0

    @pytest.mark.parametrize("h", [2, 3])
    def test_exact_number_respects_theorem1(self, h):
        # χ_h(G) <= 1 + Ĉ_h(G) on a battery of small graphs (Theorem 1).
        for seed in range(3):
            g = erdos_renyi_graph(10, 0.25, seed=seed)
            exact = exact_distance_h_chromatic_number(g, h)
            assert exact <= chromatic_number_upper_bound(g, h)

    def test_greedy_never_beats_exact(self):
        g = erdos_renyi_graph(10, 0.3, seed=5)
        exact = exact_distance_h_chromatic_number(g, 2)
        greedy_colors = len(set(distance_h_greedy_coloring(g, 2).values()))
        assert greedy_colors >= exact

    def test_exact_star_h2(self):
        # All vertices of a star are pairwise within distance 2.
        assert exact_distance_h_chromatic_number(star_graph(4), 2) == 5

    def test_exact_cycle_h2(self):
        assert exact_distance_h_chromatic_number(cycle_graph(5), 2) == 5
        assert exact_distance_h_chromatic_number(cycle_graph(6), 2) == 3

    def test_exact_guard_on_large_graphs(self):
        with pytest.raises(ParameterError):
            exact_distance_h_chromatic_number(erdos_renyi_graph(40, 0.1, seed=0), 2)

    def test_exact_empty_graph(self):
        assert exact_distance_h_chromatic_number(Graph(), 2) == 0
