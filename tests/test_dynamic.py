"""Unit tests for the dynamic (k,h)-core maintenance engine."""

import random

import pytest

from repro.core import core_decomposition
from repro.dynamic import (
    DELETE,
    INSERT,
    MODE_FULL,
    MODE_INCREMENTAL,
    MODE_NOOP,
    DynamicKHCore,
    EdgeUpdate,
    random_update_stream,
    read_update_stream,
    write_update_stream,
)
from repro.errors import (
    EdgeNotFoundError,
    GraphError,
    GraphFormatError,
    InvalidDistanceThresholdError,
    ParameterError,
)
from repro.graph import Graph
from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    path_graph,
    powerlaw_cluster_graph,
    relaxed_caveman_graph,
    star_graph,
)
from repro.instrumentation import Counters


def assert_exact(engine):
    """The maintained indices must equal a from-scratch decomposition."""
    expected = core_decomposition(engine.graph, engine.h).core_index
    assert engine.core_numbers() == expected


class TestConstruction:
    def test_empty_graph_default(self):
        engine = DynamicKHCore()
        assert engine.core_numbers() == {}
        assert engine.h == 2

    def test_initial_decomposition_matches_batch(self):
        graph = erdos_renyi_graph(20, 0.2, seed=1)
        engine = DynamicKHCore(graph, h=2)
        assert_exact(engine)

    def test_invalid_h_rejected(self):
        for bad in (0, -1, 1.5, True):
            with pytest.raises(InvalidDistanceThresholdError):
                DynamicKHCore(Graph(), h=bad)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ParameterError):
            DynamicKHCore(Graph(), backend="gpu")
        with pytest.raises(ParameterError):
            DynamicKHCore(Graph(), algorithm="magic")
        with pytest.raises(ParameterError):
            DynamicKHCore(Graph(), fallback_ratio=1.5)
        with pytest.raises(ParameterError):
            DynamicKHCore(Graph(), max_expansions=-1)

    def test_backend_resolved_at_construction(self):
        assert DynamicKHCore(path_graph(4)).backend == "csr"
        assert DynamicKHCore(Graph([("a", "b")])).backend == "dict"
        assert DynamicKHCore(path_graph(4), backend="dict").backend == "dict"

    def test_warm_start_skips_initial_decomposition(self):
        graph = erdos_renyi_graph(20, 0.2, seed=1)
        cores = core_decomposition(graph, 2).core_index
        engine = DynamicKHCore(graph.copy(), h=2, initial_cores=cores)
        assert engine.stats.full_recomputes == 0
        assert engine.core_numbers() == cores
        assert_exact(engine)

    def test_warm_start_stays_exact_under_updates(self):
        graph = erdos_renyi_graph(20, 0.2, seed=3)
        cores = core_decomposition(graph, 2).core_index
        warm = DynamicKHCore(graph.copy(), h=2, initial_cores=cores)
        cold = DynamicKHCore(graph.copy(), h=2)
        updates = random_update_stream(graph, 12, new_vertex_p=0.1, seed=4)
        for offset in range(0, len(updates), 3):
            batch = updates[offset:offset + 3]
            warm.apply_batch(batch)
            cold.apply_batch(batch)
        assert warm.core_numbers() == cold.core_numbers()
        assert_exact(warm)

    def test_warm_start_rejects_wrong_vertex_set(self):
        graph = path_graph(4)
        with pytest.raises(ParameterError):
            DynamicKHCore(graph, h=2, initial_cores={0: 1, 1: 1})
        with pytest.raises(ParameterError):
            DynamicKHCore(path_graph(3), h=2,
                          initial_cores={0: 1, 1: 1, 2: 1, 99: 1})


class TestSingleUpdates:
    def test_insert_raises_cores(self):
        engine = DynamicKHCore(cycle_graph(6), h=2, fallback_ratio=1.0)
        assert engine.core_number(0) == 4
        summary = engine.insert_edge(0, 3)
        assert summary.mode in (MODE_INCREMENTAL, MODE_FULL)
        assert_exact(engine)

    def test_delete_lowers_cores(self):
        engine = DynamicKHCore(cycle_graph(6), h=2, fallback_ratio=1.0)
        summary = engine.delete_edge(0, 1)
        assert summary.applied == 1
        assert engine.core_number(3) == 2
        assert_exact(engine)

    def test_insert_creates_vertices(self):
        engine = DynamicKHCore(path_graph(3), h=2, fallback_ratio=1.0)
        engine.apply("+", 2, 99)
        assert 99 in engine.graph
        assert_exact(engine)

    def test_insert_existing_edge_is_noop(self):
        engine = DynamicKHCore(path_graph(3), h=2)
        summary = engine.apply("+", 0, 1)
        assert summary.mode == MODE_NOOP
        assert summary.skipped == 1
        assert engine.stats.noop_updates == 1
        assert engine.stats.batches == 0

    def test_delete_missing_edge_raises(self):
        engine = DynamicKHCore(path_graph(3), h=2)
        with pytest.raises(EdgeNotFoundError):
            engine.apply("-", 0, 2)

    def test_self_loop_insert_rejected(self):
        engine = DynamicKHCore(path_graph(3), h=2)
        with pytest.raises(GraphError):
            engine.apply("+", 1, 1)

    def test_unknown_op_rejected(self):
        engine = DynamicKHCore(path_graph(3), h=2)
        with pytest.raises(GraphFormatError):
            engine.apply("toggle", 0, 1)

    def test_op_aliases(self):
        engine = DynamicKHCore(path_graph(4), h=2, fallback_ratio=1.0)
        engine.apply("insert", 0, 3)
        assert engine.graph.has_edge(0, 3)
        engine.apply("remove", 0, 3)
        assert not engine.graph.has_edge(0, 3)
        assert_exact(engine)

    def test_isolated_after_delete_gets_core_zero(self):
        engine = DynamicKHCore(Graph([(0, 1)]), h=2, fallback_ratio=1.0)
        engine.delete_edge(0, 1)
        assert engine.core_numbers() == {0: 0, 1: 0}


class TestBatches:
    def test_failed_batch_leaves_engine_unchanged(self):
        engine = DynamicKHCore(path_graph(4), h=2)
        before_edges = sorted(map(sorted, engine.graph.edges()))
        before_cores = engine.core_numbers()
        with pytest.raises(EdgeNotFoundError):
            engine.apply_batch([("+", 0, 2), ("-", 1, 3)])
        assert sorted(map(sorted, engine.graph.edges())) == before_edges
        assert engine.core_numbers() == before_cores

    def test_batch_validation_tracks_intra_batch_edges(self):
        engine = DynamicKHCore(path_graph(4), h=2, fallback_ratio=1.0)
        # Deleting an edge inserted earlier in the same batch is valid ...
        engine.apply_batch([("+", 0, 3), ("-", 0, 3)])
        assert not engine.graph.has_edge(0, 3)
        # ... and deleting the same pre-existing edge twice is not.
        with pytest.raises(EdgeNotFoundError):
            engine.apply_batch([("-", 0, 1), ("-", 0, 1)])
        assert_exact(engine)

    def test_mixed_batch_exact(self):
        graph = erdos_renyi_graph(18, 0.2, seed=3)
        engine = DynamicKHCore(graph.copy(), h=2, fallback_ratio=1.0)
        updates = random_update_stream(graph, 20, seed=5)
        engine.apply_batch(updates)
        assert_exact(engine)

    def test_net_noop_batch(self):
        engine = DynamicKHCore(cycle_graph(8), h=2, fallback_ratio=1.0)
        before = engine.core_numbers()
        engine.apply_batch([("+", 0, 4), ("-", 0, 4)])
        assert engine.core_numbers() == before
        assert_exact(engine)

    def test_edge_update_namedtuples_accepted(self):
        engine = DynamicKHCore(path_graph(5), h=2, fallback_ratio=1.0)
        engine.apply_batch([EdgeUpdate(INSERT, 0, 4),
                            EdgeUpdate(DELETE, 1, 2)])
        assert_exact(engine)


class TestFallbackPolicy:
    def test_zero_ratio_always_falls_back(self):
        engine = DynamicKHCore(cycle_graph(10), h=2, fallback_ratio=0.0)
        summary = engine.insert_edge(0, 5)
        assert summary.mode == MODE_FULL
        assert engine.stats.full_recomputes == 1
        assert engine.stats.incremental_repeels == 0
        assert_exact(engine)

    def test_large_region_triggers_fallback(self):
        # In a complete graph every vertex is within distance 1 of the
        # endpoints, so the seed region is the whole graph: with the default
        # ratio the engine must fall back — and stay exact.
        engine = DynamicKHCore(complete_graph(12), h=2)
        summary = engine.delete_edge(0, 1)
        assert summary.mode == MODE_FULL
        assert engine.stats.full_recomputes == 1
        assert_exact(engine)

    def test_incremental_path_used_for_local_update(self):
        graph = relaxed_caveman_graph(12, 6, 0.05, seed=2)
        engine = DynamicKHCore(graph, h=2)
        summary = engine.delete_edge(*next(iter(graph.edges())))
        assert summary.mode == MODE_INCREMENTAL
        assert summary.region_size > 0
        assert summary.universe_size >= summary.region_size
        assert engine.stats.incremental_repeels == 1
        assert engine.stats.peak_universe_size == summary.universe_size
        assert_exact(engine)

    def test_max_expansions_zero_still_exact(self):
        graph = erdos_renyi_graph(16, 0.2, seed=7)
        engine = DynamicKHCore(graph.copy(), h=2, fallback_ratio=1.0,
                               max_expansions=0)
        for update in random_update_stream(graph, 10, seed=8):
            engine.apply(*update)
            assert_exact(engine)


class TestExternalMutation:
    def test_out_of_band_mutation_resyncs_on_query(self):
        engine = DynamicKHCore(path_graph(5), h=2)
        engine.graph.add_edge(0, 4)  # behind the engine's back
        assert_exact(engine)
        assert engine.stats.external_resyncs == 1

    def test_out_of_band_mutation_resyncs_on_apply(self):
        engine = DynamicKHCore(path_graph(5), h=2, fallback_ratio=1.0)
        engine.graph.remove_edge(0, 1)
        engine.apply("+", 0, 1)
        assert engine.stats.external_resyncs == 1
        assert_exact(engine)


class TestQueriesAndStats:
    def test_core_numbers_returns_copy(self):
        engine = DynamicKHCore(path_graph(4), h=2)
        cores = engine.core_numbers()
        cores[0] = 99
        assert engine.core_number(0) != 99

    def test_core_numbers_snapshot_survives_later_updates(self):
        # Regression for the staleness hazard the query service rides on:
        # _incremental_repeel rewrites the engine's core dict in place, so
        # the mapping handed to a caller must be a defensive copy -- an
        # epoch, not a live view that later apply() calls mutate.
        engine = DynamicKHCore(cycle_graph(8), h=2)
        before = engine.core_numbers()
        frozen = dict(before)
        engine.apply("+", 0, 4)
        engine.apply("+", 2, 6)
        assert engine.core_numbers() != frozen  # the updates changed cores
        assert before == frozen  # ...but the caller's epoch is untouched

    def test_decomposition_view(self):
        engine = DynamicKHCore(cycle_graph(6), h=2)
        decomposition = engine.decomposition()
        assert decomposition.algorithm == "dynamic"
        assert decomposition.degeneracy == 4

    def test_counters_record_work(self):
        counters = Counters()
        engine = DynamicKHCore(cycle_graph(12), h=2, counters=counters,
                               fallback_ratio=1.0)
        engine.insert_edge(0, 6)
        assert counters.bfs_calls > 0
        assert counters.vertices_visited > 0

    def test_stats_as_dict_keys(self):
        engine = DynamicKHCore(path_graph(4), h=2, fallback_ratio=1.0)
        engine.insert_edge(0, 3)
        snapshot = engine.stats.as_dict()
        assert snapshot["updates_applied"] == 1
        assert set(snapshot) >= {"incremental_repeels", "full_recomputes",
                                 "peak_universe_size", "cores_changed"}

    def test_repr_mentions_sizes(self):
        engine = DynamicKHCore(path_graph(4), h=2)
        assert "4" in repr(engine)

    def test_string_labels_on_csr_backend(self):
        graph = Graph([("a", "b"), ("b", "c"), ("c", "a")])
        engine = DynamicKHCore(graph, h=2, backend="csr", fallback_ratio=1.0)
        engine.apply("+", "a", "d")
        engine.apply("-", "b", "c")
        assert_exact(engine)


class TestStarJump:
    def test_star_insert_jumps_cores(self):
        # Attaching a leaf to a star's center makes every vertex mutually
        # reachable within distance 2: all cores jump to n (the paper's
        # motivation for why rises are not bounded by 1 when h > 1).
        engine = DynamicKHCore(star_graph(5), h=2, fallback_ratio=1.0)
        assert engine.core_number(0) == 5
        engine.apply("+", 0, 99)
        assert engine.core_number(99) == 6
        assert_exact(engine)


class TestStreamFormat:
    def test_round_trip(self, tmp_path):
        updates = [EdgeUpdate(INSERT, 0, 1), EdgeUpdate(DELETE, 0, 1),
                   EdgeUpdate(INSERT, "a", "b")]
        path = tmp_path / "updates.txt"
        write_update_stream(updates, path)
        assert read_update_stream(path) == updates

    def test_comments_and_aliases(self, tmp_path):
        path = tmp_path / "updates.txt"
        path.write_text("# header\n% snap comment\nadd 1 2\n\ndel 1 2\n")
        assert read_update_stream(path) == [EdgeUpdate(INSERT, 1, 2),
                                            EdgeUpdate(DELETE, 1, 2)]

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "updates.txt"
        path.write_text("+ 1\n")
        with pytest.raises(GraphFormatError):
            read_update_stream(path)

    def test_unknown_op_raises(self, tmp_path):
        path = tmp_path / "updates.txt"
        path.write_text("? 1 2\n")
        with pytest.raises(GraphFormatError):
            read_update_stream(path)

    def test_random_stream_from_empty_graph_stays_valid(self):
        # Regression: all-new-vertex streams on an empty graph must never
        # emit a self-loop or a duplicate insert.
        for seed in range(10):
            updates = random_update_stream(Graph(), 6, insert_fraction=1.0,
                                           new_vertex_p=1.0, seed=seed)
            scratch = Graph()
            for op, u, v in updates:
                assert u != v
                assert op == INSERT and not scratch.has_edge(u, v)
                scratch.add_edge(u, v)

    def test_random_stream_is_applicable_and_deterministic(self):
        graph = erdos_renyi_graph(14, 0.2, seed=0)
        first = random_update_stream(graph, 25, new_vertex_p=0.2, seed=3)
        second = random_update_stream(graph, 25, new_vertex_p=0.2, seed=3)
        assert first == second
        scratch = graph.copy()
        for op, u, v in first:  # raises if ever invalid
            if op == INSERT:
                assert not scratch.has_edge(u, v)
                scratch.add_edge(u, v)
            else:
                scratch.remove_edge(u, v)


class TestChangedVertices:
    """`UpdateSummary.changed_vertices` names exactly the moved cores.

    The persistent-index refresher rewrites only these rows, so the set
    must cover every vertex whose core differs from before the batch — on
    the incremental path, the full-recompute path, and the default blend.
    """

    def replay_and_check_sets(self, graph, updates, batch_size,
                              **engine_kwargs):
        engine = DynamicKHCore(graph, h=2, **engine_kwargs)
        for offset in range(0, len(updates), batch_size):
            before = engine.core_numbers()
            summary = engine.apply_batch(updates[offset:offset + batch_size])
            after = engine.core_numbers()
            expected = ({v for v, c in after.items() if before.get(v) != c}
                        | {v for v in before if v not in after})
            assert summary.changed_vertices == frozenset(expected), (
                f"offset {offset} mode={summary.mode}")
            assert summary.cores_changed == len(summary.changed_vertices)
        return engine

    def test_incremental_mode_exact_sets(self):
        graph = relaxed_caveman_graph(4, 5, 0.15, seed=1)
        updates = random_update_stream(graph, 24, new_vertex_p=0.15, seed=2)
        engine = self.replay_and_check_sets(graph, updates, batch_size=4,
                                            fallback_ratio=1.0)
        assert engine.stats.full_recomputes == 0

    def test_full_mode_exact_sets(self):
        graph = relaxed_caveman_graph(4, 5, 0.15, seed=1)
        updates = random_update_stream(graph, 24, new_vertex_p=0.15, seed=2)
        engine = self.replay_and_check_sets(graph, updates, batch_size=4,
                                            fallback_ratio=0.0)
        assert engine.stats.incremental_repeels == 0

    def test_default_policy_exact_sets(self):
        graph = erdos_renyi_graph(16, 0.18, seed=5)
        updates = random_update_stream(graph, 20, new_vertex_p=0.1, seed=6)
        self.replay_and_check_sets(graph, updates, batch_size=3)

    def test_new_vertices_are_reported_as_changed(self):
        engine = DynamicKHCore(path_graph(3), h=2, fallback_ratio=1.0)
        summary = engine.apply_batch([("+", 2, 99)])
        assert 99 in summary.changed_vertices

    def test_noop_batch_reports_empty_set(self):
        engine = DynamicKHCore(path_graph(3), h=2)
        summary = engine.apply_batch([("+", 0, 1)])  # edge already present
        assert summary.mode == MODE_NOOP
        assert summary.changed_vertices == frozenset()
        assert summary.cores_changed == 0

    def test_core_preserving_update_reports_empty_set(self):
        # A chord in a long cycle leaves every (2,2)-core untouched only if
        # cores truly did not move; assert the set matches reality either way.
        engine = DynamicKHCore(cycle_graph(12), h=2, fallback_ratio=1.0)
        before = engine.core_numbers()
        summary = engine.apply_batch([("+", 0, 6)])
        after = engine.core_numbers()
        expected = {v for v in after if before.get(v) != after[v]}
        assert summary.changed_vertices == frozenset(expected)


class TestSnapshotRefresh:
    """A CSR-family engine refreshes its own snapshot after every batch."""

    @staticmethod
    def insertions(graph, count, seed):
        """``count`` one-edge insertion batches; every fifth adds a vertex."""
        rng = random.Random(seed)
        vertices = list(graph.vertices())
        batches, present = [], set()
        while len(batches) < count:
            if len(batches) % 5 == 4:
                u, v = rng.choice(vertices), f"new-{len(batches)}"
            else:
                u, v = rng.sample(vertices, 2)
                if graph.has_edge(u, v) or frozenset((u, v)) in present:
                    continue
            present.add(frozenset((u, v)))
            batches.append([(INSERT, u, v)])
        return batches

    def test_ram_snapshot_refreshes_through_delta_rebuild(self, monkeypatch):
        graph = powerlaw_cluster_graph(400, 2, 0.3, seed=1)
        engine = DynamicKHCore(graph, h=2, backend="csr")
        calls = {"rebuilt": 0, "from_graph": 0}
        rebuilt = CSRGraph.rebuilt
        from_graph = CSRGraph.from_graph.__func__

        def counting_rebuilt(snapshot, *args, **kwargs):
            calls["rebuilt"] += 1
            return rebuilt(snapshot, *args, **kwargs)

        def counting_from_graph(cls, *args, **kwargs):
            calls["from_graph"] += 1
            return from_graph(cls, *args, **kwargs)

        monkeypatch.setattr(CSRGraph, "rebuilt", counting_rebuilt)
        monkeypatch.setattr(CSRGraph, "from_graph",
                            classmethod(counting_from_graph))
        try:
            for batch in self.insertions(graph, 20, seed=2):
                before = dict(calls)
                engine.apply_batch(batch)
                assert calls["rebuilt"] == before["rebuilt"] + 1
                assert calls["from_graph"] == before["from_graph"]
                snapshot = engine.csr_snapshot()
                assert snapshot.storage_kind == "ram"
                full = from_graph(CSRGraph, engine.graph)
                assert list(snapshot.indptr) == list(full.indptr)
                assert list(snapshot.adjacency) == list(full.adjacency)
                assert list(snapshot.labels) == list(full.labels)
            assert calls == {"rebuilt": 20, "from_graph": 0}
            assert_exact(engine)
        finally:
            engine.close()

    def test_spilled_snapshot_stays_spilled(self, monkeypatch):
        monkeypatch.setenv("KH_CORE_MMAP_THRESHOLD", "0")
        graph = powerlaw_cluster_graph(120, 2, 0.3, seed=1)
        engine = DynamicKHCore(graph, h=2, backend="csr")
        try:
            for batch in self.insertions(graph, 6, seed=3):
                engine.apply_batch(batch)
                snapshot = engine.csr_snapshot()
                assert snapshot.storage_kind == "mmap"
                full = CSRGraph.from_graph(engine.graph)
                assert list(snapshot.indptr) == list(full.indptr)
                assert list(snapshot.adjacency) == list(full.adjacency)
            assert_exact(engine)
        finally:
            engine.close()
