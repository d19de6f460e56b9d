"""Tests for the shared-memory multiprocessing engine (:mod:`repro.parallel`).

Two batteries:

* **Executor identity** — serial, thread and process executors produce
  identical core numbers across every generator family for h in {1, 2, 3}
  (the §4.6 acceptance property: parallelization must never change the
  decomposition).
* **Lifecycle** — shared-memory blocks are unlinked on normal close, on
  worker exception and on ``KeyboardInterrupt``; refresh re-exports under a
  new generation; ``fork`` and ``spawn`` start methods agree; no
  ``/dev/shm`` segment outlives a facade call.
"""

import multiprocessing
import os

import pytest
from multiprocessing import shared_memory

from repro.core import compute_h_degrees, core_decomposition, h_bz
from repro.core.backends import CSREngine
from repro.errors import ParameterError
from repro.graph import Graph
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi_graph
from repro.instrumentation import Counters
from repro.parallel import SharedCSRExport, SharedCSRView, SharedMemoryExecutor

from test_dynamic_properties import FAMILIES


def _assert_unlinked(name):
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)


# --------------------------------------------------------------------- #
# executor identity
# --------------------------------------------------------------------- #
class TestExecutorIdentity:
    @pytest.mark.parametrize("h", [1, 2, 3])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_identical_core_numbers_across_executors(self, family, h):
        graph = FAMILIES[family]()
        expected = core_decomposition(graph, h, backend="csr",
                                      executor="serial").core_index
        for executor in ("thread", "process"):
            got = core_decomposition(graph, h, backend="csr",
                                     num_workers=2, executor=executor)
            assert got.core_index == expected, (family, h, executor)

    @pytest.mark.parametrize("algorithm", ["h-BZ", "h-LB", "h-LB+UB"])
    def test_identical_per_algorithm(self, algorithm):
        graph = erdos_renyi_graph(40, 0.12, seed=7)
        expected = core_decomposition(graph, 2, algorithm=algorithm,
                                      backend="csr").core_index
        got = core_decomposition(graph, 2, algorithm=algorithm,
                                 backend="csr", num_workers=2,
                                 executor="process").core_index
        assert got == expected

    def test_counters_identical_serial_vs_process(self):
        graph = erdos_renyi_graph(35, 0.12, seed=9)
        serial_counters = Counters()
        core_decomposition(graph, 2, algorithm="h-BZ", backend="csr",
                           counters=serial_counters)
        process_counters = Counters()
        core_decomposition(graph, 2, algorithm="h-BZ", backend="csr",
                           num_workers=2, executor="process",
                           counters=process_counters)
        assert process_counters.vertices_visited == \
            serial_counters.vertices_visited
        assert process_counters.hdegree_computations == \
            serial_counters.hdegree_computations

    def test_dict_engine_caches_process_delegate(self):
        """Dict-backend process passes share one CSR delegate (and pool)."""
        from repro.core.backends import DictEngine
        graph = erdos_renyi_graph(30, 0.15, seed=12)
        engine = DictEngine(graph)
        try:
            first = engine.bulk_h_degrees(2, num_workers=2,
                                          executor="process")
            delegate = engine._process_delegate
            assert delegate is not None
            assert first == engine.bulk_h_degrees(2)
            second = engine.bulk_h_degrees(3, num_workers=2,
                                           executor="process")
            assert engine._process_delegate is delegate  # no re-spin
            assert second == engine.bulk_h_degrees(3)
            u, v = 0, 13
            if graph.has_edge(u, v):
                graph.remove_edge(u, v)
            else:
                graph.add_edge(u, v)
            engine.refresh(touched=[u, v])
            third = engine.bulk_h_degrees(2, num_workers=2,
                                          executor="process")
            assert third == compute_h_degrees(graph, 2)
        finally:
            engine.close()

    def test_pool_survives_across_bulk_passes(self):
        """One engine reuses its pool (and export) across dispatches."""
        graph = erdos_renyi_graph(40, 0.12, seed=3)
        engine = CSREngine(graph)
        try:
            first = engine.bulk_h_degrees(2, num_workers=2,
                                          executor="process")
            name = engine._shm_pool.shm_name
            second = engine.bulk_h_degrees(3, num_workers=2,
                                           executor="process")
            assert engine._shm_pool.shm_name == name  # same export reused
            assert first == engine.bulk_h_degrees(2)
            assert second == engine.bulk_h_degrees(3)
        finally:
            engine.close()


# --------------------------------------------------------------------- #
# shared-memory lifecycle
# --------------------------------------------------------------------- #
class TestLifecycle:
    def test_unlinked_on_normal_close(self):
        graph = erdos_renyi_graph(30, 0.15, seed=1)
        engine = CSREngine(graph)
        engine.bulk_h_degrees(2, num_workers=2, executor="process")
        name = engine._shm_pool.shm_name
        assert name is not None
        engine.close()
        _assert_unlinked(name)

    def test_close_is_idempotent_and_engine_reusable(self):
        graph = erdos_renyi_graph(25, 0.15, seed=2)
        engine = CSREngine(graph)
        serial = engine.bulk_h_degrees(2)
        engine.bulk_h_degrees(2, num_workers=2, executor="process")
        engine.close()
        engine.close()
        # A later process dispatch simply spins a fresh pool up.
        assert engine.bulk_h_degrees(2, num_workers=2,
                                     executor="process") == serial
        engine.close()

    def test_unlinked_on_worker_exception(self):
        csr = CSRGraph.from_graph(erdos_renyi_graph(20, 0.2, seed=3))
        pool = SharedMemoryExecutor(2)
        pool.ensure_export(csr)
        name = pool.shm_name
        with pytest.raises(IndexError):
            # An out-of-range vertex index makes the worker BFS raise.
            pool.bulk_h_degrees(csr, 2, [csr.num_vertices + 5])
        _assert_unlinked(name)
        assert pool.shm_name is None

    def test_unlinked_on_keyboard_interrupt(self, monkeypatch):
        csr = CSRGraph.from_graph(erdos_renyi_graph(20, 0.2, seed=4))
        pool = SharedMemoryExecutor(2)
        pool.ensure_export(csr)
        name = pool.shm_name
        import concurrent.futures

        def interrupted(self, timeout=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(concurrent.futures.Future, "result", interrupted)
        with pytest.raises(KeyboardInterrupt):
            pool.bulk_h_degrees(csr, 2, list(range(csr.num_vertices)))
        monkeypatch.undo()
        _assert_unlinked(name)

    def test_closed_executor_rejects_reexport(self):
        csr = CSRGraph.from_graph(erdos_renyi_graph(10, 0.3, seed=5))
        pool = SharedMemoryExecutor(2)
        pool.ensure_export(csr)
        pool.close()
        with pytest.raises(ParameterError):
            pool.ensure_export(csr)

    def test_refresh_reexports_under_new_generation(self):
        graph = erdos_renyi_graph(30, 0.15, seed=6)
        engine = CSREngine(graph)
        try:
            engine.bulk_h_degrees(2, num_workers=2, executor="process")
            old_name = engine._shm_pool.shm_name
            u, v = 0, 17
            if graph.has_edge(u, v):
                graph.remove_edge(u, v)
            else:
                graph.add_edge(u, v)
            engine.refresh(touched=[u, v])
            # The stale block is unlinked immediately; the new snapshot is
            # exported lazily by the next dispatch (a mutation stream with
            # no process dispatches must not pay an export per refresh).
            _assert_unlinked(old_name)
            assert engine._shm_pool.shm_name is None
            got = engine.bulk_h_degrees(2, num_workers=2,
                                        executor="process")
            assert engine._shm_pool.shm_name not in (None, old_name)
            assert engine.to_labels(got) == compute_h_degrees(graph, 2)
        finally:
            engine.close()

    def test_engine_recovers_after_failed_dispatch(self):
        """A worker failure must not brick the engine's process path."""
        graph = erdos_renyi_graph(25, 0.15, seed=11)
        engine = CSREngine(graph)
        try:
            serial = engine.bulk_h_degrees(2)
            pool = engine._process_pool(2)
            with pytest.raises(IndexError):
                pool.bulk_h_degrees(engine.csr, 2,
                                    [engine.csr.num_vertices + 7])
            assert pool.closed
            # The next process request discards the dead pool and recovers.
            got = engine.bulk_h_degrees(2, num_workers=2,
                                        executor="process")
            assert got == serial
        finally:
            engine.close()

    def test_facade_leaves_no_dev_shm_segments(self):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        before = set(os.listdir("/dev/shm"))
        graph = erdos_renyi_graph(40, 0.1, seed=8)
        core_decomposition(graph, 2, algorithm="h-BZ", backend="csr",
                           num_workers=2, executor="process")
        leaked = {name for name in set(os.listdir("/dev/shm")) - before
                  if name.startswith("psm_")}
        assert leaked == set()

    def test_fork_and_spawn_identical_core_numbers(self):
        graph = erdos_renyi_graph(30, 0.15, seed=10)
        expected = h_bz(graph, 2, backend="csr").core_index
        available = multiprocessing.get_all_start_methods()
        tested = 0
        for method in ("fork", "spawn"):
            if method not in available:
                continue
            engine = CSREngine(graph)
            engine._process_pool(2, start_method=method)
            try:
                got = h_bz(graph, 2, num_workers=2, backend=engine,
                           executor="process").core_index
                assert got == expected, method
            finally:
                engine.close()
            tested += 1
        assert tested >= 1


# --------------------------------------------------------------------- #
# export/view plumbing
# --------------------------------------------------------------------- #
class TestSharedCSRBlocks:
    def test_view_mirrors_csr_arrays(self):
        csr = CSRGraph.from_graph(Graph([(0, 1), (1, 2), (2, 0), (2, 3)]))
        export = SharedCSRExport(csr, generation=1)
        try:
            view = SharedCSRView(export.layout())
            try:
                assert list(view.indptr) == list(csr.indptr)
                assert list(view.adjacency) == list(csr.adjacency)
                assert view.num_vertices == csr.num_vertices
            finally:
                view.close()
        finally:
            export.close()

    def test_alive_region_roundtrip(self):
        csr = CSRGraph.from_graph(Graph([(0, 1), (1, 2)]))
        export = SharedCSRExport(csr, generation=1)
        try:
            export.write_alive(bytes([1, 0, 1]))
            view = SharedCSRView(export.layout())
            try:
                assert bytes(view.alive_region) == bytes([1, 0, 1])
            finally:
                view.close()
        finally:
            export.close()

    def test_write_alive_rejects_wrong_length(self):
        csr = CSRGraph.from_graph(Graph([(0, 1)]))
        export = SharedCSRExport(csr, generation=1)
        try:
            with pytest.raises(ValueError):
                export.write_alive(b"\x01")
        finally:
            export.close()

    def test_empty_graph_export(self):
        csr = CSRGraph.from_graph(Graph())
        export = SharedCSRExport(csr, generation=1)
        name = export.name
        export.close()
        _assert_unlinked(name)
