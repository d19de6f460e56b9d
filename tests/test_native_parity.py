"""Top-of-ladder battery: the numpy engine's two kernels, and no ``native``.

The engine ladder is dict → csr → numpy; there is no compiled ``native``
rung above it any more.  The numpy engine is the CSR engine with a NumPy
bulk h-degree kernel, so one engine now runs two traversal kernels over
one snapshot: ``ArrayBFS`` for every per-vertex query (h-degree fills,
bounds, peel decrements) and ``NumpyBulk`` for the many-sources bulk pass.

``tests/test_numpy_parity.py`` checks the numpy engine against the CSR
engine.  This battery checks the two kernels *inside* one numpy engine
against each other — across every generator family, for h in {1, 2, 3},
under permuted insertion orders, over every executor, through refreshes
and kernel clones — and that the removed ``native`` backend name is
rejected wherever a backend is named.  Everything needing ndarrays skips
without NumPy except the rejection battery at the bottom.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compute_h_degrees, h_bz, h_lb, h_lb_ub
from repro.core.backends import (
    BACKENDS,
    CSREngine,
    DictEngine,
    NumpyEngine,
    numpy_available,
    resolve_engine,
    resolved_backend_name,
)
from repro.errors import ParameterError
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.instrumentation import Counters
from repro.runtime import ExecutionContext
from repro.traversal.array_bfs import DEAD, AliveMask, ArrayBFS

from helpers import INSERTION_ORDERS, reinserted
from test_peel_state import FAMILIES

requires_numpy = pytest.mark.skipif(not numpy_available(),
                                    reason="NumPy not installed")


def _label_degrees(engine, h, **kwargs):
    return engine.to_labels(engine.bulk_h_degrees(h, **kwargs))


def _per_vertex_degrees(engine, h, targets=None, alive=None,
                        counters=None):
    """The engine's per-vertex (``ArrayBFS``) answer, one BFS per target."""
    targets = engine.nodes() if targets is None else targets
    sink = Counters() if counters is None else counters
    return {v: engine.h_degree(v, h, alive, sink) for v in targets}


# --------------------------------------------------------------------- #
# bulk kernel against the same engine's per-vertex kernel
# --------------------------------------------------------------------- #
@requires_numpy
class TestBulkParity:
    @pytest.mark.parametrize("h", [1, 2, 3])
    @pytest.mark.parametrize("family", sorted(FAMILIES), ids=sorted(FAMILIES))
    @pytest.mark.parametrize("order", INSERTION_ORDERS,
                             ids=["plain", "degree", "bfs"])
    def test_bulk_h_degrees_all_families(self, family, h, order):
        """NumPy bulk == the engine's own ArrayBFS loop == dict h-degrees."""
        graph = reinserted(FAMILIES[family](), order)
        reference = _label_degrees(DictEngine(graph), h)
        engine = NumpyEngine(graph)
        loop_counters, bulk_counters = Counters(), Counters()
        per_vertex = _per_vertex_degrees(engine, h, counters=loop_counters)
        bulk = engine.bulk_h_degrees(h, counters=bulk_counters)
        assert bulk == per_vertex
        assert engine.to_labels(bulk) == reference
        assert bulk_counters.bfs_calls == loop_counters.bfs_calls
        assert (bulk_counters.vertices_visited
                == loop_counters.vertices_visited)

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_bulk_executors_match(self, executor):
        """Target subsets under an alive subset, per executor."""
        graph = gen.erdos_renyi_graph(60, 0.1, seed=5)
        engine = NumpyEngine(graph)
        keep = [v for v in engine.nodes() if v % 3]
        alive = engine.alive_subset(keep)
        targets = keep[::2]
        expected = _per_vertex_degrees(engine, 2, targets, alive)
        got = engine.bulk_h_degrees(2, targets=targets, alive=alive,
                                    executor=executor, num_workers=3)
        assert got == expected
        assert list(got) == targets

    def test_bulk_process_executor_matches(self):
        """Pool workers see the refreshed snapshot, not the first export."""
        graph = gen.erdos_renyi_graph(48, 0.12, seed=6)
        engine = NumpyEngine(graph)
        try:
            before = _label_degrees(engine, 2, executor="process",
                                    num_workers=2)
            assert before == _label_degrees(CSREngine(graph), 2)
            graph.add_edge(0, 47)
            graph.add_edge(1, 46)
            engine.refresh({0, 1, 46, 47})
            expected = _label_degrees(CSREngine(graph), 2)
            assert expected != before
            assert _label_degrees(engine, 2, executor="process",
                                  num_workers=2) == expected
        finally:
            engine.close()

    def test_bulk_respects_alive_subset(self):
        graph = gen.relaxed_caveman_graph(4, 5, 0.2, seed=2)
        engine = NumpyEngine(graph)
        half = [i for i in engine.nodes() if i % 2 == 0]
        alive = engine.alive_subset(half)
        assert (engine.bulk_h_degrees(2, targets=half, alive=alive)
                == _per_vertex_degrees(engine, 2, half, alive))

    def test_compute_h_degrees_facade(self):
        graph = gen.watts_strogatz_graph(30, 4, 0.2, seed=4)
        assert (compute_h_degrees(graph, 2, backend="numpy")
                == compute_h_degrees(graph, 2, backend="dict"))
        with pytest.raises(ParameterError, match="unknown backend"):
            compute_h_degrees(graph, 2, backend="native")


# --------------------------------------------------------------------- #
# whole-algorithm parity (peel and bounds on ArrayBFS, bulk on NumPy)
# --------------------------------------------------------------------- #
@requires_numpy
class TestAlgorithmParity:
    @pytest.mark.parametrize("h", [1, 2, 3])
    @pytest.mark.parametrize("family", sorted(FAMILIES), ids=sorted(FAMILIES))
    def test_identical_runs_all_families(self, family, h):
        """h-BZ and h-LB+UB: cores, removal order, counters as on csr."""
        graph = FAMILIES[family]()
        for algorithm in (h_bz, h_lb_ub):
            runs = {}
            for backend in ("csr", "numpy"):
                counters = Counters()
                with ExecutionContext(graph, backend=backend,
                                      counters=counters) as context:
                    result = algorithm(graph, h, context=context)
                runs[backend] = (result.core_index, result.removal_order,
                                 counters.as_dict())
            name = algorithm.__name__
            assert runs["numpy"][0] == runs["csr"][0], name
            assert runs["numpy"][1] == runs["csr"][1], name
            assert runs["numpy"][2] == runs["csr"][2], name

    @pytest.mark.parametrize("algorithm", [h_bz, h_lb, h_lb_ub],
                             ids=["h-BZ", "h-LB", "h-LB+UB"])
    @pytest.mark.parametrize("order", INSERTION_ORDERS,
                             ids=["plain", "degree", "bfs"])
    def test_relabeled_runs_agree(self, algorithm, order):
        """Thread-pool bulk passes under permuted indices: csr's answers."""
        source = gen.barabasi_albert_graph(28, 2, seed=4)
        reference = algorithm(source, 2, backend="dict").core_index
        graph = reinserted(source, order)
        runs = {}
        for backend in ("csr", "numpy"):
            counters = Counters()
            with ExecutionContext(graph, backend=backend, executor="thread",
                                  num_workers=2,
                                  counters=counters) as context:
                result = algorithm(graph, 2, context=context)
            assert result.core_index == reference, (backend, order)
            runs[backend] = (result.removal_order, counters.as_dict())
        assert runs["numpy"] == runs["csr"]

    def test_four_engine_agreement(self):
        """Every name in BACKENDS: one decomposition, to the bit."""
        assert BACKENDS == ("auto", "dict", "csr", "numpy")
        graph = gen.watts_strogatz_graph(48, 4, 0.1, seed=11)
        runs = {}
        for backend in BACKENDS:
            result = h_lb(graph, 2, backend=backend)
            runs[backend] = (result.core_index, result.removal_order)
        assert runs["auto"] == runs["csr"] == runs["numpy"]
        assert runs["dict"][0] == runs["csr"][0]

    @settings(max_examples=25, deadline=None)
    @given(
        num_vertices=st.integers(min_value=4, max_value=18),
        edge_probability=st.floats(min_value=0.05, max_value=0.6),
        seed=st.integers(min_value=0, max_value=10_000),
        h=st.integers(min_value=1, max_value=3),
        executor=st.sampled_from(["serial", "thread"]),
        workers=st.integers(min_value=1, max_value=3),
        edits=st.lists(st.tuples(st.integers(0, 17), st.integers(0, 17)),
                       max_size=6),
    )
    def test_hypothesis_native_executor_sweep(self, num_vertices,
                                              edge_probability, seed, h,
                                              executor, workers, edits):
        """Random edits + refresh: the bulk kernel tracks every snapshot."""
        graph = gen.erdos_renyi_graph(num_vertices, edge_probability,
                                      seed=seed)
        engine = NumpyEngine(graph)
        for u, v in edits:
            u, v = u % num_vertices, v % num_vertices
            if u == v:
                continue
            if graph.has_edge(u, v):
                graph.remove_edge(u, v)
            else:
                graph.add_edge(u, v)
            engine.refresh({u, v})
            expected = _label_degrees(DictEngine(graph), h)
            assert _label_degrees(engine, h, executor=executor,
                                  num_workers=workers) == expected
            assert engine.to_labels(_per_vertex_degrees(engine, h)) == expected


# --------------------------------------------------------------------- #
# kernel-level parity (the engine's ArrayBFS scratch and NumpyBulk)
# --------------------------------------------------------------------- #
@requires_numpy
class TestScratchParity:
    def kernels(self, graph):
        from repro.traversal.numpy_bfs import NumpyBulk

        csr = CSRGraph.from_graph(graph)
        return csr, ArrayBFS(csr), NumpyBulk(csr)

    @pytest.mark.parametrize("family", sorted(FAMILIES), ids=sorted(FAMILIES))
    def test_single_source_identical_orders(self, family):
        """Bulk passes in between leave the engine's scratch untouched."""
        graph = FAMILIES[family]()
        engine = NumpyEngine(graph)
        fresh = ArrayBFS(engine.csr)
        scratch = engine.scratch
        for source in engine.nodes():
            for h in (1, 2, None):
                engine.bulk_h_degrees(2)
                assert scratch.run(source, h) == fresh.run(source, h)
                assert scratch.order == fresh.order
                assert scratch.level_ends == fresh.level_ends
                assert (scratch.visited_with_distance()
                        == fresh.visited_with_distance())

    def test_alive_mask_and_discard_sync(self):
        """Discards on the engine's installed mask reach both kernels."""
        graph = gen.relaxed_caveman_graph(3, 5, 0.2, seed=1)
        engine = NumpyEngine(graph)
        mask = engine.full_alive()
        order = list(engine.nodes())
        for victim in order[::2]:
            engine.h_degree(victim, 2, mask)
            mask.discard(victim)
        survivors = [v for v in order if v not in set(order[::2])]
        expected = _per_vertex_degrees(engine, 3, survivors, mask)
        for executor in ("serial", "thread"):
            assert engine.bulk_h_degrees(3, targets=survivors, alive=mask,
                                         executor=executor,
                                         num_workers=2) == expected

    def test_generation_rollover_is_sound(self):
        """A rolled-over scratch still agrees with the bulk kernel."""
        engine = NumpyEngine(gen.cycle_graph(8))
        expected = engine.bulk_h_degrees(2)
        engine.scratch._generation = DEAD - 1
        assert _per_vertex_degrees(engine, 2) == expected
        assert engine.scratch._generation == 8  # restarted at 1, then 7 more

    def test_bulk_kernel_matches_per_source_loop(self):
        """Unbounded (h=None) passes included: one answer per source."""
        for builder in (lambda: gen.star_graph(40),
                        lambda: gen.erdos_renyi_graph(50, 0.15, seed=8),
                        lambda: gen.path_graph(30)):
            graph = builder()
            csr, interpreted, vectorized = self.kernels(graph)
            sources = list(range(csr.num_vertices))
            for h in (None, 1, 4):
                per_source = [interpreted.run(v, h) for v in sources]
                assert vectorized.bulk(sources, h).tolist() == per_source

    def test_bulk_respects_alive_mask(self):
        """The raw uint8 mask the pool workers pass == an AliveMask."""
        import numpy as np

        graph = gen.relaxed_caveman_graph(4, 4, 0.3, seed=7)
        csr, interpreted, vectorized = self.kernels(graph)
        sources = list(range(0, csr.num_vertices, 2))
        alive = AliveMask.of(csr.num_vertices, sources)
        raw = np.zeros(csr.num_vertices, dtype=np.uint8)
        raw[sources] = 1
        expected = [interpreted.run(v, 2, alive, hook=False)
                    for v in sources]
        assert vectorized.bulk(sources, 2, alive).tolist() == expected
        assert vectorized.bulk(sources, 2, raw).tolist() == expected

    def test_bulk_generation_rollover_is_sound(self, monkeypatch):
        """Stamp scratch reused across blocks and calls stays zeroed."""
        from repro.traversal import numpy_bfs

        graph = gen.cycle_graph(10)
        csr, interpreted, vectorized = self.kernels(graph)
        alive = AliveMask.full(csr.num_vertices)
        expected = [interpreted.run(v, 2) for v in range(10)]
        # Three sources per block: four blocks share one stamp buffer.
        monkeypatch.setattr(numpy_bfs, "BLOCK_SCRATCH_BUDGET", 30)
        for _ in range(3):
            assert vectorized.bulk(range(10), 2, alive).tolist() == expected
            assert not vectorized._block_seen.any()

    def test_counters_batch_totals(self):
        """Engine-level bulk counters equal the per-vertex loop's."""
        graph = gen.erdos_renyi_graph(40, 0.12, seed=3)
        engine = NumpyEngine(graph)
        loop_counters = Counters()
        _per_vertex_degrees(engine, 2, counters=loop_counters)
        for executor in ("serial", "thread"):
            bulk_counters = Counters()
            engine.bulk_h_degrees(2, counters=bulk_counters,
                                  executor=executor, num_workers=2)
            assert bulk_counters.bfs_calls == loop_counters.bfs_calls
            assert (bulk_counters.vertices_visited
                    == loop_counters.vertices_visited)

    def test_clone_shares_arrays_not_scratch(self):
        graph = gen.grid_graph(5, 5)
        _, _, vectorized = self.kernels(graph)
        vectorized.bulk(range(25), 2)
        twin = vectorized.clone()
        assert twin.indptr is vectorized.indptr
        assert twin.adjacency is vectorized.adjacency
        assert twin._block_seen is None
        assert (twin.bulk(range(25), 2).tolist()
                == vectorized.bulk(range(25), 2).tolist())
        assert twin._block_seen is not vectorized._block_seen


# --------------------------------------------------------------------- #
# shared-memory path: engine kinds the worker does not know
# --------------------------------------------------------------------- #
@requires_numpy
class TestSharedMemoryPath:
    def test_run_chunk_native_kind_matches_csr_kind(self):
        """A kind other than numpy runs the interpreted csr kernel."""
        from repro.parallel import SharedCSRExport
        from repro.parallel import worker as worker_module

        graph = gen.relaxed_caveman_graph(4, 5, 0.2, seed=4)
        csr = CSRGraph.from_graph(graph)
        export = SharedCSRExport(csr, generation=1)
        try:
            chunk = list(range(csr.num_vertices))
            csr_pairs, csr_counters = worker_module.run_chunk(
                export.layout(), chunk, 2, False, 0, "csr")
            nat_pairs, nat_counters = worker_module.run_chunk(
                export.layout(), chunk, 2, False, 0, "native")
            assert worker_module._STATE["kind"] == "csr"
            assert dict(nat_pairs) == dict(csr_pairs)
            assert nat_counters.as_dict() == csr_counters.as_dict()
        finally:
            worker_module._detach()
            export.close()

    def test_run_chunk_bottoms_out_at_interpreted(self, monkeypatch):
        """numpy kind, no importable kernel, alive mask on: csr answers."""
        from repro.parallel import SharedCSRExport
        from repro.parallel import worker as worker_module

        graph = gen.cycle_graph(12)
        csr = CSRGraph.from_graph(graph)
        export = SharedCSRExport(csr, generation=1)
        export.write_alive(bytes(int(v != 6) for v in range(12)))
        monkeypatch.setitem(sys.modules, "repro.traversal.numpy_bfs", None)
        try:
            # Sources must be alive: vertex 6 is dead, so it is no target.
            chunk = [v for v in range(12) if v != 6]
            pairs, _ = worker_module.run_chunk(export.layout(), chunk, 2,
                                               True, 1, "numpy")
            assert worker_module._STATE["kind"] == "csr"
            expected = {v: 4 for v in chunk}
            expected.update({4: 3, 5: 2, 7: 2, 8: 3})
            assert dict(pairs) == expected
        finally:
            worker_module._detach()
            export.close()


# --------------------------------------------------------------------- #
# engine resolution, eager kernel build, refresh, dynamic plumbing
# --------------------------------------------------------------------- #
@requires_numpy
class TestEngineResolution:
    def test_explicit_native_engine(self):
        graph = gen.cycle_graph(6)
        with pytest.raises(ParameterError, match="unknown backend 'native'"):
            resolve_engine(graph, "native")
        with pytest.raises(ParameterError, match="unknown backend"):
            resolved_backend_name(graph, "native")

    def test_warmup_runs_at_construction_by_default(self):
        """The NumPy kernel exists before the first bulk pass."""
        from repro.traversal.numpy_bfs import NumpyBulk

        engine = NumpyEngine(gen.cycle_graph(6))
        assert isinstance(engine._bulk, NumpyBulk)
        assert engine._bulk.indptr.tolist() == list(engine.csr.indptr)
        assert engine._bulk._block_seen is None  # built, never run
        assert "numpy" in sys.modules

    def test_warmup_is_idempotent(self):
        """A refresh with nothing changed keeps the kernel it has."""
        graph = gen.cycle_graph(10)
        engine = NumpyEngine(graph)
        kernel = engine._bulk
        engine.refresh()
        engine.refresh(set())
        assert engine._bulk is kernel
        assert _label_degrees(engine, 2) == _label_degrees(
            DictEngine(graph), 2)

    def test_refresh_rebuilds_compiled_scratch(self):
        """A refresh after a change builds the new kernel right away."""
        graph = gen.cycle_graph(10)
        engine = NumpyEngine(graph)
        kernel = engine._bulk
        before = _label_degrees(engine, 2)
        graph.add_edge(0, 5)
        engine.refresh({0, 5})
        assert engine._bulk is not kernel
        assert engine._bulk.adjacency.tolist() == list(engine.csr.adjacency)
        assert isinstance(engine.scratch, ArrayBFS)
        after = _label_degrees(engine, 2)
        assert after == _label_degrees(DictEngine(graph), 2)
        assert after != before

    def test_array_peel_is_inherited(self):
        """The engine peels through the array kernel, as every CSR child."""
        from repro.runtime.peel import ArrayPeelState, make_peel_state

        engine = NumpyEngine(gen.cycle_graph(8))
        assert isinstance(make_peel_state(engine), ArrayPeelState)
        assert isinstance(engine.scratch, ArrayBFS)
        # Only the bulk hooks and the kernel's lifecycle are its own.
        overrides = {name for name, value in vars(NumpyEngine).items()
                     if callable(value)}
        assert overrides == {"__init__", "refresh", "_bulk_serial",
                             "_bulk_worker_batch"}

    def test_relabel_through_context(self, monkeypatch):
        """auto's numpy engine indexes vertices in insertion order."""
        monkeypatch.setenv("KH_CORE_NUMPY_THRESHOLD", "0")
        graph = reinserted(gen.barabasi_albert_graph(30, 2, seed=2),
                           "degree")
        with ExecutionContext(graph, backend="auto") as context:
            assert isinstance(context.engine, NumpyEngine)
            assert context.engine.csr.labels == list(graph.vertices())

    def test_dynamic_engine_on_native_backend(self):
        from repro.dynamic import DynamicKHCore

        graph = gen.cycle_graph(8)
        with pytest.raises(ParameterError, match="unknown backend"):
            DynamicKHCore(graph, h=2, backend="native")


# --------------------------------------------------------------------- #
# the removed name: auto never climbs past numpy, requests are refused
# --------------------------------------------------------------------- #
class TestWithoutNative:
    def test_auto_never_selects_native(self, monkeypatch):
        """auto stays inside BACKENDS, with NumPy present or not."""
        from repro.core import backends

        graph = gen.cycle_graph(40)
        # Pretending NumPy is present only works where it really is.
        presences = (True, False) if numpy_available() else (False,)
        for threshold in ("0", "1000000000"):
            monkeypatch.setenv("KH_CORE_NUMPY_THRESHOLD", threshold)
            for present in presences:
                monkeypatch.setattr(backends, "numpy_available",
                                    lambda _p=present: _p)
                name = resolved_backend_name(graph, "auto")
                expected = ("numpy" if present and threshold == "0"
                            else "csr")
                assert name == expected
                assert resolve_engine(graph, "auto").name == name

    def test_explicit_request_raises_clear_error(self):
        """Every entry point names the backends that do exist."""
        graph = gen.cycle_graph(6)
        with pytest.raises(ParameterError) as excinfo:
            ExecutionContext(graph, backend="native")
        assert str(BACKENDS) in str(excinfo.value)
        with pytest.raises(ParameterError, match="unknown backend"):
            h_lb(graph, 2, backend="native")

    def test_disable_env_var_is_a_kill_switch(self, monkeypatch):
        """KH_CORE_DISABLE_NUMPY takes the top rung off the ladder."""
        monkeypatch.setenv("KH_CORE_DISABLE_NUMPY", "1")
        monkeypatch.setenv("KH_CORE_NUMPY_THRESHOLD", "0")
        graph = gen.cycle_graph(40)
        assert not numpy_available()
        assert resolved_backend_name(graph, "auto") == "csr"
        assert type(resolve_engine(graph, "auto")) is CSREngine
        with pytest.raises(ParameterError, match="KH_CORE_DISABLE_NUMPY"):
            resolve_engine(graph, "numpy")
