"""Executor x engine interaction battery.

Every (engine, executor, workers) cell must produce the same label-space
h-degrees, the same decomposition, and the same merged counter totals as
the serial reference.  On the numpy engine each thread batch runs a cloned
NumPy bulk kernel over the shared snapshot arrays, so result identity there
is a concurrency-safety assertion, not a tautology.  Everything needing
ndarrays skips without NumPy.
"""

from __future__ import annotations

import pytest

from repro.core import h_lb
from repro.core.backends import numpy_available, resolve_engine
from repro.graph import generators as gen
from repro.instrumentation import Counters
from repro.runtime import ExecutionContext

requires_numpy = pytest.mark.skipif(not numpy_available(),
                                    reason="NumPy not installed")

EXECUTOR_CELLS = [("serial", 1), ("thread", 2), ("thread", 4),
                  ("process", 2)]


def _engines_under_test():
    engines = ["dict", "csr"]
    if numpy_available():
        engines.append("numpy")
    return engines


def _matrix_graph():
    # Two caveman-ish communities plus shortcut edges: uneven degrees make
    # the LPT chunk plan produce genuinely different batches per worker
    # count, so a scheduling bug cannot hide behind uniform chunks.
    graph = gen.relaxed_caveman_graph(5, 8, 0.25, seed=13)
    for i in range(0, 30, 3):
        graph.add_edge(i, (i * 7 + 11) % graph.num_vertices)
    return graph


class TestResultIdentity:
    @pytest.mark.parametrize("engine_name", ["dict", "csr", "numpy"])
    def test_bulk_h_degrees_identical_across_executors(self, engine_name):
        """Every executor cell returns the serial cell's exact dict."""
        if engine_name == "numpy" and not numpy_available():
            pytest.skip("NumPy not installed")
        graph = _matrix_graph()
        engine = resolve_engine(graph, engine_name)
        try:
            reference = None
            for executor, workers in EXECUTOR_CELLS:
                got = engine.to_labels(engine.bulk_h_degrees(
                    2, executor=executor, num_workers=workers))
                if reference is None:
                    reference = got
                else:
                    assert got == reference, (engine_name, executor, workers)
        finally:
            engine.close()

    @requires_numpy
    @pytest.mark.parametrize("executor,workers", EXECUTOR_CELLS,
                             ids=[f"{e}-{w}" for e, w in EXECUTOR_CELLS])
    def test_numpy_matches_csr_serial(self, executor, workers):
        """The NumPy bulk kernel against the ArrayBFS reference, per cell."""
        graph = _matrix_graph()
        csr = resolve_engine(graph, "csr")
        vectorized = resolve_engine(graph, "numpy")
        try:
            expected = csr.to_labels(csr.bulk_h_degrees(2))
            got = vectorized.to_labels(vectorized.bulk_h_degrees(
                2, executor=executor, num_workers=workers))
            assert got == expected
        finally:
            csr.close()
            vectorized.close()

    def test_decomposition_identical_across_matrix(self):
        """Full h-LB runs: cores and removal orders agree in every cell."""
        graph = _matrix_graph()
        reference = h_lb(graph, 2, backend="dict").core_index
        for engine_name in _engines_under_test():
            for executor, workers in EXECUTOR_CELLS:
                with ExecutionContext(graph, backend=engine_name,
                                      executor=executor,
                                      num_workers=workers) as context:
                    result = h_lb(graph, 2, context=context)
                assert result.core_index == reference, (
                    engine_name, executor, workers)

    def test_counter_totals_identical_across_executors(self):
        """Merged per-worker counters equal the serial totals exactly."""
        graph = _matrix_graph()
        for engine_name in _engines_under_test():
            if engine_name == "dict":
                # The dict engine's executor path routes through the
                # compute_h_degrees facade, whose counter surface the
                # facade tests already cover.
                continue
            totals = []
            engine = resolve_engine(graph, engine_name)
            try:
                for executor, workers in EXECUTOR_CELLS:
                    counters = Counters()
                    engine.bulk_h_degrees(2, executor=executor,
                                          num_workers=workers,
                                          counters=counters)
                    totals.append(counters.as_dict())
            finally:
                engine.close()
            assert all(t == totals[0] for t in totals), engine_name

    @requires_numpy
    def test_numpy_thread_under_peeling_alive_masks(self):
        """Threaded bulk passes over shrinking alive sets stay identical.

        Exercises the mid-peel shape: an alive mask, a target subset, and
        multiple thread workers hitting the NumPy bulk kernel through
        cloned kernels.
        """
        graph = _matrix_graph()
        csr = resolve_engine(graph, "csr")
        vectorized = resolve_engine(graph, "numpy")
        try:
            survivors = [i for i in csr.nodes() if i % 3 != 0]
            masks = {"csr": csr.alive_subset(survivors),
                     "numpy": vectorized.alive_subset(survivors)}
            expected = csr.bulk_h_degrees(2, targets=survivors,
                                          alive=masks["csr"])
            for workers in (2, 4):
                got = vectorized.bulk_h_degrees(2, targets=survivors,
                                                alive=masks["numpy"],
                                                executor="thread",
                                                num_workers=workers)
                assert got == expected, workers
        finally:
            csr.close()
            vectorized.close()
