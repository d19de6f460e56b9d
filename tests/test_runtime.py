"""Tests for the execution runtime: context lifecycle, ownership, workers.

Covers the three contracts the runtime layer owns:

* **Engine ownership** — a context closes engines it resolved from a name,
  and *never* closes a caller-supplied engine or a caller-supplied context
  (the regression the old copy-pasted ``owned = isinstance(backend, str)``
  pattern existed to enforce, now implemented exactly once).
* **Worker count** — the context is the one place a worker count is
  resolved (``None`` means 1) and validated (below 1 is rejected), for the
  library, the CLI and the dynamic engine alike.
* **Context plumbing** — the context's backend/executor/worker choices
  reach the algorithms, the engine fixes the peel-state layout, and the
  context validates its inputs.
"""

from __future__ import annotations

import warnings

import pytest

from repro.core import (
    CSREngine,
    compute_h_degrees,
    core_decomposition,
    core_decomposition_with_report,
    h_bz,
    h_lb,
    h_lb_ub,
)
from repro.cli import main
from repro.dynamic import DynamicKHCore
from repro.errors import ParameterError
from repro.graph.generators import cycle_graph, relaxed_caveman_graph
from repro.instrumentation import Counters
from repro.runtime import (
    ArrayCoreMap,
    ArrayPeelState,
    DictPeelState,
    ExecutionContext,
    scoped_context,
)

from helpers import force_dict_peel


class RecordingCSREngine(CSREngine):
    """CSR engine that counts ``close()`` calls (ownership regression)."""

    __slots__ = ("close_calls",)

    def __init__(self, graph):
        super().__init__(graph)
        self.close_calls = 0

    def close(self):
        self.close_calls += 1
        super().close()


@pytest.fixture
def graph():
    return relaxed_caveman_graph(5, 5, 0.2, seed=0)


class TestExecutionContext:
    def test_resolves_backend_name(self, graph):
        with ExecutionContext(graph, backend="csr") as ctx:
            assert isinstance(ctx.engine, CSREngine)
            assert ctx.backend_name == "csr"
            assert ctx.owns_engine
        assert ctx.closed

    def test_auto_backend_picks_csr_for_integer_graph(self, graph):
        with ExecutionContext(graph, backend="auto") as ctx:
            assert ctx.backend_name == "csr"

    def test_close_is_idempotent(self, graph):
        ctx = ExecutionContext(graph, backend="dict")
        ctx.close()
        ctx.close()
        assert ctx.closed

    def test_validates_executor_and_peel(self, graph):
        with pytest.raises(ParameterError):
            ExecutionContext(graph, executor="gpu")
        # The engine fixes the peel-state layout; there is no knob.
        with pytest.raises(TypeError):
            ExecutionContext(graph, peel="dict")

    def test_array_peel_requires_csr_engine(self, graph):
        with ExecutionContext(graph, backend="dict") as ctx:
            assert isinstance(ctx.make_peel_state(), DictPeelState)
            assert ctx.make_core_map() == {}
        with ExecutionContext(graph, backend="csr") as ctx:
            assert isinstance(ctx.make_peel_state(), ArrayPeelState)
            assert isinstance(ctx.make_core_map(), ArrayCoreMap)

    def test_bulk_h_degrees_matches_reference(self, graph):
        expected = compute_h_degrees(graph, 2)
        with ExecutionContext(graph, backend="csr") as ctx:
            got = ctx.engine.to_labels(ctx.bulk_h_degrees(2))
        assert got == expected

    def test_repr_mentions_state(self, graph):
        ctx = ExecutionContext(graph, backend="dict", executor="serial")
        assert "serial" in repr(ctx) and "open" in repr(ctx)
        ctx.close()
        assert "closed" in repr(ctx)


class TestEngineOwnership:
    """A caller-supplied engine (or context) is never closed by callees."""

    def test_context_closes_owned_engine(self, graph, monkeypatch):
        calls = []
        original = CSREngine.close
        monkeypatch.setattr(CSREngine, "close",
                            lambda self: (calls.append(self),
                                          original(self)) and None)
        with ExecutionContext(graph, backend="csr"):
            pass
        assert len(calls) == 1

    def test_context_never_closes_supplied_engine(self, graph):
        engine = RecordingCSREngine(graph)
        with ExecutionContext(graph, backend=engine) as ctx:
            assert ctx.engine is engine
            assert not ctx.owns_engine
        assert engine.close_calls == 0

    @pytest.mark.parametrize("algorithm", [h_bz, h_lb, h_lb_ub])
    def test_algorithms_never_close_supplied_engine(self, graph, algorithm):
        engine = RecordingCSREngine(graph)
        algorithm(graph, 2, backend=engine)
        assert engine.close_calls == 0

    def test_facade_never_closes_supplied_engine(self, graph):
        engine = RecordingCSREngine(graph)
        core_decomposition(graph, 2, algorithm="h-LB+UB", backend=engine)
        assert engine.close_calls == 0

    def test_algorithms_never_close_supplied_context(self, graph):
        engine = RecordingCSREngine(graph)
        with ExecutionContext(graph, backend=engine) as ctx:
            h_lb_ub(graph, 2, context=ctx)
            h_bz(graph, 2, context=ctx)
            core_decomposition(graph, 2, context=ctx)
            assert not ctx.closed
        assert engine.close_calls == 0

    def test_facade_closes_engines_it_resolves(self, graph, monkeypatch):
        calls = []
        original = CSREngine.close
        monkeypatch.setattr(CSREngine, "close",
                            lambda self: (calls.append(self),
                                          original(self)) and None)
        core_decomposition(graph, 2, algorithm="h-LB+UB", backend="csr")
        assert len(calls) >= 1

    def test_scoped_context_passthrough_and_validation(self, graph):
        other = cycle_graph(4)
        with ExecutionContext(graph, backend="dict") as ctx:
            with scoped_context(graph, ctx) as inner:
                assert inner is ctx
            with pytest.raises(ParameterError):
                with scoped_context(other, ctx):
                    pass
        with pytest.raises(ParameterError):
            with scoped_context(graph, ctx):  # closed context
                pass

    def test_context_mismatched_graph_rejected_by_algorithms(self, graph):
        with ExecutionContext(graph, backend="dict") as ctx:
            with pytest.raises(ParameterError):
                h_lb(cycle_graph(5), 2, context=ctx)


class TestContextResults:
    """The context API produces the same decompositions as the kwargs API."""

    @pytest.mark.parametrize("peel", ["auto", "dict", "array"])
    def test_peel_layouts_agree_end_to_end(self, graph, peel, monkeypatch):
        """CSR peels through arrays; "dict" swaps in the dict layout."""
        reference = core_decomposition(graph, 2, algorithm="h-LB",
                                       backend="dict").core_index
        if peel == "dict":
            force_dict_peel(monkeypatch)
        expected_state = DictPeelState if peel == "dict" else ArrayPeelState
        with ExecutionContext(graph, backend="csr") as ctx:
            assert isinstance(ctx.make_peel_state(), expected_state)
            assert h_lb(graph, 2, context=ctx).core_index == reference

    def test_context_counters_are_used(self, graph):
        counters = Counters()
        with ExecutionContext(graph, backend="csr",
                              counters=counters) as ctx:
            h_lb(graph, 2, context=ctx)
        assert counters.bfs_calls > 0

    def test_report_records_context_configuration(self, graph):
        with ExecutionContext(graph, backend="csr", executor="serial",
                              num_workers=2) as ctx:
            report = core_decomposition_with_report(graph, 2,
                                                    algorithm="h-LB+UB",
                                                    context=ctx)
        assert report.params["backend"] == "csr"
        assert report.params["executor"] == "serial"
        assert report.params["num_workers"] == 2


class TestWorkerCount:
    """The context resolves (None -> 1) and validates the worker count."""

    def test_default_is_one_worker(self, graph):
        with ExecutionContext(graph, backend="dict") as ctx:
            assert ctx.num_workers == 1
        with ExecutionContext(graph, backend="dict", num_workers=3) as ctx:
            assert ctx.num_workers == 3

    @pytest.mark.parametrize("workers", [0, -1])
    def test_context_rejects_fewer_than_one_worker(self, graph, workers):
        with pytest.raises(ParameterError, match="num_workers"):
            ExecutionContext(graph, backend="csr", executor="process",
                             num_workers=workers)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_entry_points_reject_fewer_than_one_worker(self, graph, workers):
        with pytest.raises(ParameterError):
            core_decomposition(graph, 2, algorithm="h-LB+UB",
                               num_workers=workers)
        with pytest.raises(ParameterError):
            compute_h_degrees(graph, 2, num_workers=workers)

    def test_dynamic_engine_rejects_zero_workers(self, graph):
        with pytest.raises(ParameterError, match="num_workers"):
            DynamicKHCore(graph.copy(), h=2, num_workers=0)

    def test_num_workers_spelling_is_silent(self, graph):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            h_lb_ub(graph, 2, num_workers=2)
            core_decomposition(graph, 2, num_workers=2)
            compute_h_degrees(graph, 2, num_workers=2)

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_cli_rejects_fewer_than_one_worker(self, tmp_path, capsys,
                                               workers):
        edges = tmp_path / "g.edges"
        edges.write_text("0 1\n1 2\n2 0\n")
        exit_code = main([str(edges), "--h", "2", "--verbose",
                          "--workers", workers, "--executor", "process"])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "num_workers" in err

    def test_cli_workers_flag_is_silent(self, tmp_path, capsys):
        edges = tmp_path / "g.edges"
        edges.write_text("0 1\n1 2\n2 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            exit_code = main([str(edges), "--h", "2", "--verbose",
                              "--workers", "2"])
        assert exit_code == 0
        assert "workers: 2" in capsys.readouterr().err


class TestSizeValidation:
    """Partition and batch sizes below 1 are rejected, never clamped."""

    @pytest.mark.parametrize("size", [0, -5])
    @pytest.mark.parametrize("algorithm", ["auto", "h-BZ", "h-LB",
                                           "h-LB+UB"])
    def test_core_decomposition_rejects_partition_size(self, graph,
                                                       algorithm, size):
        # The check no longer depends on which algorithm "auto" picks.
        with pytest.raises(ParameterError, match="partition_size"):
            core_decomposition(graph, 2, algorithm=algorithm,
                               partition_size=size)

    @pytest.mark.parametrize("size", [0, -5])
    def test_dynamic_engine_rejects_partition_size(self, graph, size):
        with pytest.raises(ParameterError, match="partition_size"):
            DynamicKHCore(graph.copy(), h=2, partition_size=size)

    @pytest.mark.parametrize("size", [0, -1])
    def test_refresh_index_rejects_batch_size(self, graph, tmp_path, size):
        from repro.index import build_index, refresh_index

        path = str(tmp_path / "g.khidx")
        build_index(graph, path, h_values=(2,))
        with pytest.raises(ParameterError, match="batch_size"):
            refresh_index(path, [("+", 0, 7)], batch_size=size)

    @pytest.mark.parametrize("size", ["0", "-2"])
    def test_cli_rejects_partition_size(self, capsys, size):
        assert main(["--demo", "--h", "2", "--partition-size", size]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "partition_size" in err

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_cli_stream_rejects_batch_size(self, tmp_path, capsys, size):
        updates = tmp_path / "u.txt"
        updates.write_text("+ 0 1\n+ 1 2\n")
        assert main(["stream", str(updates), "--h", "2",
                     "--batch-size", size]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "batch_size" in err

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_cli_index_refresh_rejects_batch_size(self, tmp_path, capsys,
                                                  size):
        edges = tmp_path / "g.edges"
        edges.write_text("0 1\n1 2\n2 0\n")
        db = tmp_path / "g.khidx"
        assert main(["index", "build", str(edges), "--db", str(db),
                     "--h-values", "2"]) == 0
        updates = tmp_path / "u.txt"
        updates.write_text("+ 0 3\n")
        capsys.readouterr()
        assert main(["index", "refresh", str(db), str(updates),
                     "--batch-size", size]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "batch_size" in err
